//! Percentiles that refuse to be numbers without enough samples, and
//! the quartile spread the regression bounds are judged against.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before `percentile(_, q)` answers: the nearest-rank
/// position must leave [`MIN_BEYOND`] samples above it.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| n - rank(n, q) >= MIN_BEYOND).expect("some n suffices")
}

/// One-based nearest rank of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of unsorted samples. A percentile with fewer
/// than [`MIN_BEYOND`] samples beyond it is an error, not a number.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} sample(s): fewer than {MIN_BEYOND} beyond it (need {})",
            q * 100.0,
            samples_needed(q)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, q) - 1])
}

/// Most blocks a run's samples are split into for the steady estimates.
const BLOCKS: usize = 8;
/// Fewest samples in a block (when there is more than one): a median of
/// two dozen costs that differ tenfold is mostly the luck of the draw.
const MIN_BLOCK: usize = 100;

/// A percentile that shrugs off interference. On a shared sandbox a
/// stretch of the run is now and then slowed by something outside the
/// benchmark — never sped up. So the time-ordered samples are split into
/// up to [`BLOCKS`] equal blocks, each large enough for the percentile
/// on its own, the percentile is taken per block, and the answer is the
/// lower quartile of those: the value in the undisturbed part of the run.
pub fn steady_percentile(in_time_order: &[f64], q: f64) -> Result<f64, String> {
    let n = in_time_order.len();
    let blocks = (n / (samples_needed(q) * 6 / 5).max(MIN_BLOCK)).clamp(1, BLOCKS);
    let mut per_block = in_time_order
        .chunks_exact((n / blocks).max(1))
        .map(|block| percentile(block, q))
        .collect::<Result<Vec<f64>, String>>()?;
    per_block.sort_by(f64::total_cmp);
    Ok(per_block[blocks / 4])
}

/// The rate counterpart of [`steady_percentile`]: `done_at[i]` is when
/// the `i`-th request of a window completed, in seconds from its start.
/// The window is split into up to [`BLOCKS`] runs of whole units, the
/// rate is taken per run, and the answer is their upper quartile.
pub fn steady_rate(done_at: &[f64], unit: usize) -> f64 {
    let units = done_at.len() / unit;
    let blocks = units.clamp(1, BLOCKS);
    let mut rates: Vec<f64> = (0..blocks)
        .map(|b| {
            let (from, to) = (units * b / blocks * unit, units * (b + 1) / blocks * unit);
            let began = if from == 0 { 0.0 } else { done_at[from - 1] };
            (to - from) as f64 / (done_at[to - 1] - began)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[blocks - 1 - blocks / 4]
}

/// Plain median (no sample-count guard): for run-level summaries, where
/// the values are already per-run medians.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them. With fewer than four values, the range stands in.
pub fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let mid = median(&sorted);
    if m < 2 || mid == 0.0 {
        return 0.0;
    }
    if m < 4 {
        return (sorted[m - 1] - sorted[0]) / mid.abs();
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99).unwrap(), 990.0);
        assert_eq!(percentile(&samples, 0.5).unwrap(), 500.0);
        assert!(percentile(&samples[..999], 0.99).is_err());
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert_eq!(percentile(&samples[..20], 0.5).unwrap(), 10.0);
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn steady_estimates_ignore_a_slow_stretch() {
        // 8 blocks of 1200 samples; two of them ran three times slower.
        let mut samples = Vec::new();
        for block in 0..8 {
            let slow = if block == 2 || block == 5 { 3.0 } else { 1.0 };
            samples.extend((0..1200).map(|i| slow * f64::from(100 + i % 7)));
        }
        assert_eq!(steady_percentile(&samples, 0.99).unwrap(), 106.0);
        assert!(percentile(&samples, 0.99).unwrap() > 300.0);
        // Too few samples for even one block is still an error.
        assert!(steady_percentile(&samples[..999], 0.99).is_err());
        assert_eq!(steady_percentile(&samples[..1000], 0.99).unwrap(), 106.0);

        // 16 units of 10 requests: 1 ms per request, but units 4..8 at 4 ms.
        let mut now = 0.0;
        let done_at: Vec<f64> = (0..160)
            .map(|i| {
                now += if (40..80).contains(&i) { 0.004 } else { 0.001 };
                now
            })
            .collect();
        assert!((steady_rate(&done_at, 10) - 1000.0).abs() < 1e-6);
        assert!((steady_rate(&done_at[..10], 10) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
