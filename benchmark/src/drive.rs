//! The untraced run: a closed loop of connections against the served
//! workload, answers checked against an embedded session, every
//! end-to-end metric out.
//!
//! A run is: set up → warm up → measured window → read memory → sweep →
//! shut down (→ reopen the journal and check it) → set up twice more for
//! the set-up median. The **sweep** tops every operation kind up to the
//! sample count its reported percentile needs, so each latency is defined
//! on each workload: kinds in the workload's mix are measured under its
//! load, kinds outside it the way the workloads that have them run them
//! (reads from both connections at once, then writes from one), and only
//! the window counts towards `ops_per_s`. The sweep deals its kinds out
//! in rounds, so each kind's samples span the whole sweep rather than one
//! short stretch of it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loosedb_browse::{ProbeOutcome, SharedSession};
use loosedb_engine::SharedDatabase;
use loosedb_serve::{Client, ClientError, RowsResult, WriteResult};
use loosedb_store::Fact;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ops::{Gen, Kind, Op, Workload, KINDS, READER_INTERVAL_US};
use crate::spec::{self, LATENCIES};
use crate::stats::{median, percentile, samples_needed, steady_percentile, steady_rate};
use crate::world::{open_journal, rss_mb, set_up, symbol, Scale};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// One served read in this many is re-answered embedded and compared.
const CHECK_ONE_IN: u32 = 32;

pub struct RunConfig {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// Directory for journals and output files.
    pub out: PathBuf,
}

/// One reported number.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a timing.
    pub samples: Option<usize>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

/// What a served call returned.
pub(crate) enum Reply {
    Text(String),
    Rows(RowsResult),
    Done(WriteResult),
}

/// Sends one request and waits for its reply.
pub(crate) fn issue(client: &mut Client, op: &Op) -> Result<Reply, ClientError> {
    match op {
        Op::Nav((s, r, t)) => client.navigate(s, r, t).map(Reply::Text),
        Op::Query(text) => client.query(text).map(Reply::Rows),
        Op::Probe(text) => client.probe(text).map(Reply::Text),
        Op::Publish(f) | Op::ClassPublish(f) => {
            client.publish(false, vec![f.clone()]).map(Reply::Done)
        }
        Op::Retract((s, r, t)) | Op::ClassRetract((s, r, t)) => {
            client.retract(s, r, t).map(Reply::Done)
        }
    }
}

/// Numbered entries of a probe menu (`"1. Success with …"`).
fn menu_size(text: &str) -> usize {
    text.lines()
        .filter(|l| l.split_once(". Success").is_some_and(|(n, _)| n.parse::<usize>().is_ok()))
        .count()
}

/// Re-answers served reads through an embedded [`SharedSession`] on the
/// same database and compares.
struct Checker {
    shared: Arc<SharedDatabase>,
    session: SharedSession,
    rng: StdRng,
}

impl Checker {
    fn new(shared: &Arc<SharedDatabase>, seed: u64) -> Checker {
        Checker {
            shared: Arc::clone(shared),
            session: SharedSession::new(Arc::clone(shared)),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Decides (seeded) whether the next read is checked; if so, returns
    /// the epoch to check it at.
    fn sample(&mut self, op: &Op) -> Option<u64> {
        (!op.kind().is_write() && self.rng.gen_range(0..CHECK_ONE_IN) == 0)
            .then(|| self.shared.epoch())
    }

    /// `Err` describes a wrong answer. A read whose epoch moved under it
    /// (a writer published meanwhile) cannot be compared and passes.
    fn check(&mut self, op: &Op, reply: &Reply, epoch: Option<u64>) -> Result<(), String> {
        if let Reply::Done(done) = reply {
            return if done.applied == 1 {
                Ok(())
            } else {
                Err(format!("{op:?}: applied {}", done.applied))
            };
        }
        let Some(epoch) = epoch else { return Ok(()) };
        let wrong = match (op, reply) {
            (Op::Nav((s, r, t)), Reply::Text(served)) => {
                let table = self
                    .session
                    .navigate_parts(s, r, t)
                    .map_err(|e| format!("{op:?}: embedded: {e}"))?;
                table.to_string() != *served
            }
            (Op::Query(text), Reply::Rows(served)) => {
                let answer =
                    self.session.query(text).map_err(|e| format!("{op:?}: embedded: {e}"))?;
                let mut served_rows = served.rows.clone();
                served_rows.sort();
                let mut rows = self.session.render_answer(&answer);
                rows.sort();
                served.names != answer.names || served_rows != rows
            }
            (Op::Probe(text), Reply::Text(served)) => {
                let report =
                    self.session.probe(text).map_err(|e| format!("{op:?}: embedded: {e}"))?;
                let menu = match report.outcome {
                    ProbeOutcome::RetractionsSucceeded { wave } => {
                        report.waves[wave].successes().count()
                    }
                    _ => 0,
                };
                self.session.render_probe(&report) != *served || menu != menu_size(served)
            }
            _ => return Err(format!("{op:?}: reply of the wrong kind")),
        };
        if wrong && self.shared.epoch() == epoch {
            return Err(format!("{op:?}: served answer differs from embedded at epoch {epoch}"));
        }
        Ok(())
    }
}

/// Everything one connection counted.
#[derive(Default)]
pub(crate) struct Tally {
    /// Per [`Kind`]: when each round trip completed (seconds into the
    /// run) and how many microseconds it took.
    samples: [Vec<(f64, f64)>; KINDS.len()],
    /// When each request of the window completed, seconds from its start.
    window_done_at: Vec<f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// How late each paced request went out, microseconds.
    pub(crate) late_us: Vec<f64>,
}

pub(crate) struct Conn {
    index: usize,
    /// The run's zero of time.
    origin: Instant,
    gen: Gen,
    checker: Checker,
    pub(crate) tally: Tally,
}

impl Tally {
    /// Round-trip microseconds recorded for a kind, in time order.
    pub(crate) fn micros(&self, kind: Kind) -> Vec<f64> {
        self.samples[kind.index()].iter().map(|(_, micros)| *micros).collect()
    }
}

impl Conn {
    pub(crate) fn new(cfg: &RunConfig, shared: &Arc<SharedDatabase>, index: usize) -> Conn {
        Conn::with_gen(cfg, shared, index, Gen::new(cfg.workload, cfg.scale, cfg.seed, index))
    }

    /// A connection that carries on an existing request stream (which
    /// knows what it has already published).
    pub(crate) fn with_gen(
        cfg: &RunConfig,
        shared: &Arc<SharedDatabase>,
        index: usize,
        gen: Gen,
    ) -> Conn {
        Conn {
            index,
            origin: Instant::now(),
            gen,
            checker: Checker::new(shared, cfg.seed ^ index as u64),
            tally: Tally::default(),
        }
    }

    /// One request: send, time, verify. `from` is when the request was
    /// due (paced) or `None` to time from the send.
    fn request(&mut self, client: &mut Client, op: &Op, from: Option<Instant>, record: bool) {
        let epoch = self.checker.sample(op);
        let sent = Instant::now();
        let reply = issue(client, op);
        let micros = from.unwrap_or(sent).elapsed().as_secs_f64() * 1e6;
        self.tally.attempted += 1;
        let verdict = match &reply {
            Ok(reply) => self.checker.check(op, reply, epoch),
            Err(e) => Err(format!("{op:?}: {e}")),
        };
        if let Err(why) = verdict {
            if self.tally.failed < 5 {
                eprintln!("loosebench: failed: {why}");
            }
            self.tally.failed += 1;
        } else if record {
            self.tally.samples[op.kind().index()]
                .push((self.origin.elapsed().as_secs_f64(), micros));
        }
    }

    /// Closed loop: the next request goes out when the last reply is in.
    /// Warm-up and window both end on a unit boundary.
    pub(crate) fn closed_loop(
        &mut self,
        addr: SocketAddr,
        workload: Workload,
        warmup: Duration,
        window: Duration,
    ) {
        let mut client = connect(addr, self.index);
        let unit = workload.unit_len(self.index) as u64;
        for (span, record) in [(warmup, false), (window, true)] {
            let started = Instant::now();
            let mut ops = 0u64;
            while !ops.is_multiple_of(unit) || started.elapsed() < span {
                let op = self.gen.next_op();
                self.request(&mut client, &op, None, record);
                ops += 1;
                if record {
                    self.tally.window_done_at.push(started.elapsed().as_secs_f64());
                }
            }
        }
    }

    /// Open loop of navigations at a fixed rate until `stop`: each is
    /// timed from when it was due. How late the generator itself ran is
    /// kept too: the send time past the later of the due time and the
    /// previous reply (one connection cannot send before that; a backlog
    /// the server caused is already in the latency).
    pub(crate) fn paced(&mut self, addr: SocketAddr, warmup: Duration, stop: &AtomicBool) {
        let mut client = connect(addr, self.index);
        let interval = Duration::from_micros(READER_INTERVAL_US);
        let started = Instant::now();
        let mut free_at = started;
        for i in 0u32.. {
            let due = started + interval * i;
            if stop.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let record = due.duration_since(started) >= warmup;
            if record {
                self.tally.late_us.push(due.max(free_at).elapsed().as_secs_f64() * 1e6);
            }
            let op = self.gen.op_of(Kind::Nav);
            self.request(&mut client, &op, Some(due), record);
            free_at = Instant::now();
        }
    }

    /// Issues `need[kind]` more requests of every kind, dealt out in
    /// rounds so each kind's samples span the whole sweep.
    pub(crate) fn sweep(&mut self, addr: SocketAddr, mut need: [usize; KINDS.len()]) {
        const ROUNDS: usize = 24;
        let mut client = connect(addr, self.index);
        let per_round = need.map(|n| n.div_ceil(ROUNDS));
        while need.iter().any(|n| *n > 0) {
            for kind in KINDS {
                let batch = per_round[kind.index()].min(need[kind.index()]);
                need[kind.index()] -= batch;
                for _ in 0..batch {
                    if kind == Kind::Retract && self.gen.live_len() == 0 {
                        let op = self.gen.op_of(Kind::Publish);
                        self.request(&mut client, &op, None, true);
                    }
                    let op = self.gen.op_of(kind);
                    self.request(&mut client, &op, None, true);
                }
            }
        }
    }

    /// Navigates, unrecorded, until `stop` is set.
    pub(crate) fn navigate_until(&mut self, addr: SocketAddr, stop: &AtomicBool) {
        let mut client = connect(addr, self.index);
        while !stop.load(Ordering::Acquire) {
            let op = self.gen.op_of(Kind::Nav);
            self.request(&mut client, &op, None, false);
        }
    }
}

fn connect(addr: SocketAddr, conn: usize) -> Client {
    Client::connect(addr, &format!("loosebench-{conn}")).expect("connect to the workload's server")
}

/// Requests of a kind the sweep adds to the `have` the window recorded.
/// A window that recorded enough for the kind's strictest percentile is
/// left alone — its samples were taken under the workload's load and are
/// not mixed with others. Otherwise the kind is topped up to a total
/// that gives the steady estimate several sizeable blocks to choose
/// from; fewer where one request costs milliseconds.
fn sweep_need(kind: Kind, have: usize) -> usize {
    let enough =
        LATENCIES.iter().filter(|(_, k, _)| *k == kind).map(|(_, _, q)| samples_needed(*q)).max();
    let total = match kind {
        // Zipf-drawn navigations cost anything from microseconds to
        // milliseconds, steeply around the median: a block needs over a
        // thousand for its median to settle.
        Kind::Nav => 9600,
        Kind::Query | Kind::Publish => 4800,
        Kind::Retract => 600,
        Kind::Probe => 480,
        Kind::ClassPublish | Kind::ClassRetract => 0,
    };
    if enough.is_some_and(|enough| have < enough * 6 / 5) {
        total - have
    } else {
        0
    }
}

/// Aborts when the generator would need more threads than the machine
/// has cores: it would then be measuring its own queueing.
pub(crate) fn check_cores() -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if Workload::CONNECTIONS > cores {
        return Err(format!(
            "the generator drives {} connections but this machine has {cores} core(s)",
            Workload::CONNECTIONS
        ));
    }
    Ok(cores)
}

/// Checks a reopened journal against what the writer was acknowledged.
fn journal_failures(dir: &Path, conns: &[Conn]) -> Result<u64, String> {
    let journal = open_journal(dir)?;
    let db = journal.database_ref();
    let holds = |(s, r, t): &(String, String, String)| matches!((symbol(db, s), symbol(db, r), symbol(db, t)), (Some(s), Some(r), Some(t)) if db.contains_base(&Fact::new(s, r, t)));
    let mut failures = 0;
    for conn in conns {
        let (present, absent) = conn.gen.ledger();
        let lost = present.iter().filter(|f| !holds(f)).count();
        let kept = absent.iter().filter(|f| holds(f)).count();
        if lost + kept > 0 {
            eprintln!(
                "loosebench: journal lost {lost} acked publish(es), kept {kept} acked retract(s)"
            );
        }
        failures += (lost + kept) as u64;
    }
    Ok(failures)
}

/// Runs one workload untraced and reports every end-to-end metric.
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    check_cores()?;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let workload = cfg.workload;
    let env = set_up(workload, &cfg.scale, &cfg.out)?;
    let mut setups = vec![env.stages.total_s];
    let mut conns: Vec<Conn> =
        (0..Workload::CONNECTIONS).map(|index| Conn::new(cfg, &env.shared, index)).collect();

    // Warm-up and window: every connection on its own thread, while this
    // one reads the resident set ten times a second.
    let stop = AtomicBool::new(false);
    let running = AtomicUsize::new(conns.len());
    let mut rss_samples = Vec::new();
    std::thread::scope(|scope| {
        for conn in &mut conns {
            let (stop, running) = (&stop, &running);
            scope.spawn(move || {
                if workload.paced(conn.index) {
                    conn.paced(env.addr, cfg.warmup, stop);
                } else {
                    conn.closed_loop(env.addr, workload, cfg.warmup, cfg.window);
                    stop.store(true, Ordering::Release);
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        while running.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(100));
            rss_samples.push(rss_mb());
        }
    });
    // Memory over the second half of the window.
    let half = (cfg.window.as_millis() / 200) as usize;
    let rss = median(&rss_samples[rss_samples.len().saturating_sub(half.max(1))..]);
    let late = conns.iter().flat_map(|c| c.tally.late_us.iter().copied()).collect::<Vec<_>>();
    // The reader's sends are held to their p99 (a window too short for
    // one, to their p90): later than an interval, the generator was not
    // keeping its schedule and the latencies mean nothing.
    if let Some(late) = [0.99, 0.9].iter().find_map(|q| percentile(&late, *q).ok()) {
        if late > READER_INTERVAL_US as f64 {
            return Err(format!(
                "the paced reader's sends ran {late:.0} us late, more than its {READER_INTERVAL_US} us interval"
            ));
        }
    }

    // Sweep: top every kind up to its target, the way the workloads that
    // have it in their mix run it — reads from both connections at once,
    // then writes from the first alone (one writer, so no fact is
    // published twice, and nothing competes with it for the cores).
    let need = KINDS.map(|kind| {
        sweep_need(kind, conns.iter().map(|c| c.tally.samples[kind.index()].len()).sum())
    });
    let reads = KINDS.map(|k| if k.is_write() { 0 } else { need[k.index()].div_ceil(2) });
    let writes = KINDS.map(|k| if k.is_write() { need[k.index()] } else { 0 });
    std::thread::scope(|scope| {
        for conn in &mut conns {
            scope.spawn(move || conn.sweep(env.addr, reads));
        }
    });
    conns[0].sweep(env.addr, writes);

    let mut failed: u64 = conns.iter().map(|c| c.tally.failed).sum();
    let attempted: u64 = conns.iter().map(|c| c.tally.attempted).sum();
    let journal_dir = env.shut_down();
    if let Some(dir) = &journal_dir {
        failed += journal_failures(dir, &conns)?;
        let _ = std::fs::remove_dir_all(dir);
    }

    // Set-up again, for the median.
    while setups.len() < SETUPS {
        let env = set_up(workload, &cfg.scale, &cfg.out)?;
        setups.push(env.stages.total_s);
        if let Some(dir) = env.shut_down() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    let closed = conns.iter().filter(|c| !workload.paced(c.index));
    let ops_per_s: f64 =
        closed.map(|c| steady_rate(&c.tally.window_done_at, workload.unit_len(c.index))).sum();
    let mut metrics = Vec::new();
    for m in spec::END_TO_END {
        let (value, samples) = match m.name {
            "setup_s" => (median(&setups), Some(setups.len())),
            "ops_per_s" => (ops_per_s, None),
            "rss_mb" => (rss, None),
            name => {
                let (_, kind, q) =
                    LATENCIES.iter().find(|(n, _, _)| *n == name).expect("a latency metric");
                let mut pooled: Vec<(f64, f64)> = conns
                    .iter()
                    .flat_map(|c| c.tally.samples[kind.index()].iter().copied())
                    .collect();
                pooled.sort_by(|a, b| a.0.total_cmp(&b.0));
                let micros: Vec<f64> = pooled.iter().map(|(_, micros)| *micros).collect();
                let value = steady_percentile(&micros, *q).map_err(|e| format!("{name}: {e}"))?;
                (value, Some(micros.len()))
            }
        };
        metrics.push(Measured { name: m.name, unit: m.unit, value, samples });
    }
    Ok(Outcome { attempted, failed, metrics })
}
