//! WAL-shipped read replicas: crash-tolerant replay, catch-up, and
//! failover.
//!
//! A [`Replica`] tails a leader's durable directory (see
//! [`crate::durable`]) through a [`FrameStream`] and replays the shipped
//! frames into its own [`SharedDatabase`] — so followers serve
//! snapshot-isolated reads through the exact same `SharedSession`
//! machinery as a standalone database, with the same O(delta) publishes
//! and precise delta history keeping their query caches warm.
//!
//! ## Local state and the commit protocol
//!
//! A replica directory holds three things per consumed segment `s`:
//!
//! * `base-<s>.lsdf` — the database image at the start of segment `s`
//!   (a verified copy of the leader's snapshot, or the replica's own
//!   re-encode at a rotation boundary);
//! * `mirror-<s>.log` — the shipped frames, appended *verbatim* (the
//!   leader's own CRC32 framing is preserved, so recovery re-verifies
//!   every checksum);
//! * `CURSOR` — the checksummed [`ShipCursor`] `(segment, offset,
//!   epoch)`, replaced atomically.
//!
//! Each applied batch follows **mirror-append → mirror-fsync → apply +
//! publish → cursor replace**. Because the mirror is durable before the
//! cursor ever names its bytes, a crash at *any* I/O point leaves the
//! local directory in one of two states: the cursor describes a prefix
//! of the mirror's intact frames (resume = base + lenient mirror replay,
//! truncating a torn tail), or local state is damaged beyond the cursor's
//! word (resume refuses and the replica re-bootstraps from the leader's
//! newest checkpoint). Either way the follower recovers to a CRC-valid
//! prefix of the leader's history and resumes — never to a torn or
//! bit-flipped state.
//!
//! ## Damage and retirement
//!
//! A frame failing its checksum in a place that cannot be a live torn
//! tail is re-fetched with bounded retry and backoff
//! ([`ReplicaOptions::max_retries`]); persistent damage triggers a
//! re-bootstrap from the newest snapshot instead of poisoning the
//! follower, and damage that recurs at the same position *after* a
//! re-bootstrap (leader-side bit rot no snapshot routes around) is
//! surfaced as an error rather than looped on. A follower that falls
//! behind segment retirement
//! ([`ShipError::SegmentRetired`]) re-bootstraps the same way —
//! [`SharedDatabase::write`] replacing the whole database publishes a
//! `Full` delta, so session caches invalidate correctly and epochs keep
//! monotonically increasing.
//!
//! ## What ships and what does not
//!
//! The WAL carries facts only; rule, kind and configuration changes
//! travel in snapshots. At each rotation the replica cross-checks its
//! own re-encoded image against the leader's manifest CRC and adopts the
//! leader's snapshot on mismatch, so non-fact state converges at the
//! next checkpoint boundary (and silent divergence is caught there too).
//!
//! See DESIGN.md §12 for the state machine and failover rules.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loosedb_obs::Metrics;
use loosedb_store::io::atomic_write_with;
use loosedb_store::log::Frames;
use loosedb_store::ship::{
    parse_generation, snap_name, FrameStream, Manifest, ShipCursor, ShipError, MANIFEST_NAME,
};
use loosedb_store::{crc32, Fact, LogOp, RealIo, StorageIo};

use crate::closure::ClosureError;
use crate::database::{Database, TransactionError};
use crate::durable::{DurableDatabase, DurableError, SyncPolicy};
use crate::persist;
use crate::shared::SharedDatabase;

/// File name of the replica's checksummed cursor.
pub const CURSOR_NAME: &str = "CURSOR";

/// File name of the base image of a consumed segment.
fn base_name(segment: u64) -> String {
    format!("base-{segment:016}.lsdf")
}

/// File name of the mirrored frame log of a consumed segment.
fn mirror_name(segment: u64) -> String {
    format!("mirror-{segment:016}.log")
}

/// Tuning knobs for a [`Replica`].
#[derive(Clone, Copy, Debug)]
pub struct ReplicaOptions {
    /// Maximum operations consumed and applied per [`Replica::poll`]
    /// (one publish each; smaller batches mean fresher reads, larger
    /// ones faster catch-up).
    pub batch_ops: usize,
    /// Re-reads of a corrupt frame before giving up and re-bootstrapping
    /// from the newest snapshot.
    pub max_retries: u32,
    /// Base delay between corrupt-frame retries; doubles on each retry.
    /// `Duration::ZERO` disables sleeping (tests, in-memory I/O).
    pub retry_backoff: Duration,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions { batch_ops: 512, max_retries: 4, retry_backoff: Duration::from_millis(2) }
    }
}

/// How the last [`Replica`] open went, and lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// The open resumed local state (base + mirror replay) instead of
    /// bootstrapping from the leader.
    pub resumed: bool,
    /// Mirrored operations replayed during the resume.
    pub mirror_ops_replayed: u64,
    /// The mirror had a torn tail that was truncated during the resume.
    pub mirror_tail_truncated: bool,
    /// Snapshot bootstraps over the replica's lifetime (the initial one
    /// if the open did not resume, plus every later re-bootstrap).
    pub bootstraps: u64,
}

/// What one [`Replica::poll`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollReport {
    /// Operations applied (and published) by this poll.
    pub ops_applied: usize,
    /// The replica rotated into the next segment (local checkpoint).
    pub rotated: bool,
    /// The replica re-bootstrapped from a leader snapshot (segment
    /// retired under the cursor, or persistent frame damage).
    pub rebootstrapped: bool,
    /// Nothing to do: the replica has consumed everything the leader has
    /// durably written.
    pub caught_up: bool,
    /// Unconsumed bytes remaining in the current segment after the poll.
    pub lag_bytes: u64,
    /// The leader's live generation at poll time.
    pub live_segment: u64,
}

/// Why a replica operation failed.
#[derive(Debug)]
pub enum ReplicaError {
    /// Local or leader I/O failed.
    Io(io::Error),
    /// The shipping layer failed in a way the replica does not handle
    /// internally (no decodable leader manifest, or damage that survived
    /// both retries and a re-bootstrap).
    Ship(ShipError),
    /// Replaying a shipped operation violated a closure limit — the
    /// follower's inference configuration has diverged from the
    /// leader's.
    Closure(ClosureError),
    /// No verifiable snapshot to bootstrap from.
    Bootstrap(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Io(e) => write!(f, "replica I/O failed: {e}"),
            ReplicaError::Ship(e) => write!(f, "shipping failed: {e}"),
            ReplicaError::Closure(e) => write!(f, "replay violated a closure limit: {e}"),
            ReplicaError::Bootstrap(why) => write!(f, "bootstrap failed: {why}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<io::Error> for ReplicaError {
    fn from(e: io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

impl From<DurableError> for ReplicaError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Transaction(TransactionError::Closure(e)) => ReplicaError::Closure(e),
            DurableError::Io(e) => ReplicaError::Io(e),
            // Replay is unchecked, so integrity never refuses it.
            DurableError::Transaction(e @ TransactionError::Integrity(_)) => {
                unreachable!("unchecked replay refused: {e}")
            }
        }
    }
}

/// A WAL-shipped read replica of a leader's durable directory.
///
/// See the [module docs](self) for the replication protocol. The replica
/// owns an [`Arc<SharedDatabase>`] — hand clones of it to
/// `SharedSession`s for snapshot-isolated reads; their caches survive
/// polls exactly as they survive local writes, because replay publishes
/// through the same precise-delta path.
pub struct Replica<I: StorageIo = RealIo> {
    io: Arc<I>,
    leader_dir: PathBuf,
    local_dir: PathBuf,
    shared: Arc<SharedDatabase>,
    stream: FrameStream<Arc<I>>,
    options: ReplicaOptions,
    info: ReplicaInfo,
    /// `(segment, offset)` of the last corrupt frame that triggered a
    /// re-bootstrap. If the same damage recurs after the re-bootstrap
    /// (leader-side bit rot the snapshot cannot route around), poll
    /// errors instead of re-bootstrapping in a livelock.
    last_corrupt: Option<(u64, u64)>,
}

impl Replica<RealIo> {
    /// Opens a replica of `leader_dir` with local state in `local_dir`,
    /// on the real filesystem with default options.
    pub fn open(
        leader_dir: impl Into<PathBuf>,
        local_dir: impl Into<PathBuf>,
    ) -> Result<Self, ReplicaError> {
        Replica::open_with(RealIo, leader_dir, local_dir, ReplicaOptions::default())
    }
}

impl<I: StorageIo> Replica<I> {
    /// Opens a replica through an explicit [`StorageIo`] handle.
    ///
    /// Resumes from `local_dir` when it holds a usable cursor, base
    /// image and mirror (replaying the mirror leniently and truncating a
    /// torn tail); bootstraps from the leader's newest verified snapshot
    /// otherwise.
    pub fn open_with(
        io: I,
        leader_dir: impl Into<PathBuf>,
        local_dir: impl Into<PathBuf>,
        options: ReplicaOptions,
    ) -> Result<Self, ReplicaError> {
        let io = Arc::new(io);
        let leader_dir = leader_dir.into();
        let local_dir = local_dir.into();
        if !io.exists(&local_dir) {
            io.create_dir_all(&local_dir)?;
        }
        let mut info = ReplicaInfo::default();
        let (db, cursor) = match Self::resume(&io, &local_dir, &mut info) {
            Some(resumed) => {
                info.resumed = true;
                resumed
            }
            None => {
                info.bootstraps += 1;
                Self::bootstrap(&io, &leader_dir, &local_dir)?
            }
        };
        let shared = Arc::new(SharedDatabase::new(db).map_err(ReplicaError::Closure)?);
        shared.metrics().repl_bootstraps.add(info.bootstraps);
        let stream = FrameStream::new(Arc::clone(&io), leader_dir.clone(), cursor);
        Ok(Replica { io, leader_dir, local_dir, shared, stream, options, info, last_corrupt: None })
    }

    /// The replica's I/O handle (the one passed to
    /// [`Replica::open_with`]).
    pub fn io_ref(&self) -> &I {
        &self.io
    }

    /// The replica's shared database: clone the `Arc` into sessions for
    /// snapshot-isolated reads.
    pub fn shared(&self) -> &Arc<SharedDatabase> {
        &self.shared
    }

    /// The current shipping cursor. `cursor().epoch` counts operations
    /// applied since the last bootstrap — the replica's logical clock.
    pub fn cursor(&self) -> ShipCursor {
        self.stream.cursor()
    }

    /// How the open went, and lifetime counters.
    pub fn info(&self) -> ReplicaInfo {
        self.info
    }

    /// The leader directory being tailed.
    pub fn leader_dir(&self) -> &Path {
        &self.leader_dir
    }

    /// The replica's own state directory.
    pub fn local_dir(&self) -> &Path {
        &self.local_dir
    }

    /// Ships, verifies and applies the next batch of at most
    /// [`ReplicaOptions::batch_ops`] operations, publishing one new
    /// generation if anything was applied. Handles retry, re-bootstrap
    /// and rotation internally; see [`PollReport`] for what happened.
    pub fn poll(&mut self) -> Result<PollReport, ReplicaError> {
        let metrics = Arc::clone(self.shared.metrics());
        metrics.repl_polls.inc();
        let mut span =
            loosedb_obs::span!("engine.replica.poll", segment = self.stream.cursor().segment);
        let mut report = PollReport::default();
        let mut retries = 0u32;
        let batch = loop {
            match self.stream.poll(self.options.batch_ops) {
                Ok(batch) => break batch,
                Err(ShipError::CorruptFrame { .. }) if retries < self.options.max_retries => {
                    // Re-fetch: transient damage (a raced read, a repaired
                    // file) heals; the backoff bounds the leader re-read
                    // rate while it lasts.
                    metrics.repl_frames_rejected.inc();
                    metrics.repl_retries.inc();
                    let backoff = self.options.retry_backoff * (1u32 << retries.min(16));
                    retries += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                Err(e @ ShipError::CorruptFrame { .. }) => {
                    metrics.repl_frames_rejected.inc();
                    let ShipError::CorruptFrame { segment, offset, .. } = &e else {
                        unreachable!()
                    };
                    let key = (*segment, *offset);
                    if report.rebootstrapped || self.last_corrupt == Some(key) {
                        // A fresh snapshot did not route around this
                        // damage (leader-side bit rot): surface it
                        // rather than re-bootstrap in a livelock.
                        return Err(ReplicaError::Ship(e));
                    }
                    self.last_corrupt = Some(key);
                    self.rebootstrap(&metrics)?;
                    report.rebootstrapped = true;
                    retries = 0;
                }
                Err(e @ ShipError::SegmentRetired { .. }) => {
                    if report.rebootstrapped {
                        return Err(ReplicaError::Ship(e));
                    }
                    self.rebootstrap(&metrics)?;
                    report.rebootstrapped = true;
                    retries = 0;
                }
                Err(e) => return Err(ReplicaError::Ship(e)),
            }
        };

        report.lag_bytes = batch.lag_bytes;
        report.live_segment = batch.live_segment;
        report.ops_applied = batch.ops.len();
        if !batch.ops.is_empty() {
            let started = Instant::now();
            // The batch belongs to the segment the cursor was in *before*
            // any rotation the poll performed.
            let segment = self.stream.cursor().segment - u64::from(batch.rotated);
            let mirror = self.local_dir.join(mirror_name(segment));
            // Mirror first, fsync, then apply: the local log is durable
            // before the in-memory state (or the cursor) reflects it.
            self.io.append(&mirror, &batch.bytes)?;
            self.io.fsync(&mirror)?;
            self.shared
                .write(|db| apply_shipped(db, &batch.ops))?
                .map_err(ReplicaError::Closure)?;
            metrics.repl_frames_applied.add(batch.ops.len() as u64);
            metrics.repl_apply_ns.record_duration(started.elapsed());
            if !batch.rotated {
                // Commit point for the batch. When the poll also rotated,
                // the rotation below writes the (further advanced) cursor.
                self.write_cursor(self.stream.cursor())?;
            }
        }
        if batch.rotated {
            self.rotate_local(&metrics)?;
            report.rotated = true;
        }
        if let Some((segment, offset)) = self.last_corrupt {
            let c = self.stream.cursor();
            if c.segment > segment || (c.segment == segment && c.offset > offset) {
                // Progress past the damage (the leader repaired or
                // rotated): future corruption gets fresh retries.
                self.last_corrupt = None;
            }
        }
        metrics.repl_lag_bytes.set(batch.lag_bytes);
        report.caught_up = report.ops_applied == 0
            && !report.rotated
            && !report.rebootstrapped
            && batch.lag_bytes == 0;
        span.record("ops", report.ops_applied as u64);
        Ok(report)
    }

    /// Polls until the replica has consumed everything the leader has
    /// durably written (or until a torn in-flight append blocks further
    /// progress). Returns the number of operations applied.
    pub fn catch_up(&mut self) -> Result<u64, ReplicaError> {
        let mut total = 0u64;
        loop {
            let report = self.poll()?;
            total += report.ops_applied as u64;
            if report.caught_up
                || (report.ops_applied == 0 && !report.rotated && !report.rebootstrapped)
            {
                return Ok(total);
            }
        }
    }

    /// Promotes the replica to a writable leader: its replayed state
    /// becomes a fresh [`DurableDatabase`] directory at the generation
    /// *after* the last consumed segment, so a follower of the old
    /// leader can never confuse the two histories. Call this on leader
    /// loss; sessions holding the shared `Arc` keep serving reads
    /// throughout.
    pub fn promote(
        self,
        dir: impl Into<PathBuf>,
        policy: SyncPolicy,
    ) -> Result<DurableDatabase<Arc<I>>, ReplicaError> {
        let generation = self.stream.cursor().segment + 1;
        let db = match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.into_inner(),
            // Sessions still hold the Arc: promote a faithful copy.
            Err(shared) => {
                let image = shared.read_writer(persist::encode);
                persist::decode(image).map_err(|e| {
                    ReplicaError::Bootstrap(format!("promotion image does not decode: {e}"))
                })?
            }
        };
        DurableDatabase::create_with(self.io, dir, db, generation, policy).map_err(ReplicaError::Io)
    }

    // ------------------------------------------------------------------
    // Recovery and bootstrap
    // ------------------------------------------------------------------

    /// Rebuilds state from the local directory: cursor → base image →
    /// lenient mirror replay (truncating a torn tail). `None` if any
    /// piece is missing or damaged beyond what the commit protocol
    /// permits — the caller then bootstraps from the leader.
    fn resume(io: &Arc<I>, local: &Path, info: &mut ReplicaInfo) -> Option<(Database, ShipCursor)> {
        let cursor = ShipCursor::decode(&io.read(&local.join(CURSOR_NAME)).ok()?)?;
        let base = io.read(&local.join(base_name(cursor.segment))).ok()?;
        let mut db = persist::decode(&base[..]).ok()?;
        let mirror_path = local.join(mirror_name(cursor.segment));
        let data = io.read(&mirror_path).ok()?;
        let mut frames = Frames::new(&data);
        let mut applied = 0u64;
        let mut applied_at_cursor = 0u64;
        let mut damaged = false;
        while let Some(item) = frames.next() {
            match item {
                Ok(op) => {
                    replay_raw(&mut db, &op);
                    applied += 1;
                    if frames.valid_bytes() as u64 <= cursor.offset {
                        applied_at_cursor = applied;
                    }
                }
                Err(_) => {
                    damaged = true;
                    break;
                }
            }
        }
        let valid = frames.valid_bytes() as u64;
        if valid < cursor.offset {
            // The mirror lost bytes the cursor vouches for. The commit
            // protocol (mirror fsync before cursor replace) makes this
            // impossible under a crash, so the directory is damaged:
            // refuse, and re-bootstrap from the leader.
            return None;
        }
        if damaged {
            io.truncate(&mirror_path, valid).ok()?;
            info.mirror_tail_truncated = true;
        }
        info.mirror_ops_replayed = applied;
        // The mirror may run ahead of the cursor (crash between the
        // mirror fsync and the cursor replace): the surplus frames were
        // replayed above, so advance the epoch past them.
        let cursor = ShipCursor {
            segment: cursor.segment,
            offset: valid,
            epoch: cursor.epoch + (applied - applied_at_cursor),
        };
        Some((db, cursor))
    }

    /// Bootstraps local state from the leader's newest verified
    /// snapshot: base copy → empty mirror → cursor (the commit point) →
    /// retire stale local segments.
    fn bootstrap(
        io: &Arc<I>,
        leader: &Path,
        local: &Path,
    ) -> Result<(Database, ShipCursor), ReplicaError> {
        let mut span = loosedb_obs::span!("engine.replica.bootstrap");
        let (generation, image) = match Manifest::read_from(&**io, leader) {
            Some(m) => {
                let verified = io.read(&leader.join(snap_name(m.generation))).ok().filter(|data| {
                    data.len() as u64 == m.snapshot_len && crc32(data) == m.snapshot_crc
                });
                match verified {
                    Some(data) => (m.generation, data),
                    // The manifest's snapshot fails verification: fall
                    // back to the newest snapshot that decodes at all.
                    None => Self::newest_decodable_snapshot(io, leader).ok_or_else(|| {
                        ReplicaError::Bootstrap(
                            "no verifiable snapshot in the leader directory".into(),
                        )
                    })?,
                }
            }
            // A leader writes its first manifest at its first checkpoint:
            // a missing manifest is a fresh generation-0 leader.
            None if !io.exists(&leader.join(MANIFEST_NAME)) => {
                (0, persist::encode(&Database::new()).to_vec())
            }
            None => return Err(ReplicaError::Ship(ShipError::NoManifest)),
        };
        let db = persist::decode(&image[..]).map_err(|e| {
            ReplicaError::Bootstrap(format!("leader snapshot does not decode: {e}"))
        })?;
        atomic_write_with(&**io, &local.join(base_name(generation)), &image)?;
        let mirror = local.join(mirror_name(generation));
        io.write(&mirror, &[])?;
        io.fsync(&mirror)?;
        let cursor = ShipCursor::start_of(generation, 0);
        atomic_write_with(&**io, &local.join(CURSOR_NAME), &cursor.encode())?;
        Self::retire_local(io, local, generation)?;
        span.record("segment", generation);
        Ok((db, cursor))
    }

    /// The newest snapshot in the leader directory that decodes,
    /// regardless of what the manifest says.
    fn newest_decodable_snapshot(io: &Arc<I>, leader: &Path) -> Option<(u64, Vec<u8>)> {
        let mut generations: Vec<u64> = io
            .list(leader)
            .ok()?
            .into_iter()
            .filter_map(|p| parse_generation(p.file_name()?.to_str()?, "snap-", ".lsdf"))
            .collect();
        generations.sort_unstable_by(|a, b| b.cmp(a));
        for generation in generations {
            if let Ok(data) = io.read(&leader.join(snap_name(generation))) {
                if persist::decode(&data[..]).is_ok() {
                    return Some((generation, data));
                }
            }
        }
        None
    }

    /// Replaces the whole replica state from a fresh leader bootstrap.
    /// The wholesale writer swap publishes a `Full` delta, so session
    /// caches invalidate correctly; the shared epoch keeps increasing.
    fn rebootstrap(&mut self, metrics: &Metrics) -> Result<(), ReplicaError> {
        let (db, cursor) = Self::bootstrap(&self.io, &self.leader_dir, &self.local_dir)?;
        self.shared.write(|writer| *writer = db)?;
        self.stream.seek(cursor);
        self.info.bootstraps += 1;
        metrics.repl_bootstraps.inc();
        Ok(())
    }

    /// Local checkpoint at a rotation boundary: write the new segment's
    /// base image, an empty mirror, the advanced cursor (the commit
    /// point), then retire the previous segment's files.
    ///
    /// The base is the replica's own re-encode — O(image) but cheap to
    /// produce and cache-preserving. When the rotation lands on the
    /// leader's *live* generation, the manifest carries the snapshot CRC
    /// for exactly this boundary: on any mismatch (a rule/kind/config
    /// change, which never ships through the WAL — or silent divergence)
    /// the replica adopts the leader's verified snapshot instead.
    fn rotate_local(&mut self, metrics: &Metrics) -> Result<(), ReplicaError> {
        let cursor = self.stream.cursor();
        let segment = cursor.segment;
        let mut image = self.shared.read_writer(|db| persist::encode(db).to_vec());
        if let Some(m) = Manifest::read_from(&*self.io, &self.leader_dir) {
            let matches_leader =
                m.snapshot_len == image.len() as u64 && m.snapshot_crc == crc32(&image);
            if m.generation == segment && !matches_leader {
                let leader_snap = io_read_verified(&*self.io, &self.leader_dir, &m);
                if let Some(data) = leader_snap {
                    let db = persist::decode(&data[..]).map_err(|e| {
                        ReplicaError::Bootstrap(format!("leader snapshot does not decode: {e}"))
                    })?;
                    self.shared.write(|writer| *writer = db)?;
                    metrics.repl_bootstraps.inc();
                    self.info.bootstraps += 1;
                    image = data;
                }
                // An unverifiable leader snapshot mid-rotation: keep our
                // own image; real divergence resurfaces as CorruptFrame
                // on the next poll and re-bootstraps then.
            }
        }
        atomic_write_with(&*self.io, &self.local_dir.join(base_name(segment)), &image)?;
        let mirror = self.local_dir.join(mirror_name(segment));
        self.io.write(&mirror, &[])?;
        self.io.fsync(&mirror)?;
        self.write_cursor(cursor)?;
        Self::retire_local(&self.io, &self.local_dir, segment)?;
        Ok(())
    }

    /// Removes every local base/mirror not belonging to `keep`.
    fn retire_local(io: &Arc<I>, local: &Path, keep: u64) -> Result<(), ReplicaError> {
        for path in io.list(local).unwrap_or_default() {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let stale = parse_generation(name, "base-", ".lsdf").is_some_and(|g| g != keep)
                || parse_generation(name, "mirror-", ".log").is_some_and(|g| g != keep);
            if stale {
                io.remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Atomically replaces the cursor file.
    fn write_cursor(&self, cursor: ShipCursor) -> Result<(), ReplicaError> {
        atomic_write_with(&*self.io, &self.local_dir.join(CURSOR_NAME), &cursor.encode())?;
        Ok(())
    }
}

/// Applies shipped operations through the incremental paths, so both
/// inserts and removals publish precise deltas and follower caches carry
/// entries whose relationships the shipped batch never touched.
fn apply_shipped(db: &mut Database, ops: &[LogOp]) -> Result<(), ClosureError> {
    for op in ops {
        match op {
            LogOp::Insert(s, r, t) => {
                db.add_incremental(s.clone(), r.clone(), t.clone())?;
            }
            LogOp::Remove(s, r, t) => {
                let fact =
                    Fact::new(db.entity(s.clone()), db.entity(r.clone()), db.entity(t.clone()));
                db.remove_incremental(&fact)?;
            }
        }
    }
    Ok(())
}

/// Applies one mirrored operation without incremental closure
/// maintenance — recovery replays the whole mirror and builds the
/// closure once, when the [`SharedDatabase`] is constructed.
fn replay_raw(db: &mut Database, op: &LogOp) {
    match op {
        LogOp::Insert(s, r, t) => {
            db.add(s.clone(), r.clone(), t.clone());
        }
        LogOp::Remove(s, r, t) => {
            let fact = Fact::new(db.entity(s.clone()), db.entity(r.clone()), db.entity(t.clone()));
            db.remove(&fact);
        }
    }
}

/// Reads the manifest's snapshot and verifies its length and CRC.
fn io_read_verified(io: &dyn StorageIo, leader: &Path, m: &Manifest) -> Option<Vec<u8>> {
    io.read(&leader.join(snap_name(m.generation)))
        .ok()
        .filter(|data| data.len() as u64 == m.snapshot_len && crc32(data) == m.snapshot_crc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::DeltaSummary;
    use loosedb_store::io::MemIo;
    use loosedb_store::ship::wal_name;
    use loosedb_store::FactStore;
    use std::collections::BTreeSet;

    fn opts() -> ReplicaOptions {
        ReplicaOptions { batch_ops: 4, max_retries: 2, retry_backoff: Duration::ZERO }
    }

    fn leader_on(mem: &Arc<MemIo>) -> DurableDatabase<Arc<MemIo>> {
        DurableDatabase::open_with(Arc::clone(mem), "/leader", SyncPolicy::Always).unwrap()
    }

    fn replica_on(mem: &Arc<MemIo>) -> Replica<Arc<MemIo>> {
        Replica::open_with(Arc::clone(mem), "/leader", "/replica", opts()).unwrap()
    }

    /// The base-fact state as a canonical set of rendered triples —
    /// id-independent, so a re-bootstrapped replica (fresh interning)
    /// compares equal to the leader.
    fn rendered(store: &FactStore) -> BTreeSet<String> {
        store
            .iter()
            .map(|f| format!("{} {} {}", store.value(f.s), store.value(f.r), store.value(f.t)))
            .collect()
    }

    fn replica_state(replica: &Replica<Arc<MemIo>>) -> BTreeSet<String> {
        rendered(replica.shared().snapshot().store())
    }

    fn leader_state(leader: &DurableDatabase<Arc<MemIo>>) -> BTreeSet<String> {
        rendered(leader.database_ref().store())
    }

    #[test]
    fn follower_tails_a_fresh_leader_from_generation_zero() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        let mut replica = replica_on(&mem);
        assert_eq!(replica.info().bootstraps, 1);
        leader.add("JOHN", "LIKES", "FELIX").unwrap();
        leader.add("JOHN", "EARNS", 25000i64).unwrap();
        assert_eq!(replica.catch_up().unwrap(), 2);
        assert_eq!(replica_state(&replica), leader_state(&leader));
        assert!(replica.poll().unwrap().caught_up);
        assert_eq!(replica.cursor().epoch, 2);
    }

    #[test]
    fn follower_tails_a_journaled_shared_leader() {
        // The journal hooked onto a shared writer appends each write's
        // frames in one append; the follower's frame stream reads them,
        // and the hook's checkpoint rotation, like any other leader's.
        let mem = Arc::new(MemIo::new());
        let io: Box<dyn StorageIo> = Box::new(Arc::clone(&mem));
        let (db, journal) =
            DurableDatabase::open_with(io, "/leader", SyncPolicy::Always).unwrap().into_parts();
        let leader = SharedDatabase::journaled(db, journal).unwrap();
        let mut replica = replica_on(&mem);
        leader
            .commit(false, |db| {
                for (s, t) in [("JOHN", "FELIX"), ("MARY", "FELIX"), ("SUE", "TOM")] {
                    db.add_incremental(s, "LIKES", t)?;
                }
                Ok(())
            })
            .unwrap();
        let sue = leader.read_writer(|db| db.lookup_symbol("SUE").unwrap());
        let likes = leader.read_writer(|db| db.lookup_symbol("LIKES").unwrap());
        let tom = leader.read_writer(|db| db.lookup_symbol("TOM").unwrap());
        assert!(leader.remove(&Fact::new(sue, likes, tom)).unwrap());
        assert_eq!(replica.catch_up().unwrap(), 4);
        let leader_state = || leader.read_writer(|db| rendered(db.store()));
        assert_eq!(replica_state(&replica), leader_state());

        assert_eq!(leader.checkpoint().unwrap(), Some(1));
        leader.insert("TOM", "LIKES", "JAZZ").unwrap();
        replica.catch_up().unwrap();
        assert_eq!(replica_state(&replica), leader_state());
    }

    #[test]
    fn follower_publishes_precise_deltas_for_shipped_inserts() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        let mut replica = replica_on(&mem);
        let floor = replica.shared().epoch();
        leader.add("A", "R1", "B").unwrap();
        leader.add("C", "R2", "D").unwrap();
        replica.catch_up().unwrap();
        let to = replica.shared().epoch();
        assert!(to > floor);
        // Replay went through the incremental path: the whole span is
        // precise, so follower session caches carry across polls.
        match replica.shared().delta_between(floor, to) {
            DeltaSummary::Precise(rels) => assert!(!rels.is_empty()),
            other => panic!("expected Precise, got {other:?}"),
        }
    }

    #[test]
    fn follower_rotates_through_a_checkpoint_with_retained_wal() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        leader.set_retain_wals(1);
        let mut replica = replica_on(&mem);
        leader.add("A", "R", "B").unwrap();
        leader.checkpoint().unwrap();
        leader.add("C", "R", "D").unwrap();
        replica.catch_up().unwrap();
        assert_eq!(replica_state(&replica), leader_state(&leader));
        // The retained WAL let the follower walk through the rotation
        // without a snapshot re-bootstrap.
        assert_eq!(replica.info().bootstraps, 1);
        assert_eq!(replica.cursor().segment, 1);
        // Local state rotated too: only the new segment's files remain.
        let names: Vec<String> = mem
            .list(Path::new("/replica"))
            .unwrap()
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert!(names.contains(&base_name(1)), "{names:?}");
        assert!(names.contains(&mirror_name(1)), "{names:?}");
        assert!(!names.contains(&base_name(0)), "{names:?}");
    }

    #[test]
    fn retired_segment_forces_a_rebootstrap() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem); // retain_wals = 0: immediate retirement
        let mut replica = replica_on(&mem);
        leader.add("A", "R", "B").unwrap();
        replica.catch_up().unwrap();
        leader.add("C", "R", "D").unwrap();
        leader.checkpoint().unwrap(); // wal-0 gone, follower cursor points into it
        leader.add("E", "R", "F").unwrap();
        let epoch_before = replica.shared().epoch();
        replica.catch_up().unwrap();
        assert_eq!(replica_state(&replica), leader_state(&leader));
        assert!(replica.info().bootstraps >= 2, "{:?}", replica.info());
        // Epochs keep increasing through the wholesale swap, and the
        // span across it reports FullAt — session caches invalidate.
        let to = replica.shared().epoch();
        assert!(to > epoch_before);
        assert!(matches!(
            replica.shared().delta_between(epoch_before, to),
            DeltaSummary::FullAt(_)
        ));
    }

    #[test]
    fn corrupt_frame_heals_by_rebootstrap_and_bit_rot_errors_out() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        let mut replica = replica_on(&mem);
        leader.add("A", "R", "B").unwrap();
        replica.catch_up().unwrap();
        leader.add("C", "R", "D").unwrap();
        leader.add("E", "R", "F").unwrap();
        // Flip a bit in the last frame, past the follower's cursor.
        let wal = Path::new("/leader").join(wal_name(0));
        let mut data = mem.read(&wal).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        mem.write(&wal, &data).unwrap();

        // The damage sits in the live segment's tail frame: the follower
        // retries, re-bootstraps (generation 0 has no snapshot, so the
        // bootstrap replays the same damaged WAL prefix), and finally
        // surfaces the recurring damage instead of looping.
        let report = replica.poll().unwrap(); // intact prefix before the damage
        assert_eq!(report.ops_applied, 1);
        let err = replica.catch_up().unwrap_err();
        assert!(matches!(err, ReplicaError::Ship(ShipError::CorruptFrame { .. })), "{err}");
        let rejected = replica.shared().metrics_snapshot().repl.frames_rejected;
        assert!(rejected > 0, "{rejected}");

        // The leader repairs the file (re-fetch semantics): the follower
        // resumes and converges without manual intervention.
        let mut fixed = mem.read(&wal).unwrap();
        fixed[last] ^= 0xFF;
        mem.write(&wal, &fixed).unwrap();
        replica.catch_up().unwrap();
        assert_eq!(replica_state(&replica), leader_state(&leader));
    }

    #[test]
    fn crash_mid_replay_resumes_from_the_mirror() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        {
            let mut replica = replica_on(&mem);
            leader.add("A", "R", "B").unwrap();
            leader.add("C", "R", "D").unwrap();
            replica.catch_up().unwrap();
        }
        // Power loss drops unsynced bytes; the mirror and cursor were
        // fsynced, so the reopened replica resumes instead of
        // re-bootstrapping, with its logical clock intact.
        mem.crash();
        leader.add("E", "R", "F").unwrap();
        let mut replica = replica_on(&mem);
        assert!(replica.info().resumed, "{:?}", replica.info());
        assert_eq!(replica.info().mirror_ops_replayed, 2);
        assert_eq!(replica.cursor().epoch, 2);
        replica.catch_up().unwrap();
        assert_eq!(replica.cursor().epoch, 3);
        assert_eq!(replica_state(&replica), leader_state(&leader));
    }

    #[test]
    fn promotion_creates_a_writable_journal_past_the_consumed_segment() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        let mut replica = replica_on(&mem);
        leader.add("A", "R", "B").unwrap();
        replica.catch_up().unwrap();
        let expected = replica_state(&replica);
        // Leader dies; the follower takes over in a fresh directory.
        drop(leader);
        let mut promoted = replica.promote("/promoted", SyncPolicy::Always).unwrap();
        assert_eq!(promoted.generation(), 1);
        assert_eq!(rendered(promoted.database_ref().store()), expected);
        promoted.add("C", "R", "D").unwrap();
        // The promoted journal recovers like any durable database.
        drop(promoted);
        let reopened =
            DurableDatabase::open_with(Arc::clone(&mem), "/promoted", SyncPolicy::Always).unwrap();
        assert_eq!(rendered(reopened.database_ref().store()).len(), 2);
    }

    #[test]
    fn removals_ship_and_converge() {
        let mem = Arc::new(MemIo::new());
        let mut leader = leader_on(&mem);
        let mut replica = replica_on(&mem);
        let fact = leader.add("JOHN", "isa", "EMPLOYEE").unwrap();
        leader.add("EMPLOYEE", "gen", "PERSON").unwrap();
        replica.catch_up().unwrap();
        leader.remove(&fact).unwrap();
        replica.catch_up().unwrap();
        assert_eq!(replica_state(&replica), leader_state(&leader));
        assert_eq!(replica_state(&replica).len(), 1);
    }
}
