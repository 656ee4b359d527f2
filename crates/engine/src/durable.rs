//! Crash-safe database journaling: a [`Journal`] owns a write-ahead log,
//! snapshot generations and a checksummed manifest, so the paper's
//! "dynamic set of facts" (§6.1) survives process crashes and torn
//! writes. [`DurableDatabase`] is a [`Database`] plus its journal;
//! [`crate::SharedDatabase`] takes the same journal as a hook on its
//! single writer.
//!
//! # On-disk layout
//!
//! A journal owns a directory:
//!
//! ```text
//! <dir>/MANIFEST                 checksummed pointer to the live generation
//! <dir>/snap-<gen 16 digits>.lsdf  full image (facts, rules, kinds, config)
//! <dir>/wal-<gen 16 digits>.log    checksummed operation frames since it
//! ```
//!
//! The manifest records the live generation number plus the byte length
//! and CRC32 of its snapshot, and carries its own trailing CRC32; it is
//! replaced atomically (temp + fsync + rename), making the manifest write
//! the *commit point* of a checkpoint. Recovery
//! ([`DurableDatabase::open_with`]) reads the manifest, loads the
//! snapshot it vouches for, then replays the generation's WAL frame by
//! frame, stopping at the first torn or corrupt record and truncating the
//! damaged tail. If the manifest itself is damaged or stale, recovery
//! falls back to the newest snapshot that decodes, and to an empty
//! database below that.
//!
//! # What is and is not journaled
//!
//! WAL records cover base-fact insertions and removals. Rules, kind
//! declarations and configuration changes are captured by the *snapshot*
//! at the next checkpoint, not by the WAL — make them before writing
//! facts, or checkpoint after changing them. Facts mentioning derived
//! path entities are applied in memory but never logged (they are
//! store-specific and re-derivable; see [`loosedb_store::FactLog`]).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use loosedb_obs::Metrics;
use loosedb_store::io::{atomic_write_with, crc32, RealIo, StorageIo};
use loosedb_store::log::{self as factlog, FactLog, LogOp};
use loosedb_store::ship::{parse_generation, snap_name, wal_name, Manifest, MANIFEST_NAME};
use loosedb_store::{EntityValue, Fact};

use crate::database::{Database, TransactionError};
use crate::persist;

/// When WAL appends are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append: an acknowledged write is durable.
    Always,
    /// Fsync after every `n` appends: at most `n` acknowledged writes can
    /// be lost to a crash (power loss; OS crash). A plain process crash
    /// loses nothing — the OS still holds the written bytes.
    EveryN(u32),
    /// Never fsync the WAL; only a checkpoint (and
    /// [`DurableDatabase::sync`]) make writes durable.
    OnCheckpoint,
}

/// How a database came back at [`DurableDatabase::open_with`] time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The generation recovered into.
    pub generation: u64,
    /// True if a snapshot was loaded (false: started from empty).
    pub snapshot_loaded: bool,
    /// True if the manifest was missing/damaged and recovery had to scan
    /// for the newest decodable snapshot instead.
    pub used_fallback: bool,
    /// Operations replayed from the WAL tail.
    pub wal_ops_applied: usize,
    /// True if the WAL ended in a torn or corrupt record whose tail was
    /// truncated away.
    pub wal_tail_truncated: bool,
}

/// The write-ahead half of a durable database: the directory, its I/O
/// layer, the live generation, the [`SyncPolicy`] and WAL retention.
///
/// A journal does two things. [`append`](Journal::append) writes all of
/// one write's operation frames in a single append, then fsyncs at most
/// once as the policy asks. [`checkpoint`](Journal::checkpoint) encodes a
/// database into the next snapshot generation and rotates the WAL. A
/// failed append is cut back off the WAL, so a write its caller rolls
/// back never reaches recovery and the next append lands on an intact
/// log.
///
/// The I/O layer is pluggable ([`StorageIo`]) so crash-recovery tests can
/// inject faults at every I/O point.
pub struct Journal<I: StorageIo = RealIo> {
    io: I,
    dir: PathBuf,
    policy: SyncPolicy,
    generation: u64,
    /// Appends since the last fsync (for [`SyncPolicy::EveryN`]).
    unsynced: u32,
    /// Operations appended to the current WAL (recovered + new).
    wal_ops: u64,
    /// Bytes of intact frames in the current WAL: where a failed append
    /// is cut back to.
    wal_len: u64,
    /// A failed append may have left a torn tail past `wal_len` that
    /// could not be cut yet; the next append cuts it first.
    torn: bool,
    /// Retired WAL generations kept for lagging replication followers.
    retain_wals: u64,
    /// The registry of the database this journal was opened with: WAL
    /// appends, fsyncs and checkpoints report where its reads do.
    metrics: Arc<Metrics>,
}

impl<I: StorageIo> Journal<I> {
    /// A journal at `generation` with an empty WAL, reporting to `db`'s
    /// metrics registry.
    fn new(io: I, dir: PathBuf, policy: SyncPolicy, generation: u64, db: &Database) -> Self {
        Journal {
            io,
            dir,
            policy,
            generation,
            unsynced: 0,
            wal_ops: 0,
            wal_len: 0,
            torn: false,
            retain_wals: 0,
            metrics: Arc::clone(db.metrics()),
        }
    }

    /// Appends one write's operations to the WAL — every frame in one
    /// append — then fsyncs at most once, as the [`SyncPolicy`] asks. An
    /// empty log touches nothing.
    ///
    /// On error the WAL is cut back to its length before the call (or,
    /// if that cut fails too, before the next append), so the caller can
    /// roll the write back knowing recovery will never replay it.
    pub fn append(&mut self, log: &FactLog) -> io::Result<()> {
        if log.is_empty() {
            return Ok(());
        }
        let wal = self.wal_path();
        if self.torn && self.io.exists(&wal) {
            self.io.truncate(&wal, self.wal_len)?;
        }
        self.torn = false;
        let frames = log.as_slice();
        let mut span = loosedb_obs::span!("store.wal.append", bytes = frames.len());
        if let Err(e) = self.io.append(&wal, frames) {
            self.cut_back(&wal);
            return Err(e);
        }
        self.metrics.wal_appends.inc();
        self.metrics.wal_append_bytes.add(frames.len() as u64);
        let fsync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                self.unsynced >= n.max(1)
            }
            SyncPolicy::OnCheckpoint => false,
        };
        if fsync {
            if let Err(e) = self.fsync_timed(&wal) {
                self.cut_back(&wal);
                return Err(e);
            }
            span.record("fsynced", true);
            self.unsynced = 0;
        }
        self.wal_len += frames.len() as u64;
        self.wal_ops += log.len() as u64;
        Ok(())
    }

    /// Drops whatever a failed append left past the intact frames.
    fn cut_back(&mut self, wal: &Path) {
        self.torn = self.io.exists(wal) && self.io.truncate(wal, self.wal_len).is_err();
    }

    /// One WAL fsync, with its latency recorded.
    fn fsync_timed(&mut self, wal: &Path) -> io::Result<()> {
        let started = Instant::now();
        let _span = loosedb_obs::span!("store.wal.fsync");
        self.io.fsync(wal)?;
        self.metrics.wal_fsyncs.inc();
        self.metrics.wal_fsync_ns.record_duration(started.elapsed());
        Ok(())
    }

    /// Flushes any unsynced WAL appends to stable storage now.
    fn sync(&mut self) -> io::Result<()> {
        let wal = self.wal_path();
        if self.io.exists(&wal) {
            self.fsync_timed(&wal)?;
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Writes `db` as the next snapshot generation and rotates the WAL.
    ///
    /// Sequence: write `snap-<gen+1>` atomically → create its empty WAL →
    /// atomically replace the manifest (the commit point) → retire the
    /// previous generation's files. A crash *before* the manifest write
    /// recovers from the old generation (whose WAL still holds every
    /// operation); a crash *after* it recovers from the new one. `db` must
    /// hold every operation this journal appended. Returns the new
    /// generation number.
    pub fn checkpoint(&mut self, db: &Database) -> io::Result<u64> {
        let started = Instant::now();
        let next = self.generation + 1;
        let _span = loosedb_obs::span!("store.wal.checkpoint", generation = next);
        self.write_generation(db, next)?;

        // The new generation is durable; retire everything older. Stale
        // snapshots always go (only the manifest's one matters); retired
        // WALs within the retention window stay so a lagging follower
        // can finish tailing them instead of re-bootstrapping.
        let wal_floor = next.saturating_sub(self.retain_wals);
        self.generation = next;
        self.unsynced = 0;
        self.wal_ops = 0;
        self.wal_len = 0;
        self.torn = false;
        for path in self.io.list(&self.dir).unwrap_or_default() {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let stale = parse_generation(name, "snap-", ".lsdf").is_some_and(|g| g < next)
                || parse_generation(name, "wal-", ".log").is_some_and(|g| g < wal_floor);
            if stale {
                self.io.remove_file(&path)?;
            }
        }
        self.metrics.checkpoints.inc();
        self.metrics.checkpoint_ns.record_duration(started.elapsed());
        Ok(next)
    }

    /// Writes `snap-<generation>` atomically, creates its empty WAL, then
    /// atomically replaces the manifest — the commit point.
    fn write_generation(&self, db: &Database, generation: u64) -> io::Result<()> {
        let image = persist::encode(db);
        atomic_write_with(&self.io, &self.dir.join(snap_name(generation)), &image)?;
        let wal = self.dir.join(wal_name(generation));
        self.io.write(&wal, &[])?;
        self.io.fsync(&wal)?;
        let manifest =
            Manifest { generation, snapshot_len: image.len() as u64, snapshot_crc: crc32(&image) };
        atomic_write_with(&self.io, &self.dir.join(MANIFEST_NAME), &manifest.encode())
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(wal_name(self.generation))
    }
}

/// A [`Database`] with its [`Journal`]: every fact mutation is appended
/// to the write-ahead log before it is applied, and
/// [`checkpoint`](DurableDatabase::checkpoint) rotates the log into a new
/// atomic snapshot generation.
///
/// Writes keep a warm closure warm — insertions extend it and removals
/// retract it in place — while a cold one (bulk load, WAL replay) stays
/// cold until something reads it. [`DurableDatabase::open`] uses the real
/// filesystem.
pub struct DurableDatabase<I: StorageIo = RealIo> {
    db: Database,
    journal: Journal<I>,
    recovery: RecoveryInfo,
}

impl DurableDatabase<RealIo> {
    /// Opens (creating or recovering) a durable database directory on the
    /// real filesystem.
    pub fn open(dir: impl Into<PathBuf>, policy: SyncPolicy) -> io::Result<Self> {
        Self::open_with(RealIo, dir, policy)
    }
}

impl<I: StorageIo> DurableDatabase<I> {
    /// Opens a durable database through an explicit I/O layer.
    ///
    /// Recovery sequence: read the manifest; load the snapshot generation
    /// it vouches for (falling back to the newest snapshot that decodes,
    /// then to empty); replay the live WAL up to the first damaged frame;
    /// truncate the damaged tail if there is one.
    pub fn open_with(io: I, dir: impl Into<PathBuf>, policy: SyncPolicy) -> io::Result<Self> {
        let dir = dir.into();
        if !io.exists(&dir) {
            io.create_dir_all(&dir)?;
        }
        let mut recovery = RecoveryInfo::default();

        // 1. The snapshot the manifest vouches for.
        let mut db = None;
        let manifest_path = dir.join(MANIFEST_NAME);
        if io.exists(&manifest_path) {
            if let Some(m) = Manifest::decode(&io.read(&manifest_path)?) {
                let snap = dir.join(snap_name(m.generation));
                if let Ok(image) = io.read(&snap) {
                    if image.len() as u64 == m.snapshot_len && crc32(&image) == m.snapshot_crc {
                        if let Ok(decoded) = persist::decode(image.as_slice()) {
                            recovery.generation = m.generation;
                            recovery.snapshot_loaded = true;
                            db = Some(decoded);
                        }
                    }
                }
            }
        }

        // 2. Fallback: the newest snapshot that still decodes.
        if db.is_none() {
            let mut generations: Vec<u64> = io
                .list(&dir)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| p.file_name()?.to_str().map(str::to_owned))
                .filter_map(|name| parse_generation(&name, "snap-", ".lsdf"))
                .collect();
            generations.sort_unstable_by(|a, b| b.cmp(a));
            for generation in generations {
                let Ok(image) = io.read(&dir.join(snap_name(generation))) else { continue };
                if let Ok(decoded) = persist::decode(image.as_slice()) {
                    recovery.generation = generation;
                    recovery.snapshot_loaded = true;
                    recovery.used_fallback = true;
                    db = Some(decoded);
                    break;
                }
            }
        }
        let mut db = db.unwrap_or_default();

        // 3. Replay the live WAL, leniently.
        let wal_path = dir.join(wal_name(recovery.generation));
        let mut wal_len = 0;
        if io.exists(&wal_path) {
            let data = io.read(&wal_path)?;
            let mut frames = factlog::Frames::new(&data);
            for op in &mut frames {
                match op {
                    Ok(op) => {
                        apply_to_db(&mut db, op);
                        recovery.wal_ops_applied += 1;
                    }
                    Err(_) => recovery.wal_tail_truncated = true,
                }
            }
            wal_len = frames.valid_bytes() as u64;
            if recovery.wal_tail_truncated {
                io.truncate(&wal_path, wal_len)?;
            }
        }

        db.metrics().wal_recovered_ops.add(recovery.wal_ops_applied as u64);
        let journal = Journal {
            wal_ops: recovery.wal_ops_applied as u64,
            wal_len,
            ..Journal::new(io, dir, policy, recovery.generation, &db)
        };
        Ok(DurableDatabase { db, journal, recovery })
    }

    /// Creates a durable database directory holding `db` at an explicit
    /// `generation` — no recovery, no journal replay. This is the
    /// promotion hook: a replica that has lost its leader converts its
    /// replayed state into a fresh writable journal with one call.
    ///
    /// Sequence: write `snap-<generation>` atomically → create its empty
    /// WAL → atomically replace the manifest (the commit point), exactly
    /// like a [`DurableDatabase::checkpoint`]. Pre-existing files in the
    /// directory are left alone.
    pub fn create_with(
        io: I,
        dir: impl Into<PathBuf>,
        db: Database,
        generation: u64,
        policy: SyncPolicy,
    ) -> io::Result<Self> {
        let dir = dir.into();
        if !io.exists(&dir) {
            io.create_dir_all(&dir)?;
        }
        let journal = Journal::new(io, dir, policy, generation, &db);
        journal.write_generation(&db, generation)?;
        db.metrics().checkpoints.inc();
        let recovery =
            RecoveryInfo { generation, snapshot_loaded: true, ..RecoveryInfo::default() };
        Ok(DurableDatabase { db, journal, recovery })
    }

    // ------------------------------------------------------------------
    // Journaled mutations
    // ------------------------------------------------------------------

    /// Durably adds a fact: the operation is appended to the WAL (and
    /// flushed according to the [`SyncPolicy`]) *before* it is applied in
    /// memory. On error the in-memory database is unchanged.
    pub fn add(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> io::Result<Fact> {
        let (s, r, t) = (s.into(), r.into(), t.into());
        self.journal_op(&LogOp::Insert(s.clone(), r.clone(), t.clone()))?;
        let fact = Fact::new(self.db.entity(s), self.db.entity(r), self.db.entity(t));
        if self.db.is_warm() {
            // An extension error drops the closure cache and keeps the
            // fact: the store agrees with the WAL, the next read
            // recomputes.
            let _ = self.db.insert_incremental(fact);
        } else {
            self.db.insert(fact);
        }
        Ok(fact)
    }

    /// Durably removes a base fact; `Ok(false)` if it was not present
    /// (nothing is journaled then).
    pub fn remove(&mut self, f: &Fact) -> io::Result<bool> {
        if !self.db.contains_base(f) {
            return Ok(false);
        }
        let store = self.db.store();
        let op = LogOp::Remove(
            store.value(f.s).clone(),
            store.value(f.r).clone(),
            store.value(f.t).clone(),
        );
        self.journal_op(&op)?;
        if self.db.is_warm() {
            // Retraction errors (e.g. unbounded composition mid-rederive)
            // leave the closure cache invalidated; the fact is gone from
            // the store and journaled, so removal still holds — the next
            // refresh recomputes.
            let _ = self.db.remove_incremental(f);
        } else {
            self.db.remove(f);
        }
        Ok(true)
    }

    /// Durable transactional insert: integrity-checked in memory first
    /// (see [`Database::try_add`]), journaled only if it commits. If the
    /// WAL append then fails, the fact is rolled back out of memory and
    /// the I/O error returned — memory never runs ahead of an appendable
    /// journal.
    pub fn try_add(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, DurableError> {
        let (s, r, t) = (s.into(), r.into(), t.into());
        let fact = self.db.try_add(s.clone(), r.clone(), t.clone())?;
        if let Err(e) = self.journal_op(&LogOp::Insert(s, r, t)) {
            let _ = self.db.remove_incremental(&fact);
            return Err(DurableError::Io(e));
        }
        Ok(fact)
    }

    /// Appends one operation to the journal. Facts naming derived path
    /// entities are not journaled (no-op here).
    fn journal_op(&mut self, op: &LogOp) -> io::Result<()> {
        let (LogOp::Insert(s, r, t) | LogOp::Remove(s, r, t)) = op;
        if [s, r, t].iter().any(|v| matches!(v, EntityValue::Path(_))) {
            return Ok(());
        }
        let mut log = FactLog::new();
        log.append(op);
        self.journal.append(&log)
    }

    /// Flushes any unsynced WAL appends to stable storage now.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    /// Writes a new snapshot generation and rotates the WAL (see
    /// [`Journal::checkpoint`]). Returns the new generation number.
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        self.journal.checkpoint(&self.db)
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// The wrapped database (closure, queries, validation…).
    pub fn database(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Read-only access to the wrapped database.
    pub fn database_ref(&self) -> &Database {
        &self.db
    }

    /// Splits into the recovered database and its journal — how a
    /// [`crate::SharedDatabase`] takes both over, without copying either.
    pub fn into_parts(self) -> (Database, Journal<I>) {
        (self.db, self.journal)
    }

    /// The metrics registry (shared with the wrapped database): WAL
    /// appends/fsyncs, checkpoints and recovery counters report here.
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.db.metrics()
    }

    /// How the last [`open`](DurableDatabase::open_with) recovered.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// The live snapshot generation.
    pub fn generation(&self) -> u64 {
        self.journal.generation
    }

    /// Operations sitting in the current WAL (replayed + appended).
    pub fn wal_ops(&self) -> u64 {
        self.journal.wal_ops
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.journal.dir
    }

    /// The underlying I/O layer (fault-injection tests inspect it).
    pub fn io_ref(&self) -> &I {
        &self.journal.io
    }

    /// The current sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.journal.policy
    }

    /// Changes the sync policy for subsequent appends.
    pub fn set_policy(&mut self, policy: SyncPolicy) {
        self.journal.policy = policy;
    }

    /// Keeps the WALs of the last `n` retired generations through future
    /// checkpoints (default 0: retire immediately). A follower tailing
    /// this directory can then finish a rotated segment instead of
    /// re-bootstrapping whenever a checkpoint outruns it.
    pub fn set_retain_wals(&mut self, n: u64) {
        self.journal.retain_wals = n;
    }

    /// Retired WAL generations kept for followers.
    pub fn retain_wals(&self) -> u64 {
        self.journal.retain_wals
    }
}

/// Applies a recovered WAL operation to the in-memory database — the
/// plain path: replay leaves the closure cold for one computation later.
fn apply_to_db(db: &mut Database, op: LogOp) {
    match op {
        LogOp::Insert(s, r, t) => {
            db.add(s, r, t);
        }
        LogOp::Remove(s, r, t) => {
            let f = Fact::new(db.entity(s), db.entity(r), db.entity(t));
            db.remove(&f);
        }
    }
}

/// Errors from a write that can be refused: either it was rejected in
/// memory (integrity or closure), or its journal append failed — and in
/// both cases it was rolled back. [`DurableDatabase::try_add`] and every
/// write through [`crate::SharedDatabase`] return it.
#[derive(Debug)]
pub enum DurableError {
    /// The in-memory transaction was rejected (integrity or closure).
    Transaction(TransactionError),
    /// Appending to the write-ahead log failed; the write was rolled back.
    Io(io::Error),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Transaction(e) => write!(f, "{e}"),
            DurableError::Io(e) => write!(f, "journal append failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<TransactionError> for DurableError {
    fn from(e: TransactionError) -> Self {
        DurableError::Transaction(e)
    }
}

impl From<crate::closure::ClosureError> for DurableError {
    fn from(e: crate::closure::ClosureError) -> Self {
        DurableError::Transaction(TransactionError::Closure(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loosedb_store::io::MemIo;
    use std::sync::Arc;

    fn dir() -> PathBuf {
        PathBuf::from("/durable")
    }

    #[test]
    fn fresh_open_add_reopen() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("JOHN", "EARNS", 25000i64).unwrap();
        db.add("JOHN", "isa", "EMPLOYEE").unwrap();
        let f = db.add("JOHN", "LIKES", "FELIX").unwrap();
        db.remove(&f).unwrap();
        drop(db);

        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert_eq!(db.database_ref().base_len(), 2);
        assert_eq!(db.recovery().wal_ops_applied, 4);
        assert!(!db.recovery().snapshot_loaded);
    }

    #[test]
    fn checkpoint_rotates_and_retires() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("A", "R", "B").unwrap();
        assert_eq!(db.checkpoint().unwrap(), 1);
        assert_eq!(db.wal_ops(), 0);
        db.add("C", "R", "D").unwrap();
        drop(db);

        // Only generation-1 files plus MANIFEST remain.
        let names: Vec<String> = io
            .list(&dir())
            .unwrap()
            .iter()
            .filter_map(|p| p.file_name()?.to_str().map(str::to_owned))
            .collect();
        assert_eq!(
            names,
            vec!["MANIFEST", "snap-0000000000000001.lsdf", "wal-0000000000000001.log"]
        );

        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert_eq!(db.generation(), 1);
        assert!(db.recovery().snapshot_loaded);
        assert!(!db.recovery().used_fallback);
        assert_eq!(db.recovery().wal_ops_applied, 1);
        assert_eq!(db.database_ref().base_len(), 2);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_newest_snapshot() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("A", "R", "B").unwrap();
        db.checkpoint().unwrap();
        db.add("C", "R", "D").unwrap();
        drop(db);

        let manifest = dir().join(MANIFEST_NAME);
        let mut data = io.read(&manifest).unwrap();
        data[9] ^= 0xFF;
        io.write(&manifest, &data).unwrap();

        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert!(db.recovery().used_fallback);
        assert_eq!(db.generation(), 1);
        assert_eq!(db.database_ref().base_len(), 2);
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("A", "R", "B").unwrap();
        db.add("C", "R", "D").unwrap();
        drop(db);

        // Tear the last record in half.
        let wal = dir().join(wal_name(0));
        let data = io.read(&wal).unwrap();
        let torn = data.len() - 5;
        io.truncate(&wal, torn as u64).unwrap();

        let db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        assert_eq!(db.recovery().wal_ops_applied, 1);
        assert!(db.recovery().wal_tail_truncated);
        assert_eq!(db.database_ref().base_len(), 1);
        // The damaged tail is gone: a further reopen sees a clean log.
        drop(db);
        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert!(!db.recovery().wal_tail_truncated);
        assert_eq!(db.recovery().wal_ops_applied, 1);
    }

    #[test]
    fn try_add_journals_commits_and_skips_rejections() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("LOVES", "contra", "HATES").unwrap();
        db.add("JOHN", "LOVES", "MARY").unwrap();
        let err = db.try_add("JOHN", "HATES", "MARY").unwrap_err();
        assert!(matches!(err, DurableError::Transaction(_)));
        db.try_add("JOHN", "LOVES", "FELIX").unwrap();
        drop(db);

        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert_eq!(db.recovery().wal_ops_applied, 3);
        assert_eq!(db.database_ref().base_len(), 3);
        let john = db.database_ref().lookup_symbol("JOHN").unwrap();
        let hates = db.database_ref().lookup_symbol("HATES");
        // HATES exists as an entity (from the contra fact) but no
        // (JOHN, HATES, MARY) fact survived.
        let mary = db.database_ref().lookup_symbol("MARY").unwrap();
        assert!(!db.database_ref().contains_base(&Fact::new(john, hates.unwrap(), mary)));
    }

    #[test]
    fn warm_closure_is_never_recomputed_by_writes() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        // Cold writes (bulk load) take the plain path: nothing computes.
        db.add("EMPLOYEE", "EARNS", "SALARY").unwrap();
        db.add("LIKES", "inv", "LIKED-BY").unwrap();
        assert_eq!(db.metrics().snapshot().closure.computes, 0);

        db.database().closure().unwrap();
        let computes = db.metrics().snapshot().closure.computes;
        let john = db.database().entity("JOHN");
        let earns = db.database().entity("EARNS");
        let salary = db.database().entity("SALARY");
        let earns_salary = Fact::new(john, earns, salary);
        for _ in 0..2 {
            let f = db.add("JOHN", "isa", "EMPLOYEE").unwrap();
            assert!(db.database().closure().unwrap().contains(&earns_salary));
            assert!(db.remove(&f).unwrap());
            assert!(!db.database().closure().unwrap().contains(&earns_salary));
        }
        assert_eq!(db.metrics().snapshot().closure.computes, computes, "a write recomputed");

        // Replay is a bulk load too: reopening computes nothing.
        drop(db);
        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert_eq!(db.recovery().wal_ops_applied, 6);
        assert_eq!(db.metrics().snapshot().closure.computes, 0);
    }

    #[test]
    fn failed_append_is_cut_off_the_wal() {
        use loosedb_store::io::FaultIo;
        // Opening creates the directory and the first add appends and
        // fsyncs: the fourth I/O op, the second add's append, tears half
        // its frame onto the WAL and fails.
        let io = Arc::new(FaultIo::new(MemIo::new(), 3));
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("A", "R", "B").unwrap();
        assert!(db.add("C", "R", "D").is_err());
        io.heal();
        db.add("E", "R", "F").unwrap();
        drop(db);

        // The torn frame was cut, so the write after it replays.
        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert!(!db.recovery().wal_tail_truncated);
        assert_eq!(db.recovery().wal_ops_applied, 2);
        assert!(db.database_ref().lookup_symbol("E").is_some());
    }

    #[test]
    fn path_facts_apply_in_memory_but_skip_the_journal() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        let a = db.database().entity("A");
        db.add(
            EntityValue::Path(vec![a].into()),
            EntityValue::symbol("R"),
            EntityValue::symbol("B"),
        )
        .unwrap();
        assert_eq!(db.database_ref().base_len(), 1);
        assert_eq!(db.wal_ops(), 0);
        drop(db);
        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert_eq!(db.database_ref().base_len(), 0);
    }

    #[test]
    fn every_n_policy_syncs_in_batches() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::EveryN(3)).unwrap();
        for i in 0..7i64 {
            db.add(i, "isa", "N").unwrap();
        }
        // All appended ops are visible on reopen (MemIo writes always
        // land); policy only controls fsync cadence.
        drop(db);
        let db = DurableDatabase::open_with(io, dir(), SyncPolicy::EveryN(3)).unwrap();
        assert_eq!(db.recovery().wal_ops_applied, 7);
    }

    #[test]
    fn retained_wals_survive_checkpoints() {
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.set_retain_wals(1);
        db.add("A", "R", "B").unwrap();
        db.checkpoint().unwrap();
        db.add("C", "R", "D").unwrap();
        db.checkpoint().unwrap();
        drop(db);
        // Stale snapshots are always retired; the retention window keeps
        // exactly the previous generation's WAL for lagging followers.
        let names: Vec<String> = io
            .list(&dir())
            .unwrap()
            .iter()
            .filter_map(|p| p.file_name()?.to_str().map(str::to_owned))
            .collect();
        assert_eq!(
            names,
            vec![
                "MANIFEST",
                "snap-0000000000000002.lsdf",
                "wal-0000000000000001.log",
                "wal-0000000000000002.log"
            ]
        );
    }

    #[test]
    fn create_with_builds_a_ready_directory() {
        let mut inner = Database::new();
        inner.add("JOHN", "isa", "EMPLOYEE");
        let io = Arc::new(MemIo::new());
        let promoted = PathBuf::from("/promoted");
        let db = DurableDatabase::create_with(io.clone(), &*promoted, inner, 5, SyncPolicy::Always)
            .unwrap();
        assert_eq!(db.generation(), 5);
        drop(db);
        let mut db = DurableDatabase::open_with(io, promoted, SyncPolicy::Always).unwrap();
        assert_eq!(db.generation(), 5);
        assert!(db.recovery().snapshot_loaded);
        assert!(!db.recovery().used_fallback);
        assert_eq!(db.database_ref().base_len(), 1);
        // The promoted directory accepts writes and checkpoints.
        db.add("MARY", "isa", "EMPLOYEE").unwrap();
        assert_eq!(db.checkpoint().unwrap(), 6);
    }

    #[test]
    fn checkpoint_preserves_rules_kinds_and_config() {
        use crate::rule::Rule;
        let io = Arc::new(MemIo::new());
        let mut db = DurableDatabase::open_with(io.clone(), dir(), SyncPolicy::Always).unwrap();
        db.add("JOHN", "isa", "EMPLOYEE").unwrap();
        {
            let inner = db.database();
            let mut b = Rule::builder("custom");
            let x = b.var("x");
            let emp = inner.entity("EMPLOYEE");
            let works = inner.entity("WORKS");
            inner
                .add_rule(
                    b.when(x, loosedb_store::special::ISA, emp)
                        .then(x, works, emp)
                        .build()
                        .unwrap(),
                )
                .unwrap();
            let total = inner.entity("TOTAL");
            inner.declare_class(total);
            inner.limit(4);
        }
        db.checkpoint().unwrap();
        db.add("MARY", "isa", "EMPLOYEE").unwrap();
        drop(db);

        let mut db = DurableDatabase::open_with(io, dir(), SyncPolicy::Always).unwrap();
        assert!(db.database_ref().rules().get("custom").is_some());
        let total = db.database_ref().lookup_symbol("TOTAL").unwrap();
        assert!(db.database_ref().kinds().is_class(total));
        assert_eq!(db.database_ref().config().composition_limit, 4);
        // The restored rule still fires, including on post-checkpoint facts.
        let mary = db.database_ref().lookup_symbol("MARY").unwrap();
        let works = db.database_ref().lookup_symbol("WORKS").unwrap();
        let emp = db.database_ref().lookup_symbol("EMPLOYEE").unwrap();
        let closure = db.database().closure().unwrap();
        assert!(closure.contains(&Fact::new(mary, works, emp)));
    }
}
