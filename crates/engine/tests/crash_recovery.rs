//! Fault-injected crash-recovery suite.
//!
//! Runs a deterministic workload of 220 fact operations (with a
//! checkpoint in the middle) against a journaled writer whose I/O layer
//! is crashed at *every* mutating I/O point in turn, then reopens the
//! surviving files and asserts the recovered database is a
//! *prefix-consistent* image of the workload. Both journaled writers are
//! swept through one driver: a [`DurableDatabase`], and a
//! [`SharedDatabase`] with the journal as a hook on its writer.
//!
//!
//! * the recovered base facts equal the state after some prefix of the
//!   operations — never a torn mixture;
//! * under [`SyncPolicy::Always`] that prefix is exactly the operations
//!   the database acknowledged before the crash;
//! * under [`SyncPolicy::EveryN`] at most the unsynced window is lost;
//! * under [`SyncPolicy::OnCheckpoint`] nothing acknowledged before the
//!   last successful checkpoint is lost.
//!
//! The crash model is pessimistic about data (bytes appended since the
//! last fsync are dropped — see [`MemIo::crash`]) and the failing
//! write itself lands only half its payload (see [`FaultIo`]).

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use loosedb_engine::{Database, DurableDatabase, DurableError, SharedDatabase, SyncPolicy};
use loosedb_store::io::{FaultIo, MemIo, StorageIo};
use loosedb_store::{EntityValue, Fact};

/// One workload operation, self-describing like a WAL record.
#[derive(Clone, Debug)]
enum Op {
    Insert(EntityValue, EntityValue, EntityValue),
    Remove(EntityValue, EntityValue, EntityValue),
}

const TOTAL_OPS: usize = 220;
const CHECKPOINT_AT: usize = 110;

/// A deterministic 220-op workload over a small entity space: inserts of
/// symbols, ints and floats, with removals (some of them no-ops) mixed
/// in. A simple LCG keeps it reproducible without external crates.
fn workload() -> Vec<Op> {
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut step = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as u32
    };
    let value = |sel: u32, n: u32| -> EntityValue {
        match sel % 3 {
            0 => EntityValue::symbol(format!("T{}", n % 12)),
            1 => EntityValue::Int((n % 40) as i64),
            _ => EntityValue::float((n % 7) as f64 + 0.5),
        }
    };
    let mut inserted: Vec<(EntityValue, EntityValue, EntityValue)> = Vec::new();
    let mut ops = Vec::with_capacity(TOTAL_OPS);
    for i in 0..TOTAL_OPS {
        let roll = step();
        if i % 6 == 4 && !inserted.is_empty() {
            // Remove an existing fact (possibly one already removed —
            // exercising the not-present path too).
            let (s, r, t) = inserted[(roll as usize) % inserted.len()].clone();
            ops.push(Op::Remove(s, r, t));
        } else {
            let s = EntityValue::symbol(format!("E{}", step() % 25));
            let r = EntityValue::symbol(format!("R{}", step() % 8));
            let t = value(step(), step());
            inserted.push((s.clone(), r.clone(), t.clone()));
            ops.push(Op::Insert(s, r, t));
        }
    }
    ops
}

/// The base-fact state after a prefix of the workload, as a canonical
/// set of rendered facts.
type State = std::collections::BTreeSet<String>;

fn state_of(db: &Database) -> State {
    db.store().iter().map(|f| db.display_fact(&f)).collect()
}

/// Oracle: `states[j]` is the in-memory state after the first `j` ops.
fn oracle_states(ops: &[Op]) -> Vec<State> {
    let mut db = Database::new();
    let mut states = vec![state_of(&db)];
    for op in ops {
        apply_in_memory(&mut db, op);
        states.push(state_of(&db));
    }
    states
}

fn apply_in_memory(db: &mut Database, op: &Op) {
    match op {
        Op::Insert(s, r, t) => {
            db.add(s.clone(), r.clone(), t.clone());
        }
        Op::Remove(s, r, t) => {
            let f = loosedb_store::Fact::new(
                db.entity(s.clone()),
                db.entity(r.clone()),
                db.entity(t.clone()),
            );
            db.remove(&f);
        }
    }
}

/// A journaled writer the sweep drives. Every method's error is the
/// injected crash.
trait Subject: Sized {
    /// Opens (recovering) the journal directory through `io`.
    fn open(io: Box<dyn StorageIo>, policy: SyncPolicy) -> io::Result<Self>;
    /// Applies one workload operation; `Ok` is its acknowledgement.
    fn apply(&mut self, op: &Op) -> Result<(), String>;
    /// Snapshots into a new generation.
    fn checkpoint(&mut self) -> Result<(), String>;
}

impl Subject for DurableDatabase<Box<dyn StorageIo>> {
    fn open(io: Box<dyn StorageIo>, policy: SyncPolicy) -> io::Result<Self> {
        DurableDatabase::open_with(io, PathBuf::from("/db"), policy)
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        let done = match op {
            Op::Insert(s, r, t) => self.add(s.clone(), r.clone(), t.clone()).map(drop),
            Op::Remove(s, r, t) => {
                let inner = self.database();
                let f = Fact::new(
                    inner.entity(s.clone()),
                    inner.entity(r.clone()),
                    inner.entity(t.clone()),
                );
                self.remove(&f).map(drop)
            }
        };
        done.map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        DurableDatabase::checkpoint(self).map(drop).map_err(|e| e.to_string())
    }
}

impl Subject for SharedDatabase {
    fn open(io: Box<dyn StorageIo>, policy: SyncPolicy) -> io::Result<Self> {
        let (db, journal) =
            DurableDatabase::open_with(io, PathBuf::from("/db"), policy)?.into_parts();
        SharedDatabase::journaled(db, journal).map_err(io::Error::other)
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        let done = match op {
            Op::Insert(s, r, t) => self
                .commit(false, |db| Ok(db.add_incremental(s.clone(), r.clone(), t.clone())?))
                .map(drop),
            Op::Remove(s, r, t) => self
                .commit(false, |db| {
                    let f =
                        Fact::new(db.entity(s.clone()), db.entity(r.clone()), db.entity(t.clone()));
                    Ok(db.remove_incremental(&f)?)
                })
                .map(drop),
        };
        done.map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        SharedDatabase::checkpoint(self).map(drop).map_err(|e| e.to_string())
    }
}

/// Drives the workload through a subject until the first I/O error (the
/// injected crash). Returns `(acked_ops,
/// ops_acked_at_last_successful_checkpoint)`.
fn drive(db: &mut impl Subject, ops: &[Op]) -> (usize, usize) {
    let mut acked = 0;
    let mut checkpointed = 0;
    for (i, op) in ops.iter().enumerate() {
        if i == CHECKPOINT_AT {
            if db.checkpoint().is_err() {
                return (acked, checkpointed);
            }
            checkpointed = acked;
        }
        if db.apply(op).is_err() {
            return (acked, checkpointed);
        }
        acked = i + 1;
    }
    (acked, checkpointed)
}

/// A fault-injecting layer over `mem` that fails from its `limit`-th
/// mutating op, and the same layer boxed for a subject to own.
fn faulty(mem: &Arc<MemIo>, limit: usize) -> (Arc<FaultIo<Arc<MemIo>>>, Box<dyn StorageIo>) {
    let faulty = Arc::new(FaultIo::new(Arc::clone(mem), limit));
    let boxed: Box<dyn StorageIo> = Box::new(Arc::clone(&faulty));
    (faulty, boxed)
}

/// Counts the mutating I/O ops of a fault-free run of the workload.
fn io_ops_of_full_run<S: Subject>(policy: SyncPolicy, ops: &[Op]) -> usize {
    let (faulty, io) = faulty(&Arc::new(MemIo::new()), usize::MAX);
    let mut db = S::open(io, policy).unwrap();
    let (acked, _) = drive(&mut db, ops);
    assert_eq!(acked, ops.len(), "fault-free run must complete");
    faulty.ops_used()
}

/// One crash point's outcome, handed to the policy-specific check.
struct Outcome {
    crash_at: usize,
    acked: usize,
    checkpointed: usize,
    recovered: State,
}

/// The sweep: crash at every mutating I/O point of the workload, recover
/// from the surviving bytes, and run `check` on each outcome. The sweep
/// itself asserts universal properties: the recovered state is *some*
/// oracle prefix (never a torn mixture) and nothing checkpointed is lost.
fn sweep<S: Subject>(policy: SyncPolicy, mut check: impl FnMut(&Outcome, &[State])) {
    let ops = workload();
    let states = oracle_states(&ops);
    let total_io = io_ops_of_full_run::<S>(policy, &ops);
    assert!(total_io > ops.len(), "every op must hit the journal");

    for crash_at in 0..total_io {
        let mem = Arc::new(MemIo::new());
        let (_, io) = faulty(&mem, crash_at);
        let (acked, checkpointed) = match S::open(io, policy) {
            Ok(mut db) => drive(&mut db, &ops),
            // Crash during the very first open (directory creation).
            Err(_) => (0, 0),
        };
        assert!(acked < ops.len(), "crash point {crash_at} did not crash");

        // Power loss: unsynced bytes vanish. Then recover.
        mem.crash();
        let db = DurableDatabase::open_with(mem, PathBuf::from("/db"), policy)
            .unwrap_or_else(|e| panic!("reopen after crash at {crash_at}: {e}"));
        let recovered = state_of(db.database_ref());

        // Prefix consistency: the recovered state IS some oracle prefix
        // (policy-specific checks then pin *which* prefixes are legal).
        assert!(
            states.contains(&recovered),
            "crash at {crash_at}: recovered state is not a workload prefix"
        );
        check(&Outcome { crash_at, acked, checkpointed, recovered }, &states);
    }
}

/// True if `recovered` matches the oracle state of some prefix length in
/// `lo..=hi` (states can repeat across prefixes, e.g. around no-op
/// removals, so membership is checked over the whole window).
fn matches_window(states: &[State], recovered: &State, lo: usize, hi: usize) -> bool {
    states[lo..=hi.min(states.len() - 1)].iter().any(|s| s == recovered)
}

fn always_recovers_exactly_the_acked_prefix<S: Subject>() {
    sweep::<S>(SyncPolicy::Always, |o, states| {
        // Every acknowledged op was fsynced, and the torn/unsynced tail
        // holds only unacknowledged work: exactness, not a lower bound.
        assert_eq!(
            o.recovered, states[o.acked],
            "crash at {}: recovered state != state after {} acked ops",
            o.crash_at, o.acked
        );
    });
}

fn every_n_loses_at_most_the_unsynced_window<S: Subject>() {
    const N: usize = 3;
    let mut lost_something = false;
    sweep::<S>(SyncPolicy::EveryN(N as u32), |o, states| {
        assert!(
            matches_window(states, &o.recovered, o.acked.saturating_sub(N), o.acked),
            "crash at {}: recovered state lost more than {N} of {} acked ops",
            o.crash_at,
            o.acked
        );
        lost_something |= o.recovered != states[o.acked];
    });
    // The relaxed policy must actually be observed losing acked ops in
    // this sweep — otherwise the window assertion above tests nothing.
    assert!(lost_something, "EveryN sweep never exercised a lossy crash");
}

fn on_checkpoint_never_loses_checkpointed_ops<S: Subject>() {
    let mut lost_something = false;
    sweep::<S>(SyncPolicy::OnCheckpoint, |o, states| {
        assert!(
            matches_window(states, &o.recovered, o.checkpointed, o.acked),
            "crash at {}: recovered state outside [checkpointed {}, acked {}]",
            o.crash_at,
            o.checkpointed,
            o.acked
        );
        lost_something |= o.recovered != states[o.acked];
    });
    assert!(lost_something, "OnCheckpoint sweep never exercised a lossy crash");
}

/// The sweep's three policy checks for one subject.
macro_rules! sweep_tests {
    ($subject:ty) => {
        #[test]
        fn sync_always_recovers_exactly_the_acked_prefix() {
            always_recovers_exactly_the_acked_prefix::<$subject>();
        }

        #[test]
        fn sync_every_n_loses_at_most_the_unsynced_window() {
            every_n_loses_at_most_the_unsynced_window::<$subject>();
        }

        #[test]
        fn sync_on_checkpoint_never_loses_checkpointed_ops() {
            on_checkpoint_never_loses_checkpointed_ops::<$subject>();
        }
    };
}

sweep_tests!(DurableDatabase<Box<dyn StorageIo>>);

/// The same sweep with the journal as a hook on a shared writer.
mod shared {
    use super::*;

    sweep_tests!(SharedDatabase);
}

/// A transient append failure on the shared writer: the write is rolled
/// back — nothing published, nothing visible, the torn frame cut off the
/// WAL — and the next write succeeds and survives a power cut.
#[test]
fn failed_append_leaves_the_shared_writer_as_it_was() {
    let mem = Arc::new(MemIo::new());
    // Opening creates the directory; the first insert appends and
    // fsyncs. The fourth I/O op, the second insert's append, fails.
    let (faulty, io) = faulty(&mem, 3);
    let shared = <SharedDatabase as Subject>::open(io, SyncPolicy::Always).unwrap();
    shared.insert("A", "R", "B").unwrap();
    let before = shared.snapshot();

    let refused = shared.insert("GHOST", "R", "NOWHERE");
    assert!(matches!(refused, Err(DurableError::Io(_))), "{refused:?}");
    assert!(Arc::ptr_eq(&before, &shared.snapshot()), "a generation was published");
    assert_eq!(shared.epoch(), before.epoch());
    assert!(shared.read_writer(|db| db.lookup_symbol("GHOST").is_none()), "writer kept the write");

    faulty.heal();
    shared.insert("C", "R", "D").unwrap();
    assert_eq!(shared.epoch(), before.epoch() + 1);
    assert!(shared.snapshot().lookup_symbol("GHOST").is_none());
    drop(shared);

    mem.crash();
    let db = DurableDatabase::open_with(mem, PathBuf::from("/db"), SyncPolicy::Always).unwrap();
    assert_eq!(db.generation(), 0, "no checkpoint ran");
    assert!(!db.recovery().wal_tail_truncated, "the torn frame was left on the WAL");
    assert_eq!(
        state_of(db.database_ref()),
        ["(A, R, B)", "(C, R, D)"].into_iter().map(String::from).collect::<State>()
    );
}
