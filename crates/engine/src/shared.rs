//! Concurrent serving: snapshot-isolated reads over a single-writer
//! database.
//!
//! The paper's browsing model (§4) is interactive neighborhood inspection
//! by many independent sessions; [`crate::Database`] alone is
//! single-threaded by construction because every read refreshes the cached
//! closure through `&mut self`. [`SharedDatabase`] layers a copy-on-write
//! **generation** scheme on top:
//!
//! * Readers call [`SharedDatabase::snapshot`] and receive an
//!   `Arc<`[`Generation`]`>` — an immutable bundle of store, kind
//!   registry, materialized closure (with its incrementally maintained
//!   active domain) and an epoch number. They evaluate navigation,
//!   probing and queries against [`Generation::view`] for as long as they
//!   like, entirely outside any lock.
//! * A single writer (serialized by an internal mutex) applies updates to
//!   the owned [`Database`], maintains the closure incrementally —
//!   [`crate::closure::extend`] for insertions, the retraction wave for
//!   removals — and *publishes* the next generation by swapping an `Arc`
//!   pointer under a `parking_lot` write lock held only for the
//!   assignment. Every write runs [`SharedDatabase::commit`]'s one path:
//!   apply → check → append → publish, where *append* hands the write's
//!   operations to an optional [`Journal`] hook (durable serving) and a
//!   refused write is rolled back before anything is published.
//!
//! Publishing is **O(delta · log N)**, not O(N): the store's triple
//! indexes, the interner and the closure (facts, provenance, domain
//! counts) are all persistent structures ([`loosedb_store::pindex`]), so
//! [`Generation::build`] clones them by bumping reference counts and the
//! writer's next update path-copies only the nodes it touches. E17
//! measures the resulting flat publish latency from 50k to 2M facts.
//!
//! Each publish also records *which relationships* the write delta
//! touched ([`crate::database::PublishDelta`]) in a bounded history ring;
//! [`SharedDatabase::rels_changed_between`] lets session caches carry
//! answers across epochs instead of discarding everything per publish.
//!
//! The result is snapshot isolation: a reader never observes a half-applied
//! update (store and closure travel together in one generation), never
//! blocks a writer, and is never blocked by one — the only shared lock is
//! held for an `Arc` clone (readers) or a pointer store (the writer).
//! Epochs increase by exactly one per published generation, which gives
//! downstream caches a free invalidation key (see the generation-keyed
//! query cache in `loosedb-browse`).

use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use loosedb_obs::{Metrics, MetricsSnapshot};
use loosedb_store::io::StorageIo;
use loosedb_store::{EntityId, EntityValue, Fact, FactStore, Interner};

use crate::closure::{Closure, ClosureError};
use crate::database::{Database, PublishDelta, TransactionError};
use crate::durable::{DurableError, Journal};
use crate::kind::KindRegistry;
use crate::view::ClosureView;

/// Publishes kept in the delta-relationship history ring. Sessions older
/// than this many generations fall back to full cache invalidation.
const DELTA_HISTORY: usize = 64;

/// What [`SharedDatabase::delta_between`] can say about an epoch span
/// `(from, to]`.
///
/// The distinction between the last two variants matters to caches with
/// different correctness needs. A *derived-answer* cache must treat both
/// as "anything may have changed". A *structural* cache (query plans,
/// whose staleness costs performance but never correctness) may carry
/// its entries across [`DeltaSummary::FullAt`] — the span is fully
/// accounted for, one publish just could not enumerate its touched
/// relationships — while [`DeltaSummary::Unknown`] means the span left
/// the bounded history ring entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaSummary {
    /// Exactly these relationships were touched by publishes in the
    /// span; anything disjoint from them is untouched.
    Precise(BTreeSet<EntityId>),
    /// Every publish in the span is still in the ring, but at least one
    /// was a full recomputation (removal, rule/kind/config change); the
    /// earliest such epoch is recorded.
    FullAt(u64),
    /// Part of the span has been evicted from the ring: nothing can be
    /// said about what changed.
    Unknown,
}

/// One immutable published generation: everything a reader needs to
/// evaluate retrieval, frozen at a single point in time.
pub struct Generation {
    epoch: u64,
    store: FactStore,
    kinds: KindRegistry,
    closure: Closure,
    /// The owning database's metrics; views created from this generation
    /// report their selectivity probes here.
    metrics: Arc<Metrics>,
}

impl Generation {
    /// Freezes the writer's current state. O(delta · log N): `refresh`
    /// extends the closure incrementally, and every clone below is a
    /// structural share (reference-count bumps on persistent-tree roots
    /// and interner chunks), not a copy. The active domain travels inside
    /// the closure as incrementally maintained occurrence counts — there
    /// is no per-publish rescan of any kind.
    fn build(epoch: u64, db: &mut Database) -> Result<Self, ClosureError> {
        db.refresh()?;
        let closure = db.closure()?.clone();
        Ok(Generation {
            epoch,
            store: db.store().clone(),
            kinds: db.kinds().clone(),
            closure,
            metrics: Arc::clone(db.metrics()),
        })
    }

    /// The generation number: increases by exactly one per publish, so it
    /// doubles as a cache-invalidation key.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen fact store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// The frozen entity interner.
    pub fn interner(&self) -> &Interner {
        self.store.interner()
    }

    /// The materialized closure of this generation.
    pub fn closure(&self) -> &Closure {
        &self.closure
    }

    /// The kind registry of this generation.
    pub fn kinds(&self) -> &KindRegistry {
        &self.kinds
    }

    /// Looks up an entity in the frozen interner.
    pub fn lookup(&self, value: &EntityValue) -> Option<EntityId> {
        self.store.lookup(value)
    }

    /// Looks up a symbol by name in the frozen interner.
    pub fn lookup_symbol(&self, name: &str) -> Option<EntityId> {
        self.store.lookup_symbol(name)
    }

    /// Renders an entity for display.
    pub fn display(&self, id: EntityId) -> String {
        self.store.display(id)
    }

    /// A retrieval view over this generation. Cheap — the active domain
    /// is maintained incrementally by the closure and only materialized
    /// if a universal quantifier asks for it.
    pub fn view(&self) -> ClosureView<'_> {
        ClosureView::new(&self.closure, self.store.interner(), &self.kinds)
            .with_probe_counter(self.metrics.count_probes.clone())
    }

    /// A retrieval view that resolves entities through `interner` instead
    /// of the generation's own.
    ///
    /// `interner` must be an *extension* of this generation's interner — a
    /// clone that has only had further values appended (interners are
    /// append-only, so every id the closure mentions resolves identically).
    /// This is how a reader session evaluates a query mentioning constants
    /// the frozen snapshot never interned: it parses against a private
    /// extension and the extra ids, being beyond the snapshot's range,
    /// simply match nothing.
    pub fn view_with_interner<'a>(&'a self, interner: &'a Interner) -> ClosureView<'a> {
        debug_assert!(
            interner.len() >= self.interner().len(),
            "interner must extend the generation's interner"
        );
        ClosureView::new(&self.closure, interner, &self.kinds)
            .with_probe_counter(self.metrics.count_probes.clone())
    }

    /// The metrics registry shared with the owning database.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
}

/// A concurrently readable database: immutable `Arc`-shared closure
/// generations published by a single writer.
///
/// ```
/// use loosedb_engine::{Database, SharedDatabase};
/// use loosedb_engine::FactView;
///
/// let mut db = Database::new();
/// db.add("JOHN", "isa", "EMPLOYEE");
/// db.add("EMPLOYEE", "EARNS", "SALARY");
/// let shared = SharedDatabase::new(db).unwrap();
///
/// // Readers hold generations; writers publish new ones.
/// let before = shared.snapshot();
/// shared.insert("MARY", "isa", "EMPLOYEE").unwrap();
/// let after = shared.snapshot();
///
/// // The old generation still answers from its frozen state.
/// assert!(before.lookup_symbol("MARY").is_none());
/// let mary = after.lookup_symbol("MARY").unwrap();
/// let earns = after.lookup_symbol("EARNS").unwrap();
/// let salary = after.lookup_symbol("SALARY").unwrap();
/// assert!(after.view().holds(&loosedb_store::Fact::new(mary, earns, salary)));
/// assert_eq!(after.epoch(), before.epoch() + 1);
/// ```
pub struct SharedDatabase {
    /// The current generation. Readers hold the lock just long enough to
    /// clone the `Arc`; the writer holds it just long enough to store a
    /// pointer — evaluation never happens under this lock.
    current: RwLock<Arc<Generation>>,
    /// The owned database and its journal, mutated by at most one writer
    /// at a time.
    writer: Mutex<Writer>,
    /// Ring of `(epoch, delta)` for the most recent publishes: which
    /// relationships each generation's write delta touched. Lets session
    /// caches invalidate per relationship instead of wholesale.
    deltas: Mutex<VecDeque<(u64, PublishDelta)>>,
    /// Writer-database metrics, cloned out so readers can snapshot
    /// without touching the writer mutex.
    metrics: Arc<Metrics>,
}

/// What the single writer owns: the one database every generation is
/// built from, and the journal its writes are appended to, if any.
struct Writer {
    db: Database,
    journal: Option<Journal<Box<dyn StorageIo>>>,
}

impl SharedDatabase {
    /// Takes ownership of a database, computes its closure and publishes
    /// the first generation (epoch 1).
    pub fn new(db: Database) -> Result<Self, ClosureError> {
        Self::with_writer(Writer { db, journal: None })
    }

    /// Like [`SharedDatabase::new`], with `journal` as a hook on the
    /// writer: every write's operations are appended to it before the
    /// write is published, and [`SharedDatabase::checkpoint`] snapshots
    /// the writer database into it. `db` must be the state `journal`
    /// recovers to — what [`crate::DurableDatabase::into_parts`] returns.
    pub fn journaled(
        mut db: Database,
        journal: Journal<Box<dyn StorageIo>>,
    ) -> Result<Self, ClosureError> {
        // The writer's op log is the journal's feed from here on; ops
        // logged before the hook existed are not this journal's to append.
        db.take_log();
        Self::with_writer(Writer { db, journal: Some(journal) })
    }

    fn with_writer(mut writer: Writer) -> Result<Self, ClosureError> {
        let first = Generation::build(1, &mut writer.db)?;
        writer.db.take_publish_delta(); // epoch 1 is every session's floor
        let metrics = Arc::clone(writer.db.metrics());
        metrics.epoch.set(1);
        Ok(SharedDatabase {
            current: RwLock::new(Arc::new(first)),
            writer: Mutex::new(writer),
            deltas: Mutex::new(VecDeque::new()),
            metrics,
        })
    }

    /// The metrics registry shared by the writer database, its journal
    /// and every published generation.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// A typed point-in-time snapshot of every well-known metric. Does
    /// not take the writer mutex — safe to call from any thread at any
    /// time.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The current generation. Lock-free for all practical purposes: the
    /// read lock is held only for an `Arc` clone, never during
    /// evaluation, so an in-flight write delays a reader by at most one
    /// pointer store.
    pub fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read())
    }

    /// The epoch of the current generation.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Publishes the writer database's current state as the next
    /// generation. `db` must be the writer's, under its mutex.
    fn publish(&self, db: &mut Database) -> Result<(), ClosureError> {
        // Only the writer mutates `current`, and the caller holds the
        // writer mutex, so reading the epoch outside the write lock is
        // race-free.
        let epoch = self.current.read().epoch;
        let started = Instant::now();
        let mut span = loosedb_obs::span!("engine.publish", epoch = epoch + 1);
        let next = Generation::build(epoch + 1, db)?;
        let delta = db.take_publish_delta();
        if let PublishDelta::Rels(rels) = &delta {
            self.metrics.publish_delta_rels.record(rels.len() as u64);
            span.record("delta_rels", rels.len() as u64);
        } else {
            span.record("delta_full", true);
        }
        {
            let mut deltas = self.deltas.lock();
            deltas.push_back((epoch + 1, delta));
            while deltas.len() > DELTA_HISTORY {
                deltas.pop_front();
            }
        }
        *self.current.write() = Arc::new(next);
        self.metrics.publishes.inc();
        self.metrics.publish_ns.record_duration(started.elapsed());
        self.metrics.epoch.set(epoch + 1);
        Ok(())
    }

    /// What happened across the epoch span `(from, to]`, as precisely as
    /// the bounded delta history can say. See [`DeltaSummary`] for the
    /// three answers and what a cache holder may do with each.
    pub fn delta_between(&self, from: u64, to: u64) -> DeltaSummary {
        if from > to {
            return DeltaSummary::Unknown;
        }
        let mut rels = BTreeSet::new();
        if from == to {
            return DeltaSummary::Precise(rels);
        }
        let deltas = self.deltas.lock();
        let mut covered = 0u64;
        let mut full_at = None;
        for (epoch, delta) in deltas.iter() {
            if *epoch <= from || *epoch > to {
                continue;
            }
            match delta {
                PublishDelta::Rels(r) => rels.extend(r.iter().copied()),
                PublishDelta::Full => {
                    if full_at.is_none() {
                        full_at = Some(*epoch);
                    }
                }
            }
            covered += 1;
        }
        // Every epoch in the span must still be in the ring; otherwise the
        // answer would silently miss evicted deltas.
        if covered != to - from {
            return DeltaSummary::Unknown;
        }
        match full_at {
            Some(epoch) => DeltaSummary::FullAt(epoch),
            None => DeltaSummary::Precise(rels),
        }
    }

    /// The relationships touched by every publish in `(from, to]`, or
    /// `None` if that cannot be answered precisely — some publish in the
    /// span was a full recomputation (removal, rule/kind/config change),
    /// or the span has left the bounded history ring. `None` means "assume
    /// anything changed".
    ///
    /// A session holding cached answers valid at epoch `from` that has
    /// just observed epoch `to` may keep every answer touching none of
    /// the returned relationships. Callers that can act on the
    /// distinction between "a full recompute happened at a known epoch"
    /// and "the span left the ring" should use
    /// [`SharedDatabase::delta_between`] instead.
    pub fn rels_changed_between(&self, from: u64, to: u64) -> Option<BTreeSet<EntityId>> {
        match self.delta_between(from, to) {
            DeltaSummary::Precise(rels) => Some(rels),
            DeltaSummary::FullAt(_) | DeltaSummary::Unknown => None,
        }
    }

    /// The one write path. In order:
    ///
    /// 1. `apply` runs on the writer database, with the op log on when a
    ///    journal is attached;
    /// 2. a `checked` write is refused if the closure now holds integrity
    ///    violations it did not hold before — one check over everything
    ///    the write introduced;
    /// 3. the logged operations go to the journal: one append, at most
    ///    one fsync;
    /// 4. one generation is published, if the write changed anything.
    ///
    /// A refusal, a failed append, or any error from a checked or
    /// journaled write puts the writer database back exactly as it was
    /// (a fork of its persistent maps, taken before step 1): nothing is
    /// published or journaled, and the closure stays warm. Readers
    /// observe every write atomically.
    pub fn commit<T>(
        &self,
        checked: bool,
        apply: impl FnOnce(&mut Database) -> Result<T, TransactionError>,
    ) -> Result<T, DurableError> {
        self.run(checked, false, apply)
    }

    /// [`SharedDatabase::commit`], optionally publishing even when the
    /// write left the database unchanged.
    fn run<T>(
        &self,
        checked: bool,
        always_publish: bool,
        apply: impl FnOnce(&mut Database) -> Result<T, TransactionError>,
    ) -> Result<T, DurableError> {
        let mut writer = self.writer.lock();
        let Writer { db, journal } = &mut *writer;
        let before = if checked { db.validate()?.to_vec() } else { Vec::new() };
        let epoch = db.store().epoch();
        // Only a write that can be refused — checked or journaled — keeps
        // a fork to roll back to; the fork's clones cost O(entities /
        // 1024) per write (the interner's chunk table). An unchecked
        // in-memory write fails only in closure computation, and then
        // keeps what it applied, unpublished, as `Database` would.
        let fork = (checked || journal.is_some()).then(|| db.fork());
        if journal.is_some() {
            db.enable_logging();
        }
        let committed = apply(db)
            .and_then(|out| {
                let changed = db.store().epoch() != epoch || !db.is_warm();
                // Bring the closure up to date before anything is
                // journaled: a write whose closure cannot be computed is
                // refused here.
                db.refresh()?;
                if checked {
                    let new: Vec<_> =
                        db.validate()?.iter().filter(|v| !before.contains(v)).cloned().collect();
                    if !new.is_empty() {
                        return Err(TransactionError::Integrity(new));
                    }
                }
                Ok((out, changed))
            })
            .map_err(DurableError::from)
            .and_then(|done| match journal {
                // The op log was switched on above: it holds this write.
                Some(journal) => journal
                    .append(&db.take_log().unwrap_or_default())
                    .map(|()| done)
                    .map_err(DurableError::Io),
                None => Ok(done),
            });
        let (out, changed) = match committed {
            Ok(done) => done,
            Err(e) => {
                if let Some(fork) = fork {
                    *db = fork;
                }
                return Err(e);
            }
        };
        if changed || always_publish {
            self.publish(db)?;
        }
        Ok(out)
    }

    /// Inserts a fact (unchecked, like [`Database::add`]) and publishes a
    /// new generation. The closure is maintained incrementally
    /// ([`crate::closure::extend`]); readers keep serving the previous
    /// generation throughout.
    pub fn insert(
        &self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, DurableError> {
        self.commit(false, |db| Ok(db.add_incremental(s, r, t)?))
    }

    /// Transactionally inserts a fact ([`Database::try_add`] semantics):
    /// on success a new generation is published; a rejected update
    /// publishes nothing and readers never see it.
    pub fn try_insert(
        &self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, DurableError> {
        self.commit(true, |db| Ok(db.add_incremental(s, r, t)?))
    }

    /// Removes a base fact and publishes a new generation. The closure is
    /// maintained incrementally ([`Database::remove_incremental`]): the
    /// retraction wave deletes exactly the consequences that lose
    /// support, and the published delta stays precise — readers' caches
    /// keyed on disjoint rels survive the removal.
    pub fn remove(&self, f: &Fact) -> Result<bool, DurableError> {
        self.commit(false, |db| Ok(db.remove_incremental(f)?))
    }

    /// Applies an arbitrary batch of updates to the writer database, then
    /// publishes exactly one new generation. Readers observe the batch
    /// atomically: either the generation before all of `f`'s changes or
    /// the one after all of them, never an intermediate state.
    pub fn write<T>(&self, f: impl FnOnce(&mut Database) -> T) -> Result<T, DurableError> {
        self.run(false, true, |db| Ok(f(db)))
    }

    /// Extends the writer's interner without publishing. Interning never
    /// changes the fact set or the store epoch, so the current generation
    /// remains a faithful snapshot; the next publish carries the longer
    /// interner. This is how the sharded router keeps every shard's
    /// interner identical: each write interns its entity values into all
    /// shards, in shard order, before any shard stores the fact
    /// (interners are append-only, so equal insertion order means equal
    /// id assignment everywhere).
    pub(crate) fn extend_interner<T>(
        &self,
        f: impl FnOnce(&mut loosedb_store::Interner) -> T,
    ) -> T {
        f(self.writer.lock().db.store_interner_mut())
    }

    /// Runs `f` with shared (read-only) access to the writer database,
    /// without publishing. The writer lock is held for the duration, so
    /// `f` observes a state no concurrent [`SharedDatabase::write`] is
    /// halfway through — this is how a replica snapshots itself (base
    /// images at rotation, promotion) without spending an epoch.
    pub fn read_writer<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&self.writer.lock().db)
    }

    /// Snapshots the writer database into the journal, under the writer
    /// lock, and rotates the WAL (see [`Journal::checkpoint`]). Returns
    /// the new generation, or `None` without a journal.
    pub fn checkpoint(&self) -> io::Result<Option<u64>> {
        let mut writer = self.writer.lock();
        let Writer { db, journal } = &mut *writer;
        journal.as_mut().map(|journal| journal.checkpoint(db)).transpose()
    }

    /// Consumes the shared database, returning the owned writer database
    /// (a journal, if any, is closed).
    pub fn into_inner(self) -> Database {
        self.writer.into_inner().db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FactView;
    use loosedb_store::Pattern;

    fn base() -> Database {
        let mut db = Database::new();
        db.add("JOHN", "isa", "EMPLOYEE");
        db.add("EMPLOYEE", "EARNS", "SALARY");
        db
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let shared = SharedDatabase::new(base()).unwrap();
        let g1 = shared.snapshot();
        assert_eq!(g1.epoch(), 1);
        let n1 = g1.closure().len();

        shared.insert("MARY", "isa", "EMPLOYEE").unwrap();
        // The held generation is untouched; the new one has more facts.
        assert_eq!(g1.closure().len(), n1);
        assert!(g1.lookup_symbol("MARY").is_none());
        let g2 = shared.snapshot();
        assert_eq!(g2.epoch(), 2);
        assert!(g2.closure().len() > n1);
    }

    #[test]
    fn derived_facts_travel_with_the_generation() {
        let shared = SharedDatabase::new(base()).unwrap();
        shared.insert("MARY", "isa", "EMPLOYEE").unwrap();
        let g = shared.snapshot();
        let mary = g.lookup_symbol("MARY").unwrap();
        let earns = g.lookup_symbol("EARNS").unwrap();
        let salary = g.lookup_symbol("SALARY").unwrap();
        // Membership inference applied before publication.
        assert!(g.view().holds(&Fact::new(mary, earns, salary)));
    }

    #[test]
    fn rejected_transaction_publishes_nothing() {
        let mut db = base();
        db.add("LOVES", "contra", "HATES");
        db.add("JOHN", "LOVES", "MARY");
        let shared = SharedDatabase::new(db).unwrap();
        let before = shared.epoch();
        assert!(shared.try_insert("JOHN", "HATES", "MARY").is_err());
        assert_eq!(shared.epoch(), before);
        // A checked batch is refused whole: its harmless first fact and
        // the entities it named leave no trace, and the closure stays
        // warm.
        let computes = shared.metrics_snapshot().closure.computes;
        let refused = shared.commit(true, |db| {
            db.add_incremental("NEWGUY", "LOVES", "JAZZ")?;
            db.add_incremental("JOHN", "HATES", "MARY")?;
            Ok(())
        });
        assert!(matches!(refused, Err(DurableError::Transaction(TransactionError::Integrity(_)))));
        assert_eq!(shared.epoch(), before);
        assert!(shared.read_writer(|db| db.lookup_symbol("NEWGUY").is_none()));
        // An accepted transaction publishes exactly one generation.
        shared.try_insert("JOHN", "LOVES", "SUE").unwrap();
        assert_eq!(shared.epoch(), before + 1);
        assert_eq!(shared.metrics_snapshot().closure.computes, computes);
    }

    #[test]
    fn duplicate_insert_does_not_publish() {
        let shared = SharedDatabase::new(base()).unwrap();
        let before = shared.epoch();
        shared.insert("JOHN", "isa", "EMPLOYEE").unwrap();
        assert_eq!(shared.epoch(), before);
    }

    #[test]
    fn batched_write_publishes_once() {
        let shared = SharedDatabase::new(base()).unwrap();
        let before = shared.epoch();
        shared
            .write(|db| {
                db.add("A", "LINKS", "B");
                db.add("B", "LINKS", "C");
                db.add("C", "LINKS", "D");
            })
            .unwrap();
        assert_eq!(shared.epoch(), before + 1);
        let g = shared.snapshot();
        let links = g.lookup_symbol("LINKS").unwrap();
        assert_eq!(g.view().matches(Pattern::from_rel(links)).unwrap().len(), 3);
    }

    #[test]
    fn removal_publishes_recomputed_closure() {
        let shared = SharedDatabase::new(base()).unwrap();
        let g = shared.snapshot();
        let john = g.lookup_symbol("JOHN").unwrap();
        let isa = g.lookup_symbol("isa").unwrap();
        let employee = g.lookup_symbol("EMPLOYEE").unwrap();
        let earns = g.lookup_symbol("EARNS").unwrap();
        let salary = g.lookup_symbol("SALARY").unwrap();
        let derived = Fact::new(john, earns, salary);
        assert!(g.view().holds(&derived));

        assert!(shared.remove(&Fact::new(john, isa, employee)).unwrap());
        let g2 = shared.snapshot();
        // The derived fact lost its support and is gone in the new
        // generation; the old generation still holds it.
        assert!(!g2.view().holds(&derived));
        assert!(g.view().holds(&derived));
    }

    #[test]
    fn removal_publishes_a_precise_delta() {
        // Base-fact removal must never degrade the delta ring to Full:
        // the retraction wave knows exactly which rels it touched.
        let shared = SharedDatabase::new(base()).unwrap();
        shared.insert("FELIX", "OWNS", "YARN").unwrap();
        let floor = shared.epoch();
        let g = shared.snapshot();
        let john = g.lookup_symbol("JOHN").unwrap();
        let isa = g.lookup_symbol("isa").unwrap();
        let employee = g.lookup_symbol("EMPLOYEE").unwrap();
        assert!(shared.remove(&Fact::new(john, isa, employee)).unwrap());
        match shared.delta_between(floor, floor + 1) {
            DeltaSummary::Precise(rels) => {
                assert!(rels.contains(&isa));
                // JOHN's derived EARNS facts fell with the membership.
                assert!(rels.contains(&g.lookup_symbol("EARNS").unwrap()));
                // The unrelated rel is untouched.
                assert!(!rels.contains(&g.lookup_symbol("OWNS").unwrap()));
            }
            other => panic!("expected Precise, got {other:?}"),
        }
    }

    #[test]
    fn full_publish_is_pinned_to_its_epoch_in_the_delta_ring() {
        let shared = SharedDatabase::new(base()).unwrap();
        let floor = shared.epoch();
        shared.insert("A", "R1", "B").unwrap(); // floor + 1: precise
        let g = shared.snapshot();
        let a = g.lookup_symbol("A").unwrap();
        let r1 = g.lookup_symbol("R1").unwrap();
        let b = g.lookup_symbol("B").unwrap();
        // [`SharedDatabase::remove`] is precise now, so force a Full by
        // taking the legacy full-recompute removal path through `write`.
        shared.write(|db| db.remove(&Fact::new(a, r1, b))).unwrap(); // floor + 2: Full
        shared.insert("C", "R2", "D").unwrap(); // floor + 3: precise
        shared.insert("E", "R3", "F").unwrap(); // floor + 4: precise

        // Spans before the Full stay precise: the removal does not nuke
        // carry for older spans.
        assert!(matches!(shared.delta_between(floor, floor + 1), DeltaSummary::Precise(_)));
        // Spans crossing the Full see it, pinned to its exact epoch.
        assert_eq!(shared.delta_between(floor + 1, floor + 2), DeltaSummary::FullAt(floor + 2));
        assert_eq!(shared.delta_between(floor, floor + 4), DeltaSummary::FullAt(floor + 2));
        // Spans strictly after the Full are precise again.
        match shared.delta_between(floor + 2, floor + 4) {
            DeltaSummary::Precise(rels) => {
                let g = shared.snapshot();
                assert!(rels.contains(&g.lookup_symbol("R2").unwrap()));
                assert!(rels.contains(&g.lookup_symbol("R3").unwrap()));
                assert!(!rels.contains(&r1));
            }
            other => panic!("expected Precise, got {other:?}"),
        }
        // rels_changed_between is the collapsed view of the same answer.
        assert!(shared.rels_changed_between(floor, floor + 4).is_none());
        assert!(shared.rels_changed_between(floor + 2, floor + 4).is_some());

        // Evict the ring: the span becomes Unknown, not FullAt.
        for i in 0..(DELTA_HISTORY as u64 + 4) {
            shared.insert(format!("S{i}"), "BULK", format!("T{i}")).unwrap();
        }
        assert_eq!(shared.delta_between(floor, floor + 4), DeltaSummary::Unknown);
        assert_eq!(shared.delta_between(floor + 1, floor + 2), DeltaSummary::Unknown);
    }

    #[test]
    fn view_with_extended_interner_matches_nothing_for_new_ids() {
        let shared = SharedDatabase::new(base()).unwrap();
        let g = shared.snapshot();
        let mut ext = g.interner().clone();
        let ghost = ext.symbol("NEVER-STORED");
        let view = g.view_with_interner(&ext);
        assert!(view.matches(Pattern::from_source(ghost)).unwrap().is_empty());
        // Known ids resolve identically through the extension.
        let john = g.lookup_symbol("JOHN").unwrap();
        assert_eq!(view.matches(Pattern::from_source(john)).unwrap().len(), 2);
    }
}
