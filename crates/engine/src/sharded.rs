//! Sharded worlds: hash-partitioned stores behind one write router.
//!
//! A [`ShardedDatabase`] splits the fact base across N in-process
//! [`SharedDatabase`] shards, partitioned by **source entity**: the fact
//! `(s, r, t)` lives on `shard(s) = hash(s) mod N`. Each shard keeps its
//! own generation chain and O(delta) publish path, so a write touches one
//! shard's closure (1/N of the data) instead of the whole world — the
//! scale-out half of the story PR 8's parallel joins started inside one
//! store.
//!
//! # The broadcast invariant
//!
//! Source-hash partitioning alone would break inference: the membership
//! rule `(x, ∈, c) ∧ (c, r, z) ⇒ (x, r, z)` joins a fact on `shard(x)`
//! with one on `shard(c)`. Instead of moving data at inference time, the
//! router *broadcasts* to every shard each base fact that any §3 rule can
//! consume away from its owner shard:
//!
//! * **structural facts** — `≺`, `∈`, `syn`, `inv`, `⊥` — so every shard
//!   holds the full taxonomy and rule graph;
//! * facts whose source is **class-like** — the target of any base `≺` or
//!   `∈` fact, either side of a `syn` fact, or a reserved entity — the
//!   ordinary premises of membership, inheritance and synonymy;
//! * facts whose relationship is **broadcast-active** — it reaches, via
//!   upward `≺` chains, either side of an `inv` fact (or a user-rule body
//!   that needs it): the ordinary premises of inversion.
//!
//! Everything else routes to its owner shard only. Under this invariant
//! every closure fact `(s, r, t)` is derivable on `shard(s)` (each rule's
//! premises are either sourced at `s`, broadcast, or virtual/math), so:
//! the union of the shard closures equals the single-store closure, a
//! query whose atoms all share one source term can be answered per shard
//! with no data movement (the *collocated* fast path), and integrity
//! violations — whose premises always share a source — surface on the
//! owner shard.
//!
//! Structural inserts can *promote* an entity into the class-like set (or
//! a relationship into the broadcast-active set) after facts it governs
//! were already routed; the router then re-broadcasts those existing base
//! facts. Demotion on removal is deliberately not attempted: a stale copy
//! is still a genuine base fact, so closures stay correct and removals
//! simply fan out to every shard. User rules whose body and head do not
//! all share one source variable degrade the router to full replication
//! (`broadcast_all`) — sharding keeps correctness and loses partitioning,
//! never the reverse.
//!
//! # Interner alignment
//!
//! Every write interns its three entity values into *all* shards, in
//! shard order, before any shard stores the fact. Interners are
//! append-only, so identical insertion order means identical id
//! assignment: an `EntityId` is valid on every shard and gathered rows
//! never need translation. (This requires composition to stay disabled —
//! the default — because materialized composition interns path entities
//! mid-closure, outside the router's control.)
//!
//! Writes serialize on the router (one route lock), exactly as
//! [`SharedDatabase`] serializes on its writer mutex; reads are lock-free
//! per shard and never blocked by the router.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use loosedb_obs::{Metrics, MetricsSnapshot};
use loosedb_store::{special, EntityId, EntityValue, Fact, FactStore, Interner, Pattern};

use crate::closure::{ClosureError, Violation};
use crate::config::RuleGroup;
use crate::database::{Database, TransactionError};
use crate::durable::{DurableDatabase, DurableError, SyncPolicy};
use crate::rule::{Rule, RuleError};
use crate::shared::{DeltaSummary, Generation, SharedDatabase};
use crate::term::Term;
use crate::view::ClosureView;

/// Errors surfaced by sharded-router operations.
#[derive(Debug)]
pub enum ShardedError {
    /// Closure computation failed on some shard.
    Closure(ClosureError),
    /// A rule was rejected (duplicate name, unbound head variable, …).
    Rule(RuleError),
    /// A transactional insert was rejected.
    Transaction(TransactionError),
    /// A durable shard's journal failed.
    Io(io::Error),
}

impl fmt::Display for ShardedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedError::Closure(e) => write!(f, "shard closure failed: {e}"),
            ShardedError::Rule(e) => write!(f, "rule rejected: {e}"),
            ShardedError::Transaction(e) => write!(f, "{e}"),
            ShardedError::Io(e) => write!(f, "shard journal failed: {e}"),
        }
    }
}

impl std::error::Error for ShardedError {}

impl From<ClosureError> for ShardedError {
    fn from(e: ClosureError) -> Self {
        ShardedError::Closure(e)
    }
}
impl From<RuleError> for ShardedError {
    fn from(e: RuleError) -> Self {
        ShardedError::Rule(e)
    }
}
impl From<TransactionError> for ShardedError {
    fn from(e: TransactionError) -> Self {
        ShardedError::Transaction(e)
    }
}
impl From<io::Error> for ShardedError {
    fn from(e: io::Error) -> Self {
        ShardedError::Io(e)
    }
}
impl From<DurableError> for ShardedError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Transaction(TransactionError::Closure(e)) => ShardedError::Closure(e),
            DurableError::Transaction(e) => ShardedError::Transaction(e),
            DurableError::Io(e) => ShardedError::Io(e),
        }
    }
}

/// The partition function: which of `n` shards owns source entity `e`.
///
/// Fibonacci hashing on the raw id — ids are dense small integers, so
/// multiplicative spreading (not `id % n`) keeps consecutive entities off
/// the same shard.
#[inline]
pub fn shard_of(e: EntityId, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let spread = (e.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (spread % n as u64) as usize
}

/// True for the five structural relationships every shard must replicate.
#[inline]
fn is_structural(r: EntityId) -> bool {
    matches!(r, special::GEN | special::ISA | special::SYN | special::INV | special::CONTRA)
}

/// Newly broadcast-eligible entities/relationships produced by one
/// structural observation; existing base facts they govern must be
/// re-broadcast.
#[derive(Default)]
struct Promotion {
    /// Entities that just became class-like.
    entities: Vec<EntityId>,
    /// Relationships that just became broadcast-active.
    rels: Vec<EntityId>,
    /// The router just degraded to full replication.
    all: bool,
}

impl Promotion {
    fn is_empty(&self) -> bool {
        self.entities.is_empty() && self.rels.is_empty() && !self.all
    }
}

/// The routing metadata: which sources and relationships force broadcast.
/// Derived entirely from base structural facts and registered user rules,
/// so it can be reconstructed from the stored facts at recovery.
#[derive(Default)]
struct RouteMeta {
    /// Targets of base `≺`/`∈` facts and both sides of base `syn` facts.
    class_like: BTreeSet<EntityId>,
    /// Either side of a base `inv` fact (plus user-rule extensions):
    /// the seeds of the broadcast-active relationship set.
    broadcast_seeds: BTreeSet<EntityId>,
    /// `broadcast_seeds` closed downward under base `≺` edges: every
    /// relationship whose facts can derive (via rel-generalization) into
    /// a relationship some rule consumes off-shard.
    active_rels: BTreeSet<EntityId>,
    /// Base `≺` edges, reversed: target → sources. Drives the downward
    /// closure above.
    gen_down: BTreeMap<EntityId, BTreeSet<EntityId>>,
    /// Head relationships of registered user rules: if one becomes
    /// broadcast-active, collocated firing no longer suffices and the
    /// router degrades to full replication.
    user_head_rels: BTreeSet<EntityId>,
    /// Replicate everything: a user rule (or rule/taxonomy interaction)
    /// escaped the collocated analysis.
    broadcast_all: bool,
}

impl RouteMeta {
    /// Must fact `(s, r, _)` be on every shard?
    fn must_broadcast(&self, s: EntityId, r: EntityId) -> bool {
        self.broadcast_all
            || is_structural(r)
            || special::is_special(s)
            || self.class_like.contains(&s)
            || self.active_rels.contains(&r)
    }

    /// Marks `rel` and everything that `≺`-reaches it as broadcast-active,
    /// returning the newly activated relationships.
    fn activate(&mut self, rel: EntityId) -> Vec<EntityId> {
        let mut fresh = Vec::new();
        let mut stack = vec![rel];
        while let Some(r) = stack.pop() {
            if self.active_rels.insert(r) {
                fresh.push(r);
                if let Some(below) = self.gen_down.get(&r) {
                    stack.extend(below.iter().copied());
                }
            }
        }
        fresh
    }

    /// Records a base fact's structural consequences, returning any
    /// promotions (already-routed facts that must now be re-broadcast).
    fn observe(&mut self, f: Fact) -> Promotion {
        let mut promo = Promotion::default();
        match f.r {
            special::GEN => {
                self.gen_down.entry(f.t).or_default().insert(f.s);
                if self.class_like.insert(f.t) {
                    promo.entities.push(f.t);
                }
                // A new ≺ edge below an active relationship extends the
                // downward closure through the new source.
                if self.active_rels.contains(&f.t) {
                    promo.rels.extend(self.activate(f.s));
                }
            }
            special::ISA if self.class_like.insert(f.t) => promo.entities.push(f.t),
            special::SYN => {
                for e in [f.s, f.t] {
                    if self.class_like.insert(e) {
                        promo.entities.push(e);
                    }
                }
            }
            special::INV => {
                for r in [f.s, f.t] {
                    if self.broadcast_seeds.insert(r) {
                        promo.rels.extend(self.activate(r));
                    }
                }
            }
            _ => {}
        }
        if !self.broadcast_all && promo.rels.iter().any(|r| self.user_head_rels.contains(r)) {
            self.broadcast_all = true;
            promo.all = true;
        }
        promo
    }

    /// Analyzes a user rule against the collocated-firing condition:
    /// every head template's source and every ordinary body template's
    /// source must be one shared variable. Rules that fail the condition
    /// degrade the router to full replication — correctness over
    /// partitioning.
    fn observe_rule(&mut self, rule: &Rule) -> Promotion {
        let mut promo = Promotion::default();
        let mut shared_source: Option<Term> = None;
        let mut collocated = true;
        let mut note_source = |term: Term, collocated: &mut bool| match term {
            Term::Const(_) => *collocated = false,
            Term::Var(_) => match shared_source {
                None => shared_source = Some(term),
                Some(prev) => {
                    if prev != term {
                        *collocated = false;
                    }
                }
            },
        };
        for h in rule.head() {
            match h.r {
                Term::Var(_) => collocated = false,
                Term::Const(r) => {
                    if is_structural(r) {
                        // A rule deriving taxonomy facts invalidates the
                        // "structural closure is identical everywhere"
                        // invariant unless everything is replicated.
                        collocated = false;
                    }
                    if !special::is_math(r) {
                        self.user_head_rels.insert(r);
                        if self.active_rels.contains(&r) {
                            collocated = false;
                        }
                    }
                }
            }
            note_source(h.s, &mut collocated);
        }
        for b in rule.body() {
            match b.r {
                Term::Var(_) => collocated = false,
                Term::Const(r) => {
                    if !is_structural(r) && !special::is_math(r) {
                        note_source(b.s, &mut collocated);
                    }
                }
            }
        }
        if !collocated && !self.broadcast_all {
            self.broadcast_all = true;
            promo.all = true;
        }
        promo
    }
}

/// Per-shard status for monitoring (`:shards` in the REPL).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Current epoch of the shard's generation chain.
    pub epoch: u64,
    /// Base facts stored on the shard (owned + broadcast copies).
    pub base_facts: usize,
    /// Facts in the shard's published closure.
    pub closure_facts: usize,
    /// Generations the shard has published.
    pub publishes: u64,
}

/// A durable shard journal: a [`DurableDatabase`] mirroring exactly the
/// facts routed to its in-memory shard, WAL-appended *before* the
/// in-memory apply. The mirror keeps its own (shard-local) interner; ops
/// are journaled by value, so recovery re-interns into fresh aligned
/// shards.
struct ShardJournal {
    wal: Mutex<DurableDatabase>,
}

/// A hash-partitioned database: N [`SharedDatabase`] shards behind one
/// write router. See the module docs for the partition function and the
/// broadcast invariant.
///
/// ```
/// use loosedb_engine::{FactView, ShardedDatabase};
///
/// let db = ShardedDatabase::new(4).unwrap();
/// db.insert("JOHN", "isa", "EMPLOYEE").unwrap();
/// db.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
///
/// let snap = db.snapshot();
/// let john = snap.lookup_symbol("JOHN").unwrap();
/// let earns = snap.lookup_symbol("EARNS").unwrap();
/// let salary = snap.lookup_symbol("SALARY").unwrap();
/// // Membership inference ran on JOHN's shard: the derived fact is
/// // visible through the owner shard's view.
/// let owner = &snap.views()[db.shard_of(john)];
/// assert!(owner.holds(&loosedb_store::Fact::new(john, earns, salary)));
/// ```
pub struct ShardedDatabase {
    shards: Vec<SharedDatabase>,
    /// Routing metadata; doubles as the router's write lock — every
    /// mutation holds it end to end so interner alignment and the
    /// broadcast invariant never race.
    route: Mutex<RouteMeta>,
    /// Optional per-shard WAL journals (durable mode).
    journals: Option<Vec<ShardJournal>>,
    /// Router-level metrics (`shard.*`); each shard keeps its own full
    /// registry with per-shard publish/query histograms.
    metrics: Arc<Metrics>,
}

impl ShardedDatabase {
    /// Creates `n` empty shards with default inference configuration.
    pub fn new(n: usize) -> Result<Self, ShardedError> {
        Self::with_setup(n, |_| {})
    }

    /// Creates `n` empty shards, applying `setup` (kind declarations,
    /// rule-group toggles, …) to each shard's database before the first
    /// generation is published. Composition must stay disabled — the
    /// router owns interner alignment (see the module docs).
    pub fn with_setup(
        n: usize,
        mut setup: impl FnMut(&mut Database),
    ) -> Result<Self, ShardedError> {
        let n = n.max(1);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let mut db = Database::new();
            setup(&mut db);
            assert!(
                db.config().composition_limit <= 1,
                "sharded databases require composition to stay disabled: \
                 materialized composition interns path entities outside the router"
            );
            shards.push(SharedDatabase::new(db)?);
        }
        let metrics = Arc::new(Metrics::new());
        metrics.shard_count.set(n as u64);
        Ok(ShardedDatabase {
            shards,
            route: Mutex::new(RouteMeta::default()),
            journals: None,
            metrics,
        })
    }

    /// Bulk-loads an existing store into `n` shards: one interner pass
    /// aligns every shard's ids with the source store's, the routing
    /// metadata is derived from the full fact set up front (no mid-load
    /// promotions), and each shard computes its closure once.
    pub fn from_store(n: usize, store: &FactStore) -> Result<Self, ShardedError> {
        Self::from_store_with_setup(n, store, |_| {})
    }

    /// [`Self::from_store`] with a per-shard setup hook (rule-group
    /// toggles, kind declarations) applied before loading, under the
    /// same composition restriction as [`Self::with_setup`].
    pub fn from_store_with_setup(
        n: usize,
        store: &FactStore,
        mut setup: impl FnMut(&mut Database),
    ) -> Result<Self, ShardedError> {
        let n = n.max(1);
        let mut dbs: Vec<Database> = (0..n)
            .map(|_| {
                let mut db = Database::new();
                setup(&mut db);
                assert!(
                    db.config().composition_limit <= 1,
                    "sharded databases require composition to stay disabled: \
                     materialized composition interns path entities outside the router"
                );
                db
            })
            .collect();
        for db in &mut dbs {
            for (_, value) in store.interner().iter() {
                db.entity(value.clone());
            }
            debug_assert_eq!(db.store().interner().len(), store.interner().len());
        }
        let mut meta = RouteMeta::default();
        for f in store.iter() {
            meta.observe(f);
        }
        for f in store.iter() {
            if meta.must_broadcast(f.s, f.r) {
                for db in &mut dbs {
                    db.insert(f);
                }
            } else {
                dbs[shard_of(f.s, n)].insert(f);
            }
        }
        let mut shards = Vec::with_capacity(n);
        for db in dbs {
            shards.push(SharedDatabase::new(db)?);
        }
        let metrics = Arc::new(Metrics::new());
        metrics.shard_count.set(n as u64);
        Ok(ShardedDatabase { shards, route: Mutex::new(meta), journals: None, metrics })
    }

    /// Opens (creating or recovering) a durable sharded database: shard
    /// `i` journals to `dir/shard-i` through a [`DurableDatabase`] WAL,
    /// appended *before* the in-memory apply. Recovery replays each
    /// journal, then re-interns every recovered fact by value into fresh
    /// aligned shards and re-derives the routing metadata.
    pub fn open_durable(
        dir: impl Into<PathBuf>,
        n: usize,
        policy: SyncPolicy,
    ) -> Result<Self, ShardedError> {
        let dir: PathBuf = dir.into();
        let n = n.max(1);
        let mut journals = Vec::with_capacity(n);
        for i in 0..n {
            journals.push(DurableDatabase::open(shard_dir(&dir, i), policy)?);
        }

        // Recovered facts, per shard, as values (mirror interners are
        // shard-local; values are the portable identity).
        let mut recovered: Vec<Vec<(EntityValue, EntityValue, EntityValue)>> =
            Vec::with_capacity(n);
        for j in &journals {
            let store = j.database_ref().store();
            recovered.push(
                store
                    .iter()
                    .map(|f| {
                        (
                            store.value(f.s).clone(),
                            store.value(f.r).clone(),
                            store.value(f.t).clone(),
                        )
                    })
                    .collect(),
            );
        }

        let mut sharded = Self::new(n)?;
        sharded.journals =
            Some(journals.into_iter().map(|wal| ShardJournal { wal: Mutex::new(wal) }).collect());

        // Replay by value through the normal routed write path, journal
        // suppressed (the ops are already in the WALs). This re-derives
        // the routing metadata and re-materializes the broadcast
        // invariant; shard placement of owner-routed facts is identical
        // because re-interning in recovery order reproduces the ids.
        for (i, facts) in recovered.iter().enumerate() {
            for (s, r, t) in facts {
                // A broadcast copy appears in several journals; routing
                // the first occurrence re-creates the others, and the
                // duplicate replays are absorbed as no-ops.
                let _ = i;
                sharded.insert_impl(s.clone(), r.clone(), t.clone(), false)?;
            }
        }
        Ok(sharded)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns facts sourced at `e`.
    pub fn shard_of(&self, e: EntityId) -> usize {
        shard_of(e, self.shards.len())
    }

    /// One shard's [`SharedDatabase`].
    pub fn shard(&self, i: usize) -> &SharedDatabase {
        &self.shards[i]
    }

    /// All shards, in partition order.
    pub fn shards(&self) -> &[SharedDatabase] {
        &self.shards
    }

    /// Router-level metrics (`shard.*`).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Typed snapshot of the router-level metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// A point-in-time snapshot of every shard's current generation.
    /// Per-shard snapshots are individually consistent; the vector is
    /// assembled without a global lock, so a concurrent write may land
    /// between two shards' snapshots (single-fact writes touch one shard
    /// — or all, atomically per shard — so collocated reads are always
    /// consistent).
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot { gens: self.shards.iter().map(|s| s.snapshot()).collect() }
    }

    /// Every shard's current epoch, in partition order. The cache key for
    /// sharded sessions: compare element-wise and merge the per-shard
    /// delta rings with [`ShardedDatabase::delta_between`].
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Merges the per-shard delta rings across an epoch-vector span:
    /// [`DeltaSummary::Precise`] with the union of touched relationships
    /// when every shard's span is precise, degrading to the weakest
    /// shard's answer otherwise. `FullAt` carries a shard-local epoch —
    /// meaningful only as "some shard had a full publish in the span".
    pub fn delta_between(&self, from: &[u64], to: &[u64]) -> DeltaSummary {
        if from.len() != self.shards.len() || to.len() != self.shards.len() {
            return DeltaSummary::Unknown;
        }
        let mut rels = BTreeSet::new();
        let mut full_at = None;
        for (i, shard) in self.shards.iter().enumerate() {
            match shard.delta_between(from[i], to[i]) {
                DeltaSummary::Precise(r) => rels.extend(r),
                DeltaSummary::FullAt(e) => full_at = Some(full_at.map_or(e, |f: u64| f.min(e))),
                DeltaSummary::Unknown => return DeltaSummary::Unknown,
            }
        }
        match full_at {
            Some(e) => DeltaSummary::FullAt(e),
            None => DeltaSummary::Precise(rels),
        }
    }

    /// The union of relationships touched by any shard's publishes in the
    /// span, or `None` if any shard cannot answer precisely.
    pub fn rels_changed_between(&self, from: &[u64], to: &[u64]) -> Option<BTreeSet<EntityId>> {
        match self.delta_between(from, to) {
            DeltaSummary::Precise(rels) => Some(rels),
            _ => None,
        }
    }

    /// Per-shard status, in partition order.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let g = s.snapshot();
                ShardStats {
                    epoch: g.epoch(),
                    base_facts: g.store().len(),
                    closure_facts: g.closure().len(),
                    publishes: s.metrics().publishes.get(),
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Writes (serialized on the route lock)
    // ------------------------------------------------------------------

    /// Interns the three values into every shard, in shard order, and
    /// returns the (identical everywhere) fact ids. Caller holds the
    /// route lock.
    fn intern_everywhere(&self, s: &EntityValue, r: &EntityValue, t: &EntityValue) -> Fact {
        let mut fact = Fact::new(special::TOP, special::TOP, special::TOP);
        for (i, shard) in self.shards.iter().enumerate() {
            let ids = shard.extend_interner(|interner| {
                (interner.intern(s.clone()), interner.intern(r.clone()), interner.intern(t.clone()))
            });
            if i == 0 {
                fact = Fact::new(ids.0, ids.1, ids.2);
            } else {
                debug_assert_eq!(
                    (fact.s, fact.r, fact.t),
                    ids,
                    "shard interners diverged — router invariant broken"
                );
            }
        }
        fact
    }

    /// Copies existing base facts governed by a promotion to every shard.
    /// Caller holds the route lock.
    fn apply_promotion(&self, meta: &RouteMeta, promo: Promotion) -> Result<(), ShardedError> {
        if promo.is_empty() {
            return Ok(());
        }
        let n = self.shards.len();
        // Collect the values of every fact that must now be everywhere.
        let mut triples: BTreeSet<(EntityValue, EntityValue, EntityValue)> = BTreeSet::new();
        let mut collect = |shard: &SharedDatabase, pattern: Pattern| {
            shard.read_writer(|db| {
                let store = db.store();
                for f in store.matching(pattern) {
                    triples.insert((
                        store.value(f.s).clone(),
                        store.value(f.r).clone(),
                        store.value(f.t).clone(),
                    ));
                }
            });
        };
        if promo.all {
            for shard in &self.shards {
                collect(shard, Pattern::ANY);
            }
        } else {
            for &e in &promo.entities {
                // Facts sourced at a newly class-like entity live on its
                // owner shard (plus any earlier broadcast copies).
                collect(&self.shards[shard_of(e, n)], Pattern::from_source(e));
            }
            for &r in &promo.rels {
                // Facts of a newly active relationship may be owner-routed
                // anywhere: scan all shards.
                for shard in &self.shards {
                    collect(shard, Pattern::from_rel(r));
                }
            }
        }
        let _ = meta;
        if triples.is_empty() {
            return Ok(());
        }
        self.metrics.shard_route_rebroadcast.add(triples.len() as u64);
        for (i, shard) in self.shards.iter().enumerate() {
            shard.commit(false, |db| {
                for (s, r, t) in &triples {
                    db.add_incremental(s.clone(), r.clone(), t.clone())?;
                }
                Ok(())
            })?;
            self.journal_inserts(i, triples.iter())?;
        }
        Ok(())
    }

    /// Journals inserts to shard `i`'s WAL mirror (durable mode only).
    /// The mirror already holding a fact absorbs the append as a no-op
    /// at the database level but would double-journal; filter first.
    fn journal_inserts<'a>(
        &self,
        i: usize,
        triples: impl Iterator<Item = &'a (EntityValue, EntityValue, EntityValue)>,
    ) -> Result<(), ShardedError> {
        let Some(journals) = &self.journals else { return Ok(()) };
        let mut wal = journals[i].wal.lock();
        for (s, r, t) in triples {
            let mirror = wal.database_ref();
            let present = match (mirror.lookup(s), mirror.lookup(r), mirror.lookup(t)) {
                (Some(s), Some(r), Some(t)) => mirror.store().contains(&Fact::new(s, r, t)),
                _ => false,
            };
            if !present {
                wal.add(s.clone(), r.clone(), t.clone())?;
            }
        }
        Ok(())
    }

    /// Inserts a fact (unchecked, [`Database::add`] semantics): broadcast
    /// facts publish on every shard, others on their owner shard only.
    pub fn insert(
        &self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, ShardedError> {
        self.insert_impl(s.into(), r.into(), t.into(), true)
    }

    fn insert_impl(
        &self,
        s: EntityValue,
        r: EntityValue,
        t: EntityValue,
        journal: bool,
    ) -> Result<Fact, ShardedError> {
        let mut meta = self.route.lock();
        let started = Instant::now();
        let fact = self.intern_everywhere(&s, &r, &t);
        let promo = meta.observe(fact);
        self.apply_promotion(&meta, promo)?;
        let triple = (s, r, t);
        if meta.must_broadcast(fact.s, fact.r) {
            self.metrics.shard_route_broadcast.inc();
            for (i, shard) in self.shards.iter().enumerate() {
                if journal {
                    self.journal_inserts(i, std::iter::once(&triple))?;
                }
                shard.insert(triple.0.clone(), triple.1.clone(), triple.2.clone())?;
            }
        } else {
            let owner = shard_of(fact.s, self.shards.len());
            self.metrics.shard_route_owner.inc();
            if journal {
                self.journal_inserts(owner, std::iter::once(&triple))?;
            }
            self.shards[owner].insert(triple.0, triple.1, triple.2)?;
        }
        self.metrics.shard_publish_ns.record_duration(started.elapsed());
        Ok(fact)
    }

    /// Transactionally inserts a fact ([`Database::try_add`] semantics).
    /// Broadcast facts commit on every shard or none: a rejection on any
    /// shard rolls the earlier shards back before returning the error.
    pub fn try_insert(
        &self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, ShardedError> {
        let (s, r, t) = (s.into(), r.into(), t.into());
        let mut meta = self.route.lock();
        let started = Instant::now();
        let fact = self.intern_everywhere(&s, &r, &t);
        let promo = meta.observe(fact);
        self.apply_promotion(&meta, promo)?;
        let targets: Vec<usize> = if meta.must_broadcast(fact.s, fact.r) {
            self.metrics.shard_route_broadcast.inc();
            (0..self.shards.len()).collect()
        } else {
            self.metrics.shard_route_owner.inc();
            vec![shard_of(fact.s, self.shards.len())]
        };
        let mut committed = Vec::new();
        for &i in &targets {
            match self.shards[i].try_insert(s.clone(), r.clone(), t.clone()) {
                Ok(_) => committed.push(i),
                Err(e) => {
                    for &j in &committed {
                        self.shards[j].remove(&fact)?;
                    }
                    return Err(e.into());
                }
            }
        }
        // Journal after the all-shard commit (memory never runs behind a
        // journaled op that later rolls back).
        let triple = (s, r, t);
        for &i in &targets {
            self.journal_inserts(i, std::iter::once(&triple))?;
        }
        self.metrics.shard_publish_ns.record_duration(started.elapsed());
        Ok(fact)
    }

    /// Removes a base fact from every shard holding it (broadcast copies
    /// included — a stale copy must never outlive the real deletion).
    /// Returns whether any shard held it.
    pub fn remove(&self, f: &Fact) -> Result<bool, ShardedError> {
        let _meta = self.route.lock();
        let started = Instant::now();
        self.metrics.shard_route_removals.inc();
        // Journal first, by value, on every shard whose mirror holds it.
        if let Some(journals) = &self.journals {
            let (s, r, t) = self.shards[0].read_writer(|db| {
                let store = db.store();
                (store.value(f.s).clone(), store.value(f.r).clone(), store.value(f.t).clone())
            });
            for j in journals {
                let mut wal = j.wal.lock();
                let mirror_fact = {
                    let mirror = wal.database_ref();
                    match (mirror.lookup(&s), mirror.lookup(&r), mirror.lookup(&t)) {
                        (Some(s), Some(r), Some(t)) => Some(Fact::new(s, r, t)),
                        _ => None,
                    }
                };
                if let Some(mf) = mirror_fact {
                    wal.remove(&mf)?;
                }
            }
        }
        let mut removed = false;
        for shard in &self.shards {
            removed |= shard.remove(f)?;
        }
        self.metrics.shard_publish_ns.record_duration(started.elapsed());
        Ok(removed)
    }

    /// Interns an entity into every shard (no fact is stored), returning
    /// its — everywhere identical — id. Use this to obtain ids for rule
    /// constants before [`ShardedDatabase::add_rule`].
    pub fn entity(&self, value: impl Into<EntityValue>) -> EntityId {
        let value = value.into();
        let _meta = self.route.lock();
        self.intern_everywhere(&value, &value, &value).s
    }

    /// Registers a user rule on every shard. Rules whose body and head do
    /// not all share one source variable degrade the router to full
    /// replication (see the module docs); the rule itself is always
    /// applied everywhere.
    pub fn add_rule(&self, rule: Rule) -> Result<(), ShardedError> {
        let mut meta = self.route.lock();
        let promo = meta.observe_rule(&rule);
        self.apply_promotion(&meta, promo)?;
        for shard in &self.shards {
            shard.write(|db| db.add_rule(rule.clone()))??;
        }
        Ok(())
    }

    /// Declares a relationship as class-kind on every shard.
    pub fn declare_class(&self, rel: impl Into<EntityValue>) -> Result<(), ShardedError> {
        let rel = rel.into();
        let _meta = self.route.lock();
        let fact = self.intern_everywhere(&rel, &rel, &rel);
        for shard in &self.shards {
            shard.write(|db| db.declare_class(fact.s))?;
        }
        Ok(())
    }

    /// Declares a relationship as individual-kind on every shard.
    pub fn declare_individual(&self, rel: impl Into<EntityValue>) -> Result<(), ShardedError> {
        let rel = rel.into();
        let _meta = self.route.lock();
        let fact = self.intern_everywhere(&rel, &rel, &rel);
        for shard in &self.shards {
            shard.write(|db| db.declare_individual(fact.s))?;
        }
        Ok(())
    }

    /// Enables a §3 rule group on every shard.
    pub fn include(&self, group: RuleGroup) -> Result<(), ShardedError> {
        let _meta = self.route.lock();
        for shard in &self.shards {
            shard.write(|db| db.include(group))?;
        }
        Ok(())
    }

    /// Disables a §3 rule group on every shard.
    pub fn exclude(&self, group: RuleGroup) -> Result<(), ShardedError> {
        let _meta = self.route.lock();
        for shard in &self.shards {
            shard.write(|db| db.exclude(group))?;
        }
        Ok(())
    }

    /// Flushes every durable shard's WAL to stable storage.
    pub fn sync(&self) -> Result<(), ShardedError> {
        if let Some(journals) = &self.journals {
            for j in journals {
                j.wal.lock().sync()?;
            }
        }
        Ok(())
    }

    /// Checkpoints every durable shard: snapshot + WAL rotation per
    /// shard directory. No-op (returning 0) when not durable.
    pub fn checkpoint(&self) -> Result<u64, ShardedError> {
        let mut latest = 0;
        if let Some(journals) = &self.journals {
            for j in journals {
                latest = j.wal.lock().checkpoint()?;
            }
        }
        Ok(latest)
    }
}

/// The per-shard WAL directory: `dir/shard-0`, `dir/shard-1`, …
fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}"))
}

/// A point-in-time snapshot of every shard's generation: the sharded
/// analogue of one [`Generation`], with merged views of the domain and
/// violations.
pub struct ShardedSnapshot {
    gens: Vec<Arc<Generation>>,
}

impl ShardedSnapshot {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.gens.len()
    }

    /// The per-shard generations, in partition order.
    pub fn generations(&self) -> &[Arc<Generation>] {
        &self.gens
    }

    /// Per-shard epochs, in partition order.
    pub fn epochs(&self) -> Vec<u64> {
        self.gens.iter().map(|g| g.epoch()).collect()
    }

    /// The longest shard interner. The router keeps all shard interners
    /// identical, but the per-shard snapshots are taken without a global
    /// lock, so one may be a prefix of another; the longest is an
    /// extension of every other and resolves every id any shard mentions.
    pub fn interner(&self) -> &Interner {
        self.gens.iter().map(|g| g.interner()).max_by_key(|i| i.len()).expect("at least one shard")
    }

    /// Looks up an entity across the aligned interners.
    pub fn lookup(&self, value: &EntityValue) -> Option<EntityId> {
        self.interner().lookup(value)
    }

    /// Looks up a symbol by name across the aligned interners.
    pub fn lookup_symbol(&self, name: &str) -> Option<EntityId> {
        self.interner().lookup_symbol(name)
    }

    /// Renders an entity for display.
    pub fn display(&self, id: EntityId) -> String {
        self.interner().display(id)
    }

    /// Per-shard retrieval views, all resolving entities through the
    /// longest interner (see [`ShardedSnapshot::interner`]). Feed these
    /// to the query layer's scatter-gather union view or evaluate them
    /// individually on the collocated fast path.
    pub fn views(&self) -> Vec<ClosureView<'_>> {
        let interner = self.interner();
        self.gens.iter().map(|g| g.view_with_interner(interner)).collect()
    }

    /// Per-shard views resolving through a caller-provided extension
    /// interner (the sharded analogue of
    /// [`Generation::view_with_interner`]).
    pub fn views_with_interner<'a>(&'a self, interner: &'a Interner) -> Vec<ClosureView<'a>> {
        self.gens.iter().map(|g| g.view_with_interner(interner)).collect()
    }

    /// Whether a closure fact has an exact (target-lift-free) derivation,
    /// judged by its owner shard — the shard that holds every derivation
    /// of the fact under the broadcast invariant.
    pub fn is_exact(&self, f: &Fact) -> bool {
        self.gens[shard_of(f.s, self.gens.len())].closure().is_exact(f)
    }

    /// The merged active domain: every entity occurring in any shard's
    /// closure, sorted and deduplicated.
    pub fn domain(&self) -> Vec<EntityId> {
        let mut merged: BTreeSet<EntityId> = BTreeSet::new();
        for g in &self.gens {
            merged.extend(g.closure().domain().iter());
        }
        merged.into_iter().collect()
    }

    /// The union of every shard's integrity violations, deduplicated.
    /// Violations' premises always share a source entity, so each global
    /// violation surfaces on (at least) the owner shard, and a broadcast
    /// fact's violation may surface on several — hence the dedup.
    pub fn violations(&self) -> Vec<Violation> {
        let mut merged: Vec<Violation> = Vec::new();
        for g in &self.gens {
            for v in g.closure().violations() {
                if !merged.contains(v) {
                    merged.push(v.clone());
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::FactView;

    fn ids(snap: &ShardedSnapshot, names: &[&str]) -> Vec<EntityId> {
        names.iter().map(|n| snap.lookup_symbol(n).expect(n)).collect()
    }

    /// Union of all shard closures, as display strings (portable across
    /// interners).
    fn union_facts(snap: &ShardedSnapshot) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for g in snap.generations() {
            for f in g.closure().iter() {
                out.insert(format!(
                    "({}, {}, {})",
                    snap.display(f.s),
                    snap.display(f.r),
                    snap.display(f.t)
                ));
            }
        }
        out
    }

    fn single_facts(db: &mut Database) -> BTreeSet<String> {
        db.refresh().unwrap();
        let store_display: Vec<(Fact, String)> = {
            let closure = db.closure().unwrap();
            closure.iter().map(|f| (f, String::new())).collect()
        };
        store_display
            .into_iter()
            .map(|(f, _)| {
                format!(
                    "({}, {}, {})",
                    db.store().display(f.s),
                    db.store().display(f.r),
                    db.store().display(f.t)
                )
            })
            .collect()
    }

    #[test]
    fn interners_stay_aligned_across_shards() {
        let db = ShardedDatabase::new(4).unwrap();
        db.insert("A", "R", "B").unwrap();
        db.insert("C", "R", "D").unwrap();
        db.insert("E", "gen", "F").unwrap();
        let snap = db.snapshot();
        let reference: Vec<(EntityId, EntityValue)> =
            snap.gens[0].interner().iter().map(|(id, v)| (id, v.clone())).collect();
        for g in snap.generations() {
            let this: Vec<(EntityId, EntityValue)> =
                g.interner().iter().map(|(id, v)| (id, v.clone())).collect();
            assert_eq!(this, reference);
        }
    }

    #[test]
    fn structural_facts_are_broadcast() {
        let db = ShardedDatabase::new(3).unwrap();
        db.insert("EMPLOYEE", "gen", "PERSON").unwrap();
        let snap = db.snapshot();
        let [employee, gen, person] = ids(&snap, &["EMPLOYEE", "gen", "PERSON"])[..] else {
            unreachable!()
        };
        for g in snap.generations() {
            assert!(g.closure().contains(&Fact::new(employee, gen, person)));
        }
    }

    #[test]
    fn ordinary_facts_route_to_owner_only() {
        let db = ShardedDatabase::new(4).unwrap();
        db.insert("JOHN", "LIKES", "FELIX").unwrap();
        let snap = db.snapshot();
        let john = snap.lookup_symbol("JOHN").unwrap();
        let holders: Vec<usize> = (0..4).filter(|&i| !snap.gens[i].store().is_empty()).collect();
        assert_eq!(holders, vec![db.shard_of(john)]);
        assert_eq!(db.metrics_snapshot().shard.route_owner, 1);
    }

    #[test]
    fn membership_inference_is_locally_complete() {
        // (JOHN ∈ EMPLOYEE) + (EMPLOYEE EARNS SALARY) ⇒ (JOHN EARNS SALARY)
        // must appear on JOHN's shard even though EMPLOYEE's facts were
        // written "elsewhere" (EMPLOYEE is class-like, so broadcast).
        let db = ShardedDatabase::new(4).unwrap();
        db.insert("JOHN", "isa", "EMPLOYEE").unwrap();
        db.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
        let snap = db.snapshot();
        let [john, earns, salary] = ids(&snap, &["JOHN", "EARNS", "SALARY"])[..] else {
            unreachable!()
        };
        let owner = &snap.views()[db.shard_of(john)];
        assert!(owner.holds(&Fact::new(john, earns, salary)));
    }

    #[test]
    fn promotion_rebroadcasts_existing_facts() {
        // EMPLOYEE's ordinary fact lands on its owner shard first; the
        // later (JOHN ∈ EMPLOYEE) promotes EMPLOYEE to class-like and the
        // existing fact must be re-broadcast so JOHN's shard can infer.
        let db = ShardedDatabase::new(4).unwrap();
        db.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
        db.insert("JOHN", "isa", "EMPLOYEE").unwrap();
        let snap = db.snapshot();
        let [john, earns, salary] = ids(&snap, &["JOHN", "EARNS", "SALARY"])[..] else {
            unreachable!()
        };
        let owner = &snap.views()[db.shard_of(john)];
        assert!(owner.holds(&Fact::new(john, earns, salary)));
        assert!(db.metrics_snapshot().shard.route_rebroadcast >= 1);
    }

    #[test]
    fn inversion_across_shards_via_active_rels() {
        // (JOHN LIKES FELIX) + (LIKES inv LIKED-BY) ⇒ (FELIX LIKED-BY JOHN)
        // on FELIX's shard — LIKES facts must be broadcast once LIKES
        // becomes inv-active, whichever order the facts arrive in.
        for order in [true, false] {
            let db = ShardedDatabase::new(4).unwrap();
            if order {
                db.insert("LIKES", "inv", "LIKED-BY").unwrap();
                db.insert("JOHN", "LIKES", "FELIX").unwrap();
            } else {
                db.insert("JOHN", "LIKES", "FELIX").unwrap();
                db.insert("LIKES", "inv", "LIKED-BY").unwrap();
            }
            let snap = db.snapshot();
            let [john, felix, liked_by] = ids(&snap, &["JOHN", "FELIX", "LIKED-BY"])[..] else {
                unreachable!()
            };
            let owner = &snap.views()[db.shard_of(felix)];
            assert!(
                owner.holds(&Fact::new(felix, liked_by, john)),
                "inversion missing on target's shard (order={order})"
            );
        }
    }

    #[test]
    fn union_of_shard_closures_equals_single_store_closure() {
        let build = |db: &mut Database| {
            db.add("EMPLOYEE", "gen", "PERSON");
            db.add("JOHN", "isa", "EMPLOYEE");
            db.add("MARY", "isa", "EMPLOYEE");
            db.add("EMPLOYEE", "EARNS", "SALARY");
            db.add("LIKES", "inv", "LIKED-BY");
            db.add("JOHN", "LIKES", "FELIX");
            db.add("PERSON", "OWNS", "STUFF");
        };
        let mut single = Database::new();
        build(&mut single);
        let expected = single_facts(&mut single);
        for n in [1, 2, 4] {
            let db = ShardedDatabase::new(n).unwrap();
            db.insert("EMPLOYEE", "gen", "PERSON").unwrap();
            db.insert("JOHN", "isa", "EMPLOYEE").unwrap();
            db.insert("MARY", "isa", "EMPLOYEE").unwrap();
            db.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
            db.insert("LIKES", "inv", "LIKED-BY").unwrap();
            db.insert("JOHN", "LIKES", "FELIX").unwrap();
            db.insert("PERSON", "OWNS", "STUFF").unwrap();
            assert_eq!(union_facts(&db.snapshot()), expected, "n={n}");
        }
    }

    #[test]
    fn removal_fans_out_to_broadcast_copies() {
        let db = ShardedDatabase::new(4).unwrap();
        db.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
        db.insert("JOHN", "isa", "EMPLOYEE").unwrap(); // promotes + rebroadcasts
        let snap = db.snapshot();
        let [employee, earns, salary] = ids(&snap, &["EMPLOYEE", "EARNS", "SALARY"])[..] else {
            unreachable!()
        };
        assert!(db.remove(&Fact::new(employee, earns, salary)).unwrap());
        let snap = db.snapshot();
        for g in snap.generations() {
            assert!(!g.store().contains(&Fact::new(employee, earns, salary)));
            assert!(!g.closure().contains(&Fact::new(employee, earns, salary)));
        }
    }

    #[test]
    fn from_store_matches_routed_inserts() {
        let mut store = FactStore::new();
        store.add("EMPLOYEE", "gen", "PERSON");
        store.add("JOHN", "isa", "EMPLOYEE");
        store.add("EMPLOYEE", "EARNS", "SALARY");
        store.add("JOHN", "LIKES", "FELIX");
        let bulk = ShardedDatabase::from_store(3, &store).unwrap();

        let routed = ShardedDatabase::new(3).unwrap();
        routed.insert("EMPLOYEE", "gen", "PERSON").unwrap();
        routed.insert("JOHN", "isa", "EMPLOYEE").unwrap();
        routed.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
        routed.insert("JOHN", "LIKES", "FELIX").unwrap();

        assert_eq!(union_facts(&bulk.snapshot()), union_facts(&routed.snapshot()));
        // Same per-shard base placement, too.
        for i in 0..3 {
            assert_eq!(
                bulk.snapshot().generations()[i].store().len(),
                routed.snapshot().generations()[i].store().len(),
                "shard {i} placement differs"
            );
        }
    }

    #[test]
    fn collocated_user_rule_keeps_partitioning() {
        let db = ShardedDatabase::new(4).unwrap();
        let employee = db.entity("EMPLOYEE");
        let status = db.entity("STATUS");
        let paid = db.entity("PAID");
        let mut b = Rule::builder("well-paid");
        let x = b.var("x");
        let rule = b.when(x, special::ISA, employee).then(x, status, paid).build().unwrap();
        db.insert("RICH", "WANTS", "MORE").unwrap();
        db.add_rule(rule).unwrap();
        db.insert("JOHN", "isa", "EMPLOYEE").unwrap();
        let snap = db.snapshot();
        let john = snap.lookup_symbol("JOHN").unwrap();
        let owner = &snap.views()[db.shard_of(john)];
        assert!(owner.holds(&Fact::new(john, status, paid)));
        // The ordinary RICH fact stayed owner-routed: no broadcast_all.
        let rich = snap.lookup_symbol("RICH").unwrap();
        let holders: usize = (0..4)
            .filter(|&i| {
                snap.generations()[i].store().matching(Pattern::from_source(rich)).next().is_some()
            })
            .count();
        assert_eq!(holders, 1, "collocated rule must not degrade to replication");
    }

    #[test]
    fn non_collocated_user_rule_degrades_to_replication() {
        let db = ShardedDatabase::new(4).unwrap();
        let knows = db.entity("KNOWS");
        let reaches = db.entity("REACHES");
        let mut b = Rule::builder("friends-of-friends");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        let rule = b.when(x, knows, y).when(y, knows, z).then(x, reaches, z).build().unwrap();
        db.insert("A", "KNOWS", "B").unwrap();
        db.add_rule(rule).unwrap();
        db.insert("B", "KNOWS", "C").unwrap();
        let snap = db.snapshot();
        let a = snap.lookup_symbol("A").unwrap();
        let c = snap.lookup_symbol("C").unwrap();
        let owner = &snap.views()[db.shard_of(a)];
        assert!(owner.holds(&Fact::new(a, reaches, c)));
        // Everything is everywhere now.
        for g in snap.generations() {
            assert!(g.store().len() >= 2);
        }
    }

    #[test]
    fn try_insert_rejects_atomically_across_shards() {
        let db = ShardedDatabase::new(3).unwrap();
        db.insert("LOVES", "contra", "HATES").unwrap();
        db.insert("JOHN", "LOVES", "MARY").unwrap();
        let before: Vec<u64> = db.epochs();
        assert!(matches!(
            db.try_insert("JOHN", "HATES", "MARY"),
            Err(ShardedError::Transaction(_))
        ));
        assert_eq!(db.epochs(), before, "rejected transaction must publish nothing");
        db.try_insert("JOHN", "LOVES", "SUE").unwrap();
        let snap = db.snapshot();
        let john = snap.lookup_symbol("JOHN").unwrap();
        let loves = snap.lookup_symbol("LOVES").unwrap();
        let sue = snap.lookup_symbol("SUE").unwrap();
        assert!(snap.views()[db.shard_of(john)].holds(&Fact::new(john, loves, sue)));
    }

    #[test]
    fn violations_merge_and_dedup() {
        let db = ShardedDatabase::new(3).unwrap();
        db.insert("LOVES", "contra", "HATES").unwrap();
        db.insert("JOHN", "LOVES", "MARY").unwrap();
        db.insert("JOHN", "HATES", "MARY").unwrap();
        let sharded = db.snapshot().violations();

        let mut single = Database::new();
        single.add("LOVES", "contra", "HATES");
        single.add("JOHN", "LOVES", "MARY");
        single.add("JOHN", "HATES", "MARY");
        let expected = single.validate().unwrap().len();
        assert_eq!(sharded.len(), expected);
    }

    #[test]
    fn merged_delta_ring_is_precise_across_shards() {
        let db = ShardedDatabase::new(2).unwrap();
        let floor = db.epochs();
        db.insert("A", "R1", "B").unwrap();
        db.insert("C", "R2", "D").unwrap();
        let now = db.epochs();
        let snap = db.snapshot();
        let rels = db.rels_changed_between(&floor, &now).expect("precise");
        assert!(rels.contains(&snap.lookup_symbol("R1").unwrap()));
        assert!(rels.contains(&snap.lookup_symbol("R2").unwrap()));
    }

    #[test]
    fn durable_shards_recover_after_reopen() {
        let dir = std::env::temp_dir().join(format!("loosedb-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = ShardedDatabase::open_durable(&dir, 3, SyncPolicy::Always).unwrap();
            db.insert("JOHN", "isa", "EMPLOYEE").unwrap();
            db.insert("EMPLOYEE", "EARNS", "SALARY").unwrap();
            db.insert("JOHN", "LIKES", "FELIX").unwrap();
            let john = db.snapshot().lookup_symbol("JOHN").unwrap();
            db.remove(&Fact::new(
                john,
                db.snapshot().lookup_symbol("LIKES").unwrap(),
                db.snapshot().lookup_symbol("FELIX").unwrap(),
            ))
            .unwrap();
            db.sync().unwrap();
        }
        let db = ShardedDatabase::open_durable(&dir, 3, SyncPolicy::Always).unwrap();
        let snap = db.snapshot();
        let [john, earns, salary] = ids(&snap, &["JOHN", "EARNS", "SALARY"])[..] else {
            unreachable!()
        };
        assert!(snap.views()[db.shard_of(john)].holds(&Fact::new(john, earns, salary)));
        assert!(
            snap.lookup_symbol("FELIX").is_none() || {
                let felix = snap.lookup_symbol("FELIX").unwrap();
                let likes = snap.lookup_symbol("LIKES").unwrap();
                !snap.views()[db.shard_of(john)].holds(&Fact::new(john, likes, felix))
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
