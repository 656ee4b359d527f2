//! Concurrent browsing sessions over a database that publishes snapshots.
//!
//! [`SnapshotSession`] is the snapshot-isolated counterpart of
//! [`crate::Session`]: it holds an `Arc` of its database instead of owning
//! it, takes a fresh snapshot per operation, and evaluates navigation,
//! probing and queries entirely outside any lock. Many sessions on
//! distinct threads share one database; a writer publishing a new
//! snapshot never blocks them and is never blocked by them.
//!
//! The session is written once, over a [`Snapshots`] provider that
//! supplies only what differs between the databases publishing snapshots:
//!
//! * [`SharedDatabase`] ([`SharedSession`]): a snapshot is one
//!   `Arc<Generation>`, its epoch one `u64`, and every read runs over a
//!   bare [`ClosureView`];
//! * [`ShardedDatabase`] ([`ShardedSession`]): a snapshot is one
//!   generation per shard, its epoch the per-shard vector, and reads run
//!   over the deduplicating [`UnionView`] — except queries, which scatter
//!   whole to every shard when collocated ([`eval_sharded`]).
//!
//! Two pieces of machinery make a read-only session fully featured:
//!
//! * **Extension interner.** Query text may mention constants the frozen
//!   snapshot never interned (`(?x, EARNS, 99999)` where no fact uses
//!   `99999`). Parsing is first attempted against the snapshot's frozen
//!   interner ([`loosedb_query::parse_frozen`]); on
//!   [`FrozenParseError::UnknownConstant`] the session falls back to a
//!   private clone of that interner, extends it, and evaluates through it.
//!   Interners are append-only, so ids below the snapshot's length resolve
//!   identically and the new ids cannot occur in any closure fact — the
//!   query is answered exactly as if the constants had been interned
//!   before the snapshot froze.
//! * **Epoch-keyed caches with carry-over.** Answers are cached per
//!   expanded query text, plans per query shape. When the epoch moves, the
//!   session asks the database *which relationships* the intervening
//!   publishes touched ([`Snapshots::delta_between`]) and drops only the
//!   cached answers whose dependency relationships intersect the delta;
//!   every other answer survives the write. Queries whose dependencies
//!   cannot be pinned to frozen relationship constants (unbound
//!   relationship positions, universal quantifiers, disjunctions,
//!   mathematical comparators, extension-interned constants) are
//!   invalidated on any epoch move ([`CacheStats`] reports hit and carry
//!   rates). A sharded epoch is keyed on the *sum* of its per-shard epochs:
//!   every publish raises one shard's epoch, so the sum is monotone and
//!   equal only when no shard moved.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use loosedb_engine::{
    ClosureView, DeltaSummary, FactView, Generation, ShardedDatabase, ShardedSnapshot,
    SharedDatabase, Taxonomy,
};
use loosedb_obs::{CacheCounters, Metrics};
use loosedb_query::{
    eval_planned_stats, eval_sharded, eval_sharded_planned, plan_and_eval_stats, Answer,
    AtomOrdering, EvalError, EvalOptions, EvalStats, Formula, FrozenParseError, PlanCache,
    PlanCacheStats, Query, QueryPlan, ScatterMetrics, UnionView,
};
use loosedb_store::{special, EntityId, Interner, Pattern};

use crate::navigate::{navigate, try_entity, NavigateOptions};
use crate::operators::{relation, Definitions, FunctionView, RelationTable};
use crate::probe::{probe_with_taxonomy, ProbeOptions, ProbeReport};
use crate::session::{part, record_eval, record_nav, record_probe, resolve, SessionError};
use crate::table::GroupedTable;

/// Hit/miss counters of a session's query cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Answers served from the cache.
    pub hits: u64,
    /// Answers that had to be evaluated.
    pub misses: u64,
    /// Entries carried over a publish because their dependency
    /// relationships were disjoint from the write delta.
    pub carried: u64,
    /// Entries dropped to make room when the cache was full.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum number of entries retained.
    pub capacity: usize,
}

/// What a cached answer depends on — the invalidation granularity.
#[derive(Clone, Debug)]
enum Deps {
    /// The answer can only change if a write touches one of these
    /// relationship entities (all frozen-interned constants).
    Rels(BTreeSet<EntityId>),
    /// The answer may depend on anything (unbound relationship position,
    /// `Δ` projection, math comparator, universal quantifier, disjunction,
    /// or an extension-interned constant): drop it on any epoch move.
    All,
}

/// Computes the relationships a query's answer can depend on.
///
/// Precise tracking requires every atom's relationship to be a constant
/// interned *below* `frozen_len` (the snapshot's interner length): an
/// extension-interned constant may be re-interned at a different id by a
/// later writer, so its delta would not match ours. Structure that pulls
/// in the whole database disqualifies too: `∀` ranges over the active
/// domain, disjunctions pad columns from it, `Δ` in relationship position
/// projects over every individual relationship, and mathematical
/// comparators enumerate interned numbers (which writes extend).
fn dependency_rels(query: &Query, frozen_len: usize) -> Deps {
    fn walk(f: &Formula, frozen_len: usize, out: &mut BTreeSet<EntityId>) -> bool {
        match f {
            Formula::Atom(t) => {
                let Some(r) = t.r.as_const() else { return false };
                if special::is_math(r) || r == special::TOP || r.index() >= frozen_len {
                    return false;
                }
                out.insert(r);
                true
            }
            Formula::And(a, b) => walk(a, frozen_len, out) && walk(b, frozen_len, out),
            Formula::Exists(_, a) => walk(a, frozen_len, out),
            Formula::Or(..) | Formula::ForAll(..) => false,
        }
    }
    let mut rels = BTreeSet::new();
    if walk(&query.formula, frozen_len, &mut rels) {
        Deps::Rels(rels)
    } else {
        Deps::All
    }
}

struct CacheEntry {
    last_used: u64,
    answer: Arc<Answer>,
    deps: Deps,
}

/// An LRU map from expanded query text to its answer plus the
/// relationships the answer depends on. When the epoch moves, entries
/// whose dependencies are disjoint from the publish delta's relationships
/// are carried over; the rest (and every `Deps::All` entry) are dropped.
struct QueryCache {
    epoch: u64,
    tick: u64,
    map: HashMap<String, CacheEntry>,
    /// Per-session counters and capacity (`len` is read off the map).
    stats: CacheStats,
    /// Registry mirror (`browse.query_cache.*`); the local counters stay
    /// authoritative per session, the mirror aggregates across sessions.
    metrics: CacheCounters,
}

impl QueryCache {
    fn new(capacity: usize, metrics: CacheCounters) -> Self {
        let stats = CacheStats { capacity, ..CacheStats::default() };
        QueryCache { epoch: 0, tick: 0, map: HashMap::new(), stats, metrics }
    }

    /// Brings the cache up to `epoch`: `Some(rels)` (the relationships
    /// the intervening publishes touched) keeps disjoint entries, `None`
    /// (imprecise span) clears everything.
    fn roll_with(&mut self, epoch: u64, changed: Option<&BTreeSet<EntityId>>) {
        if epoch == self.epoch {
            return;
        }
        match changed {
            Some(changed) if !self.map.is_empty() => {
                self.map.retain(|_, e| match &e.deps {
                    Deps::Rels(d) => d.intersection(changed).next().is_none(),
                    Deps::All => false,
                });
                self.stats.carried += self.map.len() as u64;
                self.metrics.carried.add(self.map.len() as u64);
            }
            _ => self.map.clear(),
        }
        self.metrics.len.set(self.map.len() as u64);
        self.epoch = epoch;
    }

    fn get(&mut self, key: &str) -> Option<Arc<Answer>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.stats.hits += 1;
                self.metrics.hits.inc();
                Some(Arc::clone(&entry.answer))
            }
            None => {
                self.stats.misses += 1;
                self.metrics.misses.inc();
                None
            }
        }
    }

    fn insert(&mut self, key: String, answer: Arc<Answer>, deps: Deps) {
        if self.stats.capacity == 0 {
            return;
        }
        if self.map.len() >= self.stats.capacity && !self.map.contains_key(&key) {
            // O(n) eviction of the least-recently-used entry; capacities
            // are interactive-session sized, so a linked list would be
            // overkill.
            if let Some(lru) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                self.stats.evictions += 1;
                self.metrics.evictions.inc();
            }
        }
        self.tick += 1;
        self.map.insert(key, CacheEntry { last_used: self.tick, answer, deps });
        self.metrics.len.set(self.map.len() as u64);
    }

    fn stats(&self) -> CacheStats {
        CacheStats { len: self.map.len(), ..self.stats }
    }
}

/// A private extension of one snapshot's interner, for resolving query
/// constants the frozen snapshot has never seen.
struct ExtInterner {
    /// The epoch key of the snapshot it extends.
    epoch: u64,
    interner: Interner,
}

/// Parses `src` against a snapshot's frozen interner, extending the
/// private interner only when the text mentions unknown constants.
/// Returns the query and the interner to evaluate it under (the
/// snapshot's own, or the session's extension).
///
/// A free function over the extension slot rather than a method: the
/// returned interner keeps `ext` borrowed, and callers still need the
/// session's *other* fields (the plan cache in particular) while they
/// evaluate.
fn parse_on<'a>(
    ext: &'a mut Option<ExtInterner>,
    frozen: &'a Interner,
    epoch: u64,
    src: &str,
) -> Result<(Query, &'a Interner), SessionError> {
    match loosedb_query::parse_frozen(src, frozen) {
        Ok(query) => Ok((query, frozen)),
        Err(FrozenParseError::Parse(e)) => Err(SessionError::Parse(e)),
        Err(FrozenParseError::UnknownConstant { .. }) => {
            // Refresh the extension whenever the epoch moves: a stale
            // extension would miss constants interned by later writes.
            if ext.as_ref().is_none_or(|e| e.epoch != epoch) {
                *ext = Some(ExtInterner { epoch, interner: frozen.clone() });
            }
            let interner = &mut ext.as_mut().expect("just ensured").interner;
            let query = loosedb_query::parse(src, interner)?;
            Ok((query, &*interner))
        }
    }
}

/// A database that publishes immutable snapshots — what a
/// [`SnapshotSession`] reads from. Implementors supply only what differs
/// between stores; the session writes everything else once.
pub trait Snapshots {
    /// One point-in-time snapshot.
    type Snapshot;
    /// Where a snapshot sits in the publish history.
    type Epoch: PartialEq;
    /// The retrieval view reads run over.
    type View<'a>: FactView;

    /// The current snapshot.
    fn snapshot(&self) -> Self::Snapshot;

    /// The metrics registry session observations land in.
    fn metrics(&self) -> &Arc<Metrics>;

    /// A snapshot's epoch.
    fn epoch(snap: &Self::Snapshot) -> Self::Epoch;

    /// An epoch as one number: it grows with every publish, so equal keys
    /// mean equal epochs. Caches, extension interners and served
    /// responses are keyed on it.
    fn epoch_key(epoch: &Self::Epoch) -> u64;

    /// What the publishes in the span `(from, to]` touched.
    fn delta_between(&self, from: &Self::Epoch, to: &Self::Epoch) -> DeltaSummary;

    /// The snapshot's interner: it resolves every id the snapshot's facts
    /// mention.
    fn interner(snap: &Self::Snapshot) -> &Interner;

    /// The `≺` taxonomy probing retracts through.
    fn taxonomy(snap: &Self::Snapshot) -> Taxonomy<'_>;

    /// Runs `f` over a view of the snapshot that resolves entities
    /// through `interner` (the snapshot's own, or an extension of it).
    fn with_view<R>(
        &self,
        snap: &Self::Snapshot,
        interner: &Interner,
        f: impl FnOnce(&Self::View<'_>) -> R,
    ) -> R;

    /// Evaluates a query, replaying `plan` when the session cached one
    /// (issuing no planning probes) and planning afresh otherwise — the
    /// fresh plan is returned for the session's plan cache.
    fn eval(
        &self,
        snap: &Self::Snapshot,
        interner: &Interner,
        query: &Query,
        opts: EvalOptions,
        plan: Option<&QueryPlan>,
    ) -> Result<(Answer, Option<QueryPlan>, EvalStats), EvalError> {
        self.with_view(snap, interner, |view| match plan {
            Some(plan) => eval_planned_stats(query, view, opts, plan).map(|(a, s)| (a, None, s)),
            None => plan_and_eval_stats(query, view, opts).map(|(a, p, s)| (a, Some(p), s)),
        })
    }
}

/// A browsing session over a database that publishes snapshots: the
/// concurrent, read-only counterpart of [`crate::Session`].
///
/// Every operation snapshots the database once and evaluates against that
/// snapshot, so each result is internally consistent even while writers
/// publish; consecutive operations may observe successive snapshots
/// (monotonically — epochs never go backwards).
pub struct SnapshotSession<P: Snapshots> {
    db: Arc<P>,
    defs: Definitions,
    /// Options used for navigation displays.
    pub nav_opts: NavigateOptions,
    /// Options used for probing.
    pub probe_opts: ProbeOptions,
    history: Vec<EntityId>,
    ext: Option<ExtInterner>,
    cache: QueryCache,
    plans: PlanCache,
    /// The epoch the caches were last rolled to.
    epoch: P::Epoch,
    /// The snapshot the last query or probe ran against: rendering and
    /// [`SnapshotSession::last_epoch`] read from it, not from whatever
    /// was published since.
    last: P::Snapshot,
}

/// A session over a [`SharedDatabase`].
pub type SharedSession = SnapshotSession<SharedDatabase>;

/// A scatter-gather session over a [`ShardedDatabase`].
pub type ShardedSession = SnapshotSession<ShardedDatabase>;

/// Default query-cache capacity (entries) for a session.
const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Default plan-cache capacity (distinct query shapes) for a session.
const DEFAULT_PLAN_CAPACITY: usize = 64;

impl<P: Snapshots> SnapshotSession<P> {
    /// Starts a session over a database.
    pub fn new(db: Arc<P>) -> Self {
        Self::with_cache_capacity(db, DEFAULT_CACHE_CAPACITY)
    }

    /// Starts a session with a specific query-cache capacity (0 disables
    /// caching).
    pub fn with_cache_capacity(db: Arc<P>, capacity: usize) -> Self {
        let metrics = db.metrics();
        let last = db.snapshot();
        SnapshotSession {
            cache: QueryCache::new(capacity, metrics.query_cache.clone()),
            plans: PlanCache::with_metrics(DEFAULT_PLAN_CAPACITY, metrics.plan_cache.clone()),
            epoch: P::epoch(&last),
            last,
            db,
            defs: Definitions::new(),
            nav_opts: NavigateOptions::default(),
            probe_opts: ProbeOptions::default(),
            history: Vec::new(),
            ext: None,
        }
    }

    /// A fresh snapshot: what the next operation would read.
    pub fn snapshot(&self) -> P::Snapshot {
        self.db.snapshot()
    }

    /// The epoch (summed across shards) of the snapshot the last query or
    /// probe ran against — the epoch its answer or menu holds at.
    pub fn last_epoch(&self) -> u64 {
        P::epoch_key(&P::epoch(&self.last))
    }

    /// Hit/miss counters of this session's query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Hit/miss counters of this session's plan cache (query *shapes*
    /// whose join order was memoized across evaluations).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// The focus history, oldest first.
    pub fn history(&self) -> &[EntityId] {
        &self.history
    }

    /// Focuses on an entity: renders its neighborhood `(E, *, *)` and
    /// pushes it on the focus history.
    pub fn focus(&mut self, name: &str) -> Result<GroupedTable, SessionError> {
        let snap = self.db.snapshot();
        let e = resolve(P::interner(&snap), name)?;
        let table = self.nav(&snap, Pattern::from_source(e))?;
        self.history.push(e);
        Ok(table)
    }

    /// Returns to the previous focus, re-rendering its neighborhood
    /// against the *current* snapshot.
    pub fn back(&mut self) -> Result<GroupedTable, SessionError> {
        if self.history.len() < 2 {
            return Err(SessionError::NoHistory);
        }
        self.history.pop();
        let e = *self.history.last().expect("non-empty");
        self.nav(&self.db.snapshot(), Pattern::from_source(e))
    }

    /// Navigates an arbitrary template given as three names (`"*"` for a
    /// free position).
    pub fn navigate_parts(
        &mut self,
        s: &str,
        r: &str,
        t: &str,
    ) -> Result<GroupedTable, SessionError> {
        let snap = self.db.snapshot();
        let i = P::interner(&snap);
        let pattern = Pattern::new(part(i, s)?, part(i, r)?, part(i, t)?);
        self.nav(&snap, pattern)
    }

    fn nav(&self, snap: &P::Snapshot, pattern: Pattern) -> Result<GroupedTable, SessionError> {
        let start = Instant::now();
        let table =
            self.db.with_view(snap, P::interner(snap), |v| navigate(v, pattern, &self.nav_opts))?;
        record_nav(self.db.metrics(), start);
        Ok(table)
    }

    /// Rolls the answer and plan caches up to `epoch`, keeping every
    /// entry the intervening publishes provably did not touch.
    fn roll_caches(&mut self, epoch: P::Epoch) {
        let key = P::epoch_key(&epoch);
        match self.db.delta_between(&self.epoch, &epoch) {
            DeltaSummary::Precise(changed) => {
                self.cache.roll_with(key, Some(&changed));
                self.plans.roll(key, Some(&changed));
            }
            DeltaSummary::FullAt(_) => {
                self.cache.roll_with(key, None);
                // A full recompute at a known epoch (removal, rule
                // change): answers drop, but structurally tracked plans
                // survive — a stale join order costs performance, never
                // correctness.
                self.plans.roll_stale(key);
            }
            DeltaSummary::Unknown => {
                self.cache.roll_with(key, None);
                self.plans.roll(key, None);
            }
        }
        self.epoch = epoch;
    }

    /// Evaluates a standard query. Answers are cached per expanded text;
    /// a repeated query on an unchanged database is served from the
    /// cache, and a published write invalidates only the cached answers
    /// whose dependency relationships intersect the write delta (answers
    /// that cannot be tracked precisely are dropped on any publish).
    ///
    /// Below the answer cache sits a *plan* cache keyed on query shape:
    /// when the same formula is re-evaluated (after a write invalidated
    /// its answer, or under different constants with identical structure),
    /// the memoized join order is replayed instead of re-probing the view,
    /// and the same delta-based carry-over keeps plans alive across
    /// disjoint writes. A replayed plan only fixes the join order — if it
    /// is stale it costs performance, never correctness — so plans can be
    /// carried more aggressively than answers.
    pub fn query(&mut self, src: &str) -> Result<Arc<Answer>, SessionError> {
        let expanded = self.defs.maybe_expand(src)?;
        self.last = self.db.snapshot();
        let epoch = P::epoch(&self.last);
        if epoch != self.epoch {
            self.roll_caches(epoch);
        }
        if let Some(hit) = self.cache.get(&expanded) {
            return Ok(hit);
        }
        let (db, snap, opts) = (&self.db, &self.last, self.probe_opts.eval);
        let frozen = P::interner(snap);
        let (query, interner) =
            parse_on(&mut self.ext, frozen, P::epoch_key(&self.epoch), &expanded)?;
        let deps = dependency_rels(&query, frozen.len());
        let start = Instant::now();
        // Syntactic ordering needs no probes, so a plan cache would only
        // add bookkeeping.
        let greedy = opts.ordering == AtomOrdering::Greedy;
        let cached = if greedy { self.plans.get(&query, &opts) } else { None };
        let (answer, plan, stats) = db.eval(snap, interner, &query, opts, cached.as_deref())?;
        if let (true, Some(plan)) = (greedy, plan) {
            self.plans.insert(&query, &opts, Arc::new(plan));
        }
        record_eval(db.metrics(), start, answer.len(), stats);
        let answer = Arc::new(answer);
        self.cache.insert(expanded, Arc::clone(&answer), deps);
        Ok(answer)
    }

    /// Probes a query (§5): evaluates it and, on failure, runs automatic
    /// retraction. Probe reports are not cached (they enumerate
    /// alternatives, not answers).
    pub fn probe(&mut self, src: &str) -> Result<ProbeReport, SessionError> {
        let expanded = self.defs.maybe_expand(src)?;
        self.last = self.db.snapshot();
        let key = self.last_epoch();
        let snap = &self.last;
        let (query, interner) = parse_on(&mut self.ext, P::interner(snap), key, &expanded)?;
        let taxonomy = P::taxonomy(snap);
        let opts = &self.probe_opts;
        let report =
            self.db.with_view(snap, interner, |v| probe_with_taxonomy(&query, v, &taxonomy, opts));
        record_probe(self.db.metrics(), &report);
        Ok(report)
    }

    /// The interner the last query or probe resolved its ids against: the
    /// session's extension if it extends that op's snapshot (it is a
    /// superset of the snapshot's interner), the snapshot's own otherwise.
    fn last_interner(&self) -> &Interner {
        match &self.ext {
            Some(e) if e.epoch == self.last_epoch() => &e.interner,
            _ => P::interner(&self.last),
        }
    }

    /// Renders the report of the last [`SnapshotSession::probe`] as its
    /// §5.2 menu. Constants unknown to the snapshot resolve through the
    /// session's extension interner, and a publish since the probe may
    /// have given their ids to other entities (or to none yet), so the
    /// menu is rendered under the probe's own snapshot and extension.
    pub fn render_probe(&self, report: &ProbeReport) -> String {
        report.render_menu(self.last_interner())
    }

    /// Renders the answer of the last [`SnapshotSession::query`] as
    /// display strings, under that query's own snapshot and extension —
    /// the answer analogue of [`SnapshotSession::render_probe`], used by
    /// the serving layer to put rows on the wire. Mathematical
    /// comparators can bind values that only the extension interned.
    pub fn render_answer(&self, answer: &Answer) -> Vec<Vec<String>> {
        let interner = self.last_interner();
        answer.rows.iter().map(|row| row.iter().map(|&e| interner.display(e)).collect()).collect()
    }

    /// The §6.1 `try(e)` operator.
    pub fn try_entity(&mut self, name: &str) -> Result<GroupedTable, SessionError> {
        let snap = self.db.snapshot();
        let i = P::interner(&snap);
        let e = resolve(i, name)?;
        Ok(self.db.with_view(&snap, i, |v| try_entity(v, e))?)
    }

    /// The §6.1 `relation(s, r1 t1, …)` operator, by entity names.
    pub fn relation(
        &mut self,
        class: &str,
        columns: &[(&str, &str)],
    ) -> Result<RelationTable, SessionError> {
        let snap = self.db.snapshot();
        let i = P::interner(&snap);
        let class = resolve(i, class)?;
        let cols: Vec<(EntityId, EntityId)> = columns
            .iter()
            .map(|(r, t)| Ok((resolve(i, r)?, resolve(i, t)?)))
            .collect::<Result<_, SessionError>>()?;
        Ok(self.db.with_view(&snap, i, |v| relation(v, class, &cols))?)
    }

    /// Renders the evaluation plan of a query without executing it.
    pub fn explain_query(&mut self, src: &str) -> Result<String, SessionError> {
        let expanded = self.defs.maybe_expand(src)?;
        let snap = self.db.snapshot();
        let key = P::epoch_key(&P::epoch(&snap));
        let (query, interner) = parse_on(&mut self.ext, P::interner(&snap), key, &expanded)?;
        Ok(self.db.with_view(&snap, interner, |v| loosedb_query::explain_plan(&query, v)))
    }

    /// The functional view of a relationship (§6.1), optionally restricted
    /// to targets of a class.
    pub fn function(
        &mut self,
        rel: &str,
        target_class: Option<&str>,
    ) -> Result<FunctionView, SessionError> {
        let snap = self.db.snapshot();
        let i = P::interner(&snap);
        let rel = resolve(i, rel)?;
        let class = target_class.map(|c| resolve(i, c)).transpose()?;
        Ok(self.db.with_view(&snap, i, |v| crate::operators::function(v, rel, class))?)
    }

    /// Defines a named operator (§6 definition facility). Definitions are
    /// session-private, like a user's workspace in the paper.
    pub fn define(&mut self, name: &str, arity: usize, body: &str) -> Result<(), SessionError> {
        Ok(self.defs.define(name, arity, body)?)
    }
}

impl Snapshots for SharedDatabase {
    type Snapshot = Arc<Generation>;
    type Epoch = u64;
    type View<'a> = ClosureView<'a>;

    fn snapshot(&self) -> Arc<Generation> {
        SharedDatabase::snapshot(self)
    }

    fn metrics(&self) -> &Arc<Metrics> {
        SharedDatabase::metrics(self)
    }

    fn epoch(snap: &Arc<Generation>) -> u64 {
        snap.epoch()
    }

    fn epoch_key(epoch: &u64) -> u64 {
        *epoch
    }

    fn delta_between(&self, from: &u64, to: &u64) -> DeltaSummary {
        SharedDatabase::delta_between(self, *from, *to)
    }

    fn interner(snap: &Arc<Generation>) -> &Interner {
        snap.interner()
    }

    fn taxonomy(snap: &Arc<Generation>) -> Taxonomy<'_> {
        Taxonomy::new(snap.closure())
    }

    fn with_view<R>(
        &self,
        snap: &Arc<Generation>,
        interner: &Interner,
        f: impl FnOnce(&Self::View<'_>) -> R,
    ) -> R {
        f(&snap.view_with_interner(interner))
    }
}

impl SharedSession {
    /// The shared database this session reads from.
    pub fn shared(&self) -> &Arc<SharedDatabase> {
        &self.db
    }

    /// The epoch of the current generation.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }
}

impl Snapshots for ShardedDatabase {
    type Snapshot = ShardedSnapshot;
    type Epoch = Vec<u64>;
    type View<'a> = UnionView<'a, ClosureView<'a>>;

    fn snapshot(&self) -> ShardedSnapshot {
        ShardedDatabase::snapshot(self)
    }

    fn metrics(&self) -> &Arc<Metrics> {
        ShardedDatabase::metrics(self)
    }

    fn epoch(snap: &ShardedSnapshot) -> Vec<u64> {
        snap.epochs()
    }

    fn epoch_key(epoch: &Vec<u64>) -> u64 {
        epoch.iter().sum()
    }

    fn delta_between(&self, from: &Vec<u64>, to: &Vec<u64>) -> DeltaSummary {
        ShardedDatabase::delta_between(self, from, to)
    }

    fn interner(snap: &ShardedSnapshot) -> &Interner {
        snap.interner()
    }

    fn taxonomy(snap: &ShardedSnapshot) -> Taxonomy<'_> {
        Taxonomy::partitioned(snap.generations().iter().map(|g| g.closure()))
    }

    fn with_view<R>(
        &self,
        snap: &ShardedSnapshot,
        interner: &Interner,
        f: impl FnOnce(&Self::View<'_>) -> R,
    ) -> R {
        let views = snap.views_with_interner(interner);
        f(&UnionView::new(&views, interner)
            .with_metrics(ScatterMetrics::from_metrics(self.metrics())))
    }

    fn eval(
        &self,
        snap: &ShardedSnapshot,
        interner: &Interner,
        query: &Query,
        opts: EvalOptions,
        plan: Option<&QueryPlan>,
    ) -> Result<(Answer, Option<QueryPlan>, EvalStats), EvalError> {
        let views = snap.views_with_interner(interner);
        let scatter = Some(ScatterMetrics::from_metrics(self.metrics()));
        match plan {
            Some(plan) => {
                eval_sharded_planned(query, &views, interner, opts, plan, scatter.as_ref())
                    .map(|(a, s, _)| (a, None, s))
            }
            None => eval_sharded(query, &views, interner, opts, scatter.as_ref())
                .map(|out| (out.answer, Some(out.plan), out.stats)),
        }
    }
}

impl ShardedSession {
    /// The sharded database this session reads from.
    pub fn sharded(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }

    /// The per-shard epochs of the current snapshot.
    pub fn epochs(&self) -> Vec<u64> {
        self.db.epochs()
    }
}

/// The session contract, written once and run over every provider: a
/// [`SharedDatabase`] and a [`ShardedDatabase`] at 1 and at 4 shards.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::value;
    use loosedb_engine::Database;
    use loosedb_store::Fact;

    /// A provider the suite can build and write to.
    trait Fixture: Snapshots + Sized {
        fn empty(shards: usize) -> Self;
        fn put(&self, s: &str, r: &str, t: &str);
        fn retract(&self, f: &Fact) -> bool;
    }

    macro_rules! fixture {
        ($db:ty, $shards:ident => $empty:expr) => {
            impl Fixture for $db {
                fn empty($shards: usize) -> Self {
                    $empty.unwrap()
                }
                fn put(&self, s: &str, r: &str, t: &str) {
                    self.insert(value(s), value(r), value(t)).unwrap();
                }
                fn retract(&self, f: &Fact) -> bool {
                    self.remove(f).unwrap()
                }
            }
        };
    }

    fixture!(SharedDatabase, _shards => SharedDatabase::new(Database::new()));
    fixture!(ShardedDatabase, shards => ShardedDatabase::new(shards));

    const WORLD: [(&str, &str, &str); 5] = [
        ("JOHN", "isa", "EMPLOYEE"),
        ("JOHN", "LIKES", "FELIX"),
        ("JOHN", "FAVORITE-MUSIC", "PC#9-WAM"),
        ("PC#9-WAM", "COMPOSED-BY", "MOZART"),
        ("JOHN", "EARNS", "25000"),
    ];

    fn world<P: Fixture>(shards: usize) -> Arc<P> {
        let db = P::empty(shards);
        for (s, r, t) in WORLD {
            db.put(s, r, t);
        }
        Arc::new(db)
    }

    fn session<P: Fixture>(shards: usize) -> (Arc<P>, SnapshotSession<P>) {
        let db = world::<P>(shards);
        (Arc::clone(&db), SnapshotSession::new(db))
    }

    /// Removes a base fact by names.
    fn retract<P: Fixture>(db: &P, s: &str, r: &str, t: &str) {
        let snap = db.snapshot();
        let id = |name| P::interner(&snap).lookup(&value(name)).unwrap();
        assert!(db.retract(&Fact::new(id(s), id(r), id(t))));
    }

    fn focus_back_and_history<P: Fixture>(shards: usize) {
        let (_, mut s) = session::<P>(shards);
        assert!(s.focus("JOHN").unwrap().title_cells.contains(&"EMPLOYEE".to_string()));
        assert!(s.focus("PC#9-WAM").unwrap().to_string().contains("MOZART"));
        assert_eq!(s.history().len(), 2);
        assert!(s.back().unwrap().title_cells.contains(&"EMPLOYEE".to_string()));
        assert!(matches!(s.back(), Err(SessionError::NoHistory)));
        assert!(s.try_entity("25000").unwrap().to_string().contains("(JOHN, EARNS, 25000)"));
        let nav = s.navigate_parts("JOHN", "*", "MOZART").unwrap();
        assert!(nav.columns.iter().any(|(h, _)| h == "FAVORITE-MUSIC.PC#9-WAM.COMPOSED-BY"));
        assert_eq!(s.query("(?x, COMPOSED-BY, MOZART)").unwrap().len(), 1);
    }

    fn later_writes_become_visible<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        assert!(matches!(s.focus("MARY"), Err(SessionError::UnknownEntity(_))));
        db.put("MARY", "isa", "EMPLOYEE");
        assert!(s.focus("MARY").unwrap().title_cells.contains(&"EMPLOYEE".to_string()));
    }

    fn cache_evicts_least_recently_used<P: Fixture>(shards: usize) {
        let mut s = SnapshotSession::with_cache_capacity(world::<P>(shards), 2);
        s.query("(JOHN, LIKES, ?x)").unwrap();
        s.query("(JOHN, EARNS, ?x)").unwrap();
        s.query("(JOHN, LIKES, ?x)").unwrap(); // touch; EARNS is now LRU
        s.query("(JOHN, isa, ?x)").unwrap(); // evicts EARNS
        let before = s.cache_stats().hits;
        s.query("(JOHN, LIKES, ?x)").unwrap();
        assert_eq!(s.cache_stats().hits, before + 1, "LIKES must still be cached");
        assert_eq!((s.cache_stats().len, s.cache_stats().evictions), (2, 1));
    }

    fn cache_invalidates_only_touched_entries<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        let likes = s.query("(JOHN, LIKES, ?x)").unwrap();
        let earns = s.query("(JOHN, EARNS, ?x)").unwrap();
        assert!(Arc::ptr_eq(&likes, &s.query("(JOHN, LIKES, ?x)").unwrap()));
        assert_eq!((s.cache_stats().hits, s.cache_stats().misses), (1, 2));
        db.put("JOHN", "LIKES", "MARY");
        let likes2 = s.query("(JOHN, LIKES, ?x)").unwrap();
        assert_eq!(likes2.len(), 2, "the stale LIKES answer must be re-evaluated");
        assert!(Arc::ptr_eq(&earns, &s.query("(JOHN, EARNS, ?x)").unwrap()));
    }

    fn cache_carries_answers_over_disjoint_writes_and_removals<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        let likes = s.query("(JOHN, LIKES, ?x)").unwrap();
        let earns = s.query("(JOHN, EARNS, ?x)").unwrap();
        // Touches only FAVORITE-MUSIC (and only MARY's shard).
        db.put("MARY", "FAVORITE-MUSIC", "PC#9-WAM");
        assert!(Arc::ptr_eq(&likes, &s.query("(JOHN, LIKES, ?x)").unwrap()));
        assert!(Arc::ptr_eq(&earns, &s.query("(JOHN, EARNS, ?x)").unwrap()));
        assert_eq!(s.cache_stats().carried, 2);
        // Removal publishes a precise delta too: answers over other
        // relationships ride across it, the touched one is re-evaluated.
        let music = s.query("(JOHN, FAVORITE-MUSIC, ?x)").unwrap();
        retract(&*db, "JOHN", "FAVORITE-MUSIC", "PC#9-WAM");
        assert!(Arc::ptr_eq(&likes, &s.query("(JOHN, LIKES, ?x)").unwrap()));
        let music2 = s.query("(JOHN, FAVORITE-MUSIC, ?x)").unwrap();
        assert!(!Arc::ptr_eq(&music, &music2) && music2.is_empty());
    }

    fn untrackable_answers_drop_on_any_publish<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        // The comparator enumerates interned numbers, so this answer
        // cannot be pinned to relationship ids.
        let src = "Q(?x) := exists ?y . (?x, EARNS, ?y) & (?y, >, 20000)";
        let cmp = s.query(src).unwrap();
        db.put("MARY", "FAVORITE-MUSIC", "PC#9-WAM");
        assert!(!Arc::ptr_eq(&cmp, &s.query(src).unwrap()));
    }

    fn plan_cache_survives_eviction_writes_and_removals<P: Fixture>(shards: usize) {
        // Answer capacity 1: every re-query misses the answer cache and
        // must replay (or re-plan) its shape's plan.
        let db = world::<P>(shards);
        let mut s = SnapshotSession::with_cache_capacity(Arc::clone(&db), 1);
        s.query("(JOHN, LIKES, ?x)").unwrap();
        s.query("(JOHN, EARNS, ?x)").unwrap();
        s.query("(JOHN, LIKES, ?x)").unwrap();
        assert_eq!((s.plan_stats().hits, s.plan_stats().misses), (1, 2));
        // Disjoint write and disjoint removal: both plans ride across.
        db.put("MARY", "FAVORITE-MUSIC", "PC#9-WAM");
        retract(&*db, "JOHN", "FAVORITE-MUSIC", "PC#9-WAM");
        assert_eq!(s.query("(JOHN, EARNS, ?x)").unwrap().len(), 1);
        assert_eq!(s.plan_stats().hits, 2);
        assert!(s.plan_stats().carried >= 2, "{:?}", s.plan_stats());
        // A removal touching EARNS drops exactly that plan.
        retract(&*db, "JOHN", "EARNS", "25000");
        assert!(s.query("(JOHN, EARNS, ?x)").unwrap().is_empty());
        assert_eq!(s.query("(JOHN, LIKES, ?x)").unwrap().len(), 1);
        assert_eq!((s.plan_stats().hits, s.plan_stats().misses), (3, 3));
    }

    fn unknown_constants_fall_back_to_extension_interner<P: Fixture>(shards: usize) {
        let (_, mut s) = session::<P>(shards);
        // 30000 was never interned: the frozen parse misses and the
        // extension answers (emptily, but correctly).
        assert!(s.query("Q(?x) := (?x, EARNS, 30000)").unwrap().is_empty());
        assert_eq!(s.query("Q(?x) := (?x, EARNS, 25000)").unwrap().len(), 1);
        let cmp = s.query("Q(?x) := exists ?y . (?x, EARNS, ?y) & (?y, >, 20000)").unwrap();
        assert_eq!(cmp.len(), 1);
    }

    fn render_probe_reads_the_probe_snapshot<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        // WORSHIPS resolves through the extension interner only.
        let report = s.probe("(JOHN, WORSHIPS, ?x)").unwrap();
        let menu = s.render_probe(&report);
        assert!(menu.contains("WORSHIPS"), "{menu}");
        let epoch = s.last_epoch();
        // A publish interning nothing leaves the extension id past the
        // new snapshot's interner; one interning three entities hands it
        // to AARDVARK. Neither may leak into the rendering.
        retract(&*db, "JOHN", "LIKES", "FELIX");
        assert_eq!(s.render_probe(&report), menu);
        db.put("AARDVARK", "BEFRIENDS", "ZEBRA");
        assert_eq!(s.render_probe(&report), menu);
        assert_eq!(s.last_epoch(), epoch, "the menu holds at the probe's epoch");
    }

    fn render_answer_reads_the_query_snapshot<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        // The comparator binds 99999, which only the extension interned.
        let answer = s.query("Q(?y) := (?y, =, 99999)").unwrap();
        assert_eq!(s.render_answer(&answer), [["99999"]]);
        let epoch = s.last_epoch();
        retract(&*db, "JOHN", "LIKES", "FELIX");
        db.put("AARDVARK", "BEFRIENDS", "ZEBRA");
        assert_eq!(s.render_answer(&answer), [["99999"]]);
        assert_eq!(s.last_epoch(), epoch, "the rows hold at the query's epoch");
        s.query("(JOHN, LIKES, ?x)").unwrap();
        assert!(s.last_epoch() > epoch);
    }

    fn relation_function_and_explain<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        db.put("SHIPPING", "isa", "DEPARTMENT");
        db.put("JOHN", "WORKS-FOR", "SHIPPING");
        let table = s.relation("EMPLOYEE", &[("WORKS-FOR", "DEPARTMENT")]).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert!(s.function("COMPOSED-BY", None).unwrap().is_function());
        let plan = s.explain_query("Q(?x) := (?x, WORKS-FOR, SHIPPING)").unwrap();
        assert!(plan.contains("WORKS-FOR"), "{plan}");
    }

    fn defined_operators_expand<P: Fixture>(shards: usize) {
        let (_, mut s) = session::<P>(shards);
        s.define("earns-more", 1, "Q(?x) := exists ?y . (?x, EARNS, ?y) & (?y, >, $1)").unwrap();
        assert_eq!(s.query("earns-more(20000)").unwrap().len(), 1);
        assert!(s.query("earns-more(30000)").unwrap().is_empty());
    }

    fn answers_equal_a_single_store<P: Fixture>(shards: usize) {
        let mut single = Database::new();
        for (s, r, t) in WORLD {
            single.add(value(s), value(r), value(t));
        }
        let mut reference = SharedSession::new(Arc::new(SharedDatabase::new(single).unwrap()));
        let (_, mut s) = session::<P>(shards);
        for q in [
            "(JOHN, LIKES, ?x)",
            "(?x, isa, EMPLOYEE)",
            "Q(?x, ?y) := (?x, FAVORITE-MUSIC, ?y)",
            // Cross-shard join: the music's composer lives elsewhere.
            "Q(?x, ?c) := exists ?m . (?x, FAVORITE-MUSIC, ?m) & (?m, COMPOSED-BY, ?c)",
        ] {
            let a = s.query(q).unwrap();
            let b = reference.query(q).unwrap();
            assert_eq!(s.render_answer(&a), reference.render_answer(&b), "{q}");
        }
    }

    fn probe_retracts_through_the_taxonomy<P: Fixture>(shards: usize) {
        let (db, mut s) = session::<P>(shards);
        db.put("ADORES", "gen", "LIKES");
        let report = s.probe("(JOHN, ADORES, ?x)").unwrap();
        let menu = s.render_probe(&report);
        assert!(menu.contains("with LIKES instead of ADORES"), "{menu}");
    }

    macro_rules! contract {
        ($($test:ident),* $(,)?) => {
            mod shared {
                $(#[test] fn $test() { super::$test::<super::SharedDatabase>(1) })*
            }
            mod sharded_1 {
                $(#[test] fn $test() { super::$test::<super::ShardedDatabase>(1) })*
            }
            mod sharded_4 {
                $(#[test] fn $test() { super::$test::<super::ShardedDatabase>(4) })*
            }
        };
    }

    contract!(
        focus_back_and_history,
        later_writes_become_visible,
        cache_evicts_least_recently_used,
        cache_invalidates_only_touched_entries,
        cache_carries_answers_over_disjoint_writes_and_removals,
        untrackable_answers_drop_on_any_publish,
        plan_cache_survives_eviction_writes_and_removals,
        unknown_constants_fall_back_to_extension_interner,
        render_probe_reads_the_probe_snapshot,
        render_answer_reads_the_query_snapshot,
        relation_function_and_explain,
        defined_operators_expand,
        answers_equal_a_single_store,
        probe_retracts_through_the_taxonomy,
    );
}
