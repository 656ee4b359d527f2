//! The loosely structured database: facts + rules + cached closure (§2.6).
//!
//! [`Database`] ties the layers together: the schema-free [`FactStore`],
//! the relationship-kind registry (§2.2), user rules (§2.4–2.5), the
//! built-in rule configuration (§3, §6.1), and a cached materialized
//! closure that is recomputed lazily whenever facts, rules, kinds or
//! configuration change.
//!
//! Two update disciplines are offered, reflecting the paper's permissive
//! stance (§2.6 allows inconsistent raw facts; §2.5 demands the closure be
//! contradiction-free for the database to be *valid*):
//!
//! * [`Database::add`] / [`Database::remove`] — unchecked, always succeed;
//!   validity can be inspected later via [`Database::validate`].
//! * [`Database::try_add`] — transactional: the fact is inserted only if
//!   it introduces no *new* integrity violation, otherwise it is rolled
//!   back and the offending violations are returned.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use loosedb_obs::Metrics;
use loosedb_store::{log as factlog, snapshot, EntityId, EntityValue, Fact, FactLog, FactStore};

use crate::closure::{self, Closure, ClosureError, ExtendDelta, Provenance, Strategy, Violation};
use crate::config::{InferenceConfig, RuleGroup};
use crate::kind::KindRegistry;
use crate::rule::{Rule, RuleError, RuleSet};
use crate::view::ClosureView;

/// Errors from transactional updates.
#[derive(Clone, Debug, PartialEq)]
pub enum TransactionError {
    /// The update would introduce these integrity violations; it was
    /// rolled back.
    Integrity(Vec<Violation>),
    /// Closure computation failed (e.g. configured bounds exceeded).
    Closure(ClosureError),
}

impl std::fmt::Display for TransactionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransactionError::Integrity(v) => {
                write!(f, "update rejected: {} new integrity violation(s)", v.len())
            }
            TransactionError::Closure(e) => write!(f, "closure computation failed: {e}"),
        }
    }
}

impl std::error::Error for TransactionError {}

impl From<ClosureError> for TransactionError {
    fn from(e: ClosureError) -> Self {
        TransactionError::Closure(e)
    }
}

/// How the closure changed since the last [`Database::take_publish_delta`]
/// drain — what a snapshot publisher needs to invalidate downstream caches
/// precisely instead of wholesale.
#[derive(Clone, Debug)]
pub enum PublishDelta {
    /// All changes are confined to facts whose relationship is in this
    /// set (possibly empty: nothing changed). Cached answers that touch
    /// none of these relationships are still valid.
    Rels(BTreeSet<EntityId>),
    /// The closure was fully recomputed (removal, rule/kind/config change,
    /// or a cold cache); no cached answer can be trusted.
    Full,
}

impl PublishDelta {
    fn empty() -> Self {
        PublishDelta::Rels(BTreeSet::new())
    }
}

#[derive(Clone)]
struct Cached {
    closure: Closure,
    store_epoch: u64,
    rules_epoch: u64,
    kinds_epoch: u64,
    config: InferenceConfig,
    strategy: Strategy,
}

/// A loosely structured database (§2.6): a set of facts and a set of
/// rules whose closure must be free of contradictions.
pub struct Database {
    store: FactStore,
    kinds: KindRegistry,
    rules: RuleSet,
    config: InferenceConfig,
    strategy: Strategy,
    cache: Option<Cached>,
    wal: Option<FactLog>,
    /// Changes accumulated since the last [`Database::take_publish_delta`].
    pending_delta: PublishDelta,
    /// Shared metrics registry; cloned into generations and wrappers
    /// (`SharedDatabase`, `DurableDatabase`) so every layer reports to
    /// the same counters.
    metrics: Arc<Metrics>,
}

impl Database {
    /// Creates an empty database with the default inference configuration.
    pub fn new() -> Self {
        Database::from_store(FactStore::new())
    }

    /// Wraps an existing fact store.
    pub fn from_store(store: FactStore) -> Self {
        Database {
            store,
            kinds: KindRegistry::new(),
            rules: RuleSet::new(),
            config: InferenceConfig::default(),
            strategy: Strategy::SemiNaive,
            cache: None,
            wal: None,
            pending_delta: PublishDelta::empty(),
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// The metrics registry this database reports to.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Restores a database from a snapshot checkpoint plus an operation
    /// log tail (the recovery pattern for the paper's "dynamic set of
    /// facts", §6.1). Either path may name a missing file, in which case
    /// that half is skipped.
    pub fn recover(
        snapshot_path: impl AsRef<std::path::Path>,
        log_path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let mut store = if snapshot_path.as_ref().exists() {
            snapshot::load(snapshot_path)?
        } else {
            FactStore::new()
        };
        if log_path.as_ref().exists() {
            factlog::replay_file(log_path, &mut store)?;
        }
        Ok(Database::from_store(store))
    }

    /// Loads a database from a store snapshot (facts and entities only;
    /// rules, kinds and configuration are code-level and not persisted).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Database::from_store(snapshot::load(path)?))
    }

    /// Saves the base facts to a store snapshot.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        snapshot::save(&self.store, path)
    }

    /// Saves the *complete* database — facts, rules, kinds and
    /// configuration (see [`crate::persist`]).
    pub fn save_full(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        crate::persist::save(self, path)
    }

    /// Loads a complete database saved by [`Database::save_full`].
    pub fn load_full(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        crate::persist::load(path)
    }

    // ------------------------------------------------------------------
    // Entities and base facts
    // ------------------------------------------------------------------

    /// Interns an entity value.
    pub fn entity(&mut self, value: impl Into<EntityValue>) -> EntityId {
        self.store.entity(value)
    }

    /// Looks up an entity without interning.
    pub fn lookup(&self, value: &EntityValue) -> Option<EntityId> {
        self.store.lookup(value)
    }

    /// Looks up a symbol by name without interning.
    pub fn lookup_symbol(&self, name: &str) -> Option<EntityId> {
        self.store.lookup_symbol(name)
    }

    /// Renders an entity for display.
    pub fn display(&self, id: EntityId) -> String {
        self.store.display(id)
    }

    /// Renders a fact for display.
    pub fn display_fact(&self, f: &Fact) -> String {
        self.store.display_fact(f)
    }

    /// Adds a fact described by three values (unchecked; §2.6 permits
    /// anything, including inconsistencies).
    pub fn add(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Fact {
        let fact = self.store.add(s, r, t);
        self.log_op(&fact, true);
        fact
    }

    /// Inserts a fact by id (unchecked).
    pub fn insert(&mut self, f: Fact) -> bool {
        let fresh = self.store.insert(f);
        if fresh {
            self.log_op(&f, true);
        }
        fresh
    }

    /// Removes a base fact. Removal cannot introduce violations (rules are
    /// monotone), so it is always unchecked. The closure cache goes stale
    /// and the next refresh recomputes it fully; warm-cache callers should
    /// prefer [`Database::remove_incremental`], which maintains the
    /// closure in O(consequences) and keeps the publish delta precise.
    pub fn remove(&mut self, f: &Fact) -> bool {
        let removed = self.store.remove(f);
        if removed {
            self.log_op(f, false);
        }
        removed
    }

    /// Imports facts from the plain-text format (see
    /// [`loosedb_store::text`]); returns the number of new facts.
    /// Imported facts go through [`Database::add`], so they are recorded
    /// in the write-ahead log when logging is enabled.
    pub fn import_facts(&mut self, input: &str) -> Result<usize, loosedb_store::TextError> {
        let before = self.base_len();
        for (s, r, t) in loosedb_store::text::parse_facts(input)? {
            self.add(s, r, t);
        }
        Ok(self.base_len() - before)
    }

    /// Exports the base facts in the plain-text format; the second value
    /// counts skipped path-entity facts (derived, re-derivable).
    pub fn export_facts(&self) -> (String, usize) {
        loosedb_store::text::dump_text(&self.store)
    }

    // ------------------------------------------------------------------
    // Write-ahead logging
    // ------------------------------------------------------------------

    /// Starts recording every base-fact insertion and removal into an
    /// operation log (see [`loosedb_store::log`]). Together with
    /// [`Database::save`] checkpoints and [`Database::recover`], this is
    /// the durability story for the paper's dynamic database.
    ///
    /// Facts mentioning composed path entities are not logged (they are
    /// derived data and store-specific; see [`loosedb_store::FactLog`]).
    pub fn enable_logging(&mut self) {
        if self.wal.is_none() {
            self.wal = Some(FactLog::new());
        }
    }

    /// Stops logging and returns the log recorded so far, if any.
    pub fn take_log(&mut self) -> Option<FactLog> {
        self.wal.take()
    }

    /// The operation log recorded so far, if logging is enabled.
    pub fn log(&self) -> Option<&FactLog> {
        self.wal.as_ref()
    }

    fn log_op(&mut self, f: &Fact, insert: bool) {
        let Some(wal) = &mut self.wal else { return };
        let s = self.store.value(f.s);
        let r = self.store.value(f.r);
        let t = self.store.value(f.t);
        if s.as_path().is_some() || r.as_path().is_some() || t.as_path().is_some() {
            return; // derived path entities are not logged
        }
        // Frames are encoded straight from the borrows; nothing is cloned.
        if insert {
            wal.insert_ref(s, r, t);
        } else {
            wal.remove_ref(s, r, t);
        }
    }

    /// True if `f` is a *base* fact (for closure membership see
    /// [`Database::view`]).
    pub fn contains_base(&self, f: &Fact) -> bool {
        self.store.contains(f)
    }

    /// Number of base facts.
    pub fn base_len(&self) -> usize {
        self.store.len()
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Mutable access to the interner — used by the query parser to intern
    /// constants. Interning alone never invalidates the closure cache.
    pub fn store_interner_mut(&mut self) -> &mut loosedb_store::Interner {
        self.store.interner_mut()
    }

    // ------------------------------------------------------------------
    // Rules, kinds, configuration
    // ------------------------------------------------------------------

    /// Registers a user rule (inference or constraint).
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), RuleError> {
        self.rules.add(rule)
    }

    /// Enables a user rule by name (§6.1 `include(rule)`).
    pub fn include_rule(&mut self, name: &str) -> bool {
        self.rules.include(name)
    }

    /// Disables a user rule by name (§6.1 `exclude(rule)`).
    pub fn exclude_rule(&mut self, name: &str) -> bool {
        self.rules.exclude(name)
    }

    /// Read access to the user rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Declares a relationship to be a class relationship (§2.2).
    pub fn declare_class(&mut self, rel: EntityId) {
        self.kinds.declare_class(rel);
    }

    /// Declares a relationship to be an individual relationship (§2.2).
    pub fn declare_individual(&mut self, rel: EntityId) {
        self.kinds.declare_individual(rel);
    }

    /// Read access to the kind registry.
    pub fn kinds(&self) -> &KindRegistry {
        &self.kinds
    }

    /// Enables a built-in rule group (§6.1 `include`).
    pub fn include(&mut self, group: RuleGroup) {
        self.config.include(group);
    }

    /// Disables a built-in rule group (§6.1 `exclude`).
    pub fn exclude(&mut self, group: RuleGroup) {
        self.config.exclude(group);
    }

    /// Sets the composition chain-length limit (§6.1 `limit(n)`).
    pub fn limit(&mut self, n: usize) {
        self.config.limit(n);
    }

    /// Read access to the inference configuration.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// Mutable access to the inference configuration (changes invalidate
    /// the closure cache on the next refresh).
    pub fn config_mut(&mut self) -> &mut InferenceConfig {
        &mut self.config
    }

    /// Selects the closure evaluation strategy (semi-naive by default).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    // ------------------------------------------------------------------
    // Closure
    // ------------------------------------------------------------------

    /// True if the cached closure is current: a write can extend or
    /// retract it in place instead of leaving it for a recompute.
    pub(crate) fn is_warm(&self) -> bool {
        match &self.cache {
            Some(c) => {
                c.store_epoch == self.store.epoch()
                    && c.rules_epoch == self.rules.epoch()
                    && c.kinds_epoch == self.kinds.epoch()
                    && c.config == self.config
                    && c.strategy == self.strategy
            }
            None => false,
        }
    }

    /// Recomputes the closure if facts, rules, kinds or configuration
    /// changed since the last computation.
    pub fn refresh(&mut self) -> Result<(), ClosureError> {
        if self.is_warm() {
            return Ok(());
        }
        // A full recomputation can change any answer (removals, rule or
        // kind toggles have non-monotone effects).
        self.pending_delta = PublishDelta::Full;
        let started = Instant::now();
        let closure = closure::compute(
            &mut self.store,
            &self.kinds,
            &self.rules,
            &self.config,
            self.strategy,
        )?;
        self.metrics.closure_computes.inc();
        self.metrics.closure_compute_ns.record_duration(started.elapsed());
        self.metrics.closure_facts.set(closure.len() as u64);
        self.cache = Some(Cached {
            closure,
            store_epoch: self.store.epoch(),
            rules_epoch: self.rules.epoch(),
            kinds_epoch: self.kinds.epoch(),
            config: self.config.clone(),
            strategy: self.strategy,
        });
        Ok(())
    }

    /// The materialized closure (recomputed if stale).
    pub fn closure(&mut self) -> Result<&Closure, ClosureError> {
        self.refresh()?;
        Ok(&self.cache.as_ref().expect("refreshed").closure)
    }

    /// A retrieval view over the (virtual) closure — what queries and
    /// browsing evaluate against.
    pub fn view(&mut self) -> Result<ClosureView<'_>, ClosureError> {
        self.refresh()?;
        let cached = self.cache.as_ref().expect("refreshed");
        Ok(ClosureView::new(&cached.closure, self.store.interner(), &self.kinds)
            .with_probe_counter(self.metrics.count_probes.clone()))
    }

    // ------------------------------------------------------------------
    // Integrity
    // ------------------------------------------------------------------

    /// The current integrity violations (§2.5: the database is valid iff
    /// this is empty).
    pub fn validate(&mut self) -> Result<&[Violation], ClosureError> {
        self.refresh()?;
        Ok(self.cache.as_ref().expect("refreshed").closure.violations())
    }

    /// True if the closure is free of contradictions.
    pub fn is_consistent(&mut self) -> Result<bool, ClosureError> {
        Ok(self.validate()?.is_empty())
    }

    /// Transactionally adds a fact: if the insertion introduces integrity
    /// violations that were not already present, it is rolled back and the
    /// new violations are returned.
    pub fn try_add(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, TransactionError> {
        let fact = Fact::new(self.entity(s), self.entity(r), self.entity(t));
        self.try_insert(fact).map(|_| fact)
    }

    /// Transactional version of [`Database::insert`]; see
    /// [`Database::try_add`].
    ///
    /// Uses incremental closure maintenance (rules are monotone, so a
    /// fresh closure can be *extended* with the new fact instead of
    /// recomputed — see [`crate::closure::extend`]); on rejection the
    /// fact is removed and the now-overextended closure cache dropped.
    pub fn try_insert(&mut self, fact: Fact) -> Result<bool, TransactionError> {
        let before: Vec<Violation> = self.validate()?.to_vec();
        if self.store.contains(&fact) {
            return Ok(false);
        }

        // The cache is fresh after validate(); extend it in place.
        let mut cached = self.cache.take().expect("fresh after validate");
        self.store.insert(fact);
        let started = Instant::now();
        let extended = closure::extend(
            &mut cached.closure,
            &mut self.store,
            &self.kinds,
            &self.rules,
            &self.config,
            &[fact],
        );
        self.metrics.closure_extends.inc();
        self.metrics.closure_extend_ns.record_duration(started.elapsed());
        match extended {
            Ok(delta) => {
                let new: Vec<Violation> = cached
                    .closure
                    .violations()
                    .iter()
                    .filter(|v| !before.contains(v))
                    .cloned()
                    .collect();
                if new.is_empty() {
                    cached.store_epoch = self.store.epoch();
                    self.metrics.closure_facts.set(cached.closure.len() as u64);
                    self.cache = Some(cached);
                    self.note_extend_delta(delta);
                    // Committed: record in the write-ahead log (rejected
                    // transactions leave no trace).
                    self.log_op(&fact, true);
                    Ok(true)
                } else {
                    // Rolled back: the extended closure is stale now.
                    self.store.remove(&fact);
                    Err(TransactionError::Integrity(new))
                }
            }
            Err(e) => {
                self.store.remove(&fact);
                Err(TransactionError::Closure(e))
            }
        }
    }

    /// Adds a fact and incrementally maintains the closure when it is
    /// fresh (no integrity check — the unchecked twin of
    /// [`Database::try_add`], still far cheaper than a recompute when the
    /// closure is warm).
    pub fn add_incremental(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) -> Result<Fact, ClosureError> {
        let fact = Fact::new(self.entity(s), self.entity(r), self.entity(t));
        self.insert_incremental(fact)?;
        Ok(fact)
    }

    /// Inserts a fact by id, incrementally maintaining the closure — the
    /// id-level core of [`Database::add_incremental`]. Returns whether the
    /// fact was new. On an extension error the fact stays stored and the
    /// closure cache is dropped (the next refresh recomputes).
    pub(crate) fn insert_incremental(&mut self, fact: Fact) -> Result<bool, ClosureError> {
        self.refresh()?;
        if self.store.contains(&fact) {
            return Ok(false);
        }
        let mut cached = self.cache.take().expect("fresh after refresh");
        self.store.insert(fact);
        let started = Instant::now();
        let delta = closure::extend(
            &mut cached.closure,
            &mut self.store,
            &self.kinds,
            &self.rules,
            &self.config,
            &[fact],
        )?;
        self.metrics.closure_extends.inc();
        self.metrics.closure_extend_ns.record_duration(started.elapsed());
        cached.store_epoch = self.store.epoch();
        self.metrics.closure_facts.set(cached.closure.len() as u64);
        self.cache = Some(cached);
        self.note_extend_delta(delta);
        self.log_op(&fact, true);
        Ok(true)
    }

    /// Removes a base fact and incrementally maintains the closure via
    /// the support-counted delete-and-rederive wave (see
    /// [`crate::closure::retract`]) — the removal twin of
    /// [`Database::add_incremental`]. The pending publish delta stays
    /// *precise*: only the relationships the wave touched are recorded,
    /// never a `Full` marker, so downstream caches carry disjoint
    /// entries across the removal. Returns whether the fact was present.
    pub fn remove_incremental(&mut self, f: &Fact) -> Result<bool, ClosureError> {
        self.refresh()?;
        if !self.store.contains(f) {
            return Ok(false);
        }
        let mut cached = self.cache.take().expect("fresh after refresh");
        self.store.remove(f);
        // Logged up front: the store-level removal is committed even if
        // retraction errors below (the closure cache is dropped then and
        // the next refresh recomputes — the WAL must agree with the
        // store, not with the cache).
        self.log_op(f, false);
        let started = Instant::now();
        let delta = closure::retract(
            &mut cached.closure,
            &mut self.store,
            &self.kinds,
            &self.rules,
            &self.config,
            &[*f],
        )?;
        self.metrics.closure_retracts.inc();
        self.metrics.closure_retract_ns.record_duration(started.elapsed());
        self.metrics.closure_retract_decrements.add(delta.stats.support_decrements as u64);
        self.metrics.closure_retract_deleted.add(delta.stats.over_deleted as u64);
        self.metrics.closure_retract_rederived.add(delta.stats.rederived as u64);
        self.metrics.closure_retract_waves.add(delta.stats.waves as u64);
        cached.store_epoch = self.store.epoch();
        self.metrics.closure_facts.set(cached.closure.len() as u64);
        self.cache = Some(cached);
        self.note_retract_delta(delta);
        Ok(true)
    }

    /// Folds an incremental-extension delta into the pending publish
    /// delta (a `Full` marker absorbs everything).
    fn note_extend_delta(&mut self, d: ExtendDelta) {
        if let PublishDelta::Rels(rels) = &mut self.pending_delta {
            rels.extend(d.rels);
        }
    }

    /// Folds an incremental-retraction delta into the pending publish
    /// delta — removals report the precise touched-rel set, exactly like
    /// insertions.
    fn note_retract_delta(&mut self, d: closure::RetractDelta) {
        if let PublishDelta::Rels(rels) = &mut self.pending_delta {
            rels.extend(d.rels);
        }
    }

    /// A copy of this database to roll a write back to. Every large part
    /// — store, interner, closure — is a persistent structure shared by
    /// reference count, so a fork costs what a generation publish's
    /// clones cost, not a copy of the world. The fork reports to the same
    /// metrics registry.
    pub(crate) fn fork(&self) -> Database {
        Database {
            store: self.store.clone(),
            kinds: self.kinds.clone(),
            rules: self.rules.clone(),
            config: self.config.clone(),
            strategy: self.strategy,
            cache: self.cache.clone(),
            wal: self.wal.clone(),
            pending_delta: self.pending_delta.clone(),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Drains the description of everything that changed since the last
    /// drain. Called by `SharedDatabase` at publish time so sessions can
    /// keep cached answers whose relationships the delta never touched.
    pub fn take_publish_delta(&mut self) -> PublishDelta {
        std::mem::replace(&mut self.pending_delta, PublishDelta::empty())
    }

    // ------------------------------------------------------------------
    // Explanation
    // ------------------------------------------------------------------

    /// A human-readable derivation of a closure fact: one line per
    /// derivation step, indented by depth. Returns `None` if the fact is
    /// not in the materialized closure.
    pub fn explain(&mut self, fact: &Fact) -> Result<Option<Vec<String>>, ClosureError> {
        self.refresh()?;
        let cached = self.cache.as_ref().expect("refreshed");
        if !cached.closure.contains(fact) {
            return Ok(None);
        }
        let mut lines = Vec::new();
        explain_rec(&self.store, &cached.closure, fact, 0, &mut lines);
        Ok(Some(lines))
    }

    /// Renders a violation for display.
    pub fn display_violation(&self, v: &Violation) -> String {
        match v {
            Violation::Contradiction { fact, conflicting, via } => format!(
                "contradiction: {} conflicts with {} (via {})",
                self.display_fact(fact),
                self.display_fact(conflicting),
                self.display_fact(via)
            ),
            Violation::MathFalse { fact, source } => match source {
                Some(rule) => format!(
                    "mathematically false: {} (required by rule {rule:?})",
                    self.display_fact(fact)
                ),
                None => format!("mathematically false: {}", self.display_fact(fact)),
            },
            Violation::MathUndefined { fact, source } => match source {
                Some(rule) => format!(
                    "comparator applied to non-numbers: {} (required by rule {rule:?})",
                    self.display_fact(fact)
                ),
                None => {
                    format!("comparator applied to non-numbers: {}", self.display_fact(fact))
                }
            },
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

fn explain_rec(
    store: &FactStore,
    closure: &Closure,
    fact: &Fact,
    depth: usize,
    out: &mut Vec<String>,
) {
    const MAX_DEPTH: usize = 32;
    let indent = "  ".repeat(depth);
    match closure.provenance(fact) {
        None => out.push(format!("{indent}{} [base fact]", store.display_fact(fact))),
        Some(prov) => {
            let (label, from) = match prov {
                Provenance::Builtin { rule, from } => (format!("{rule:?}"), from),
                Provenance::User { rule, from } => (format!("rule {rule:?}"), from),
            };
            out.push(format!("{indent}{} [by {label}]", store.display_fact(fact)));
            if depth < MAX_DEPTH {
                for support in from {
                    explain_rec(store, closure, support, depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loosedb_store::special;

    #[test]
    fn closure_caching_and_invalidation() {
        let mut db = Database::new();
        db.add("EMPLOYEE", "EARNS", "SALARY");
        db.add("MANAGER", "gen", "EMPLOYEE");
        let len1 = db.closure().unwrap().len();
        assert_eq!(len1, 3); // 2 base + 1 derived
                             // Cached: no recomputation observable, same result.
        assert_eq!(db.closure().unwrap().len(), len1);
        // Fact change invalidates.
        db.add("DIRECTOR", "gen", "MANAGER");
        assert_eq!(db.closure().unwrap().len(), 6);
        // Config change invalidates.
        db.exclude(RuleGroup::Generalization);
        assert_eq!(db.closure().unwrap().len(), 3);
        // Kind change invalidates.
        let earns = db.lookup_symbol("EARNS").unwrap();
        db.include(RuleGroup::Generalization);
        db.declare_class(earns);
        assert_eq!(db.closure().unwrap().len(), 4); // gen transitivity only
    }

    #[test]
    fn try_add_rejects_new_violation_and_rolls_back() {
        let mut db = Database::new();
        db.add("LOVES", "contra", "HATES");
        db.add("JOHN", "LOVES", "MARY");
        let before = db.base_len();
        let err = db.try_add("JOHN", "HATES", "MARY").unwrap_err();
        assert!(matches!(err, TransactionError::Integrity(v) if v.len() == 1));
        assert_eq!(db.base_len(), before);
        assert!(db.is_consistent().unwrap());
    }

    #[test]
    fn try_add_accepts_harmless_fact() {
        let mut db = Database::new();
        db.add("LOVES", "contra", "HATES");
        db.add("JOHN", "LOVES", "MARY");
        let f = db.try_add("JOHN", "LOVES", "FELIX").unwrap();
        assert!(db.contains_base(&f));
    }

    #[test]
    fn try_add_tolerates_preexisting_violations() {
        // §2.6 allows an inconsistent database; try_add only rejects NEW
        // violations.
        let mut db = Database::new();
        db.add("LOVES", "contra", "HATES");
        db.add("JOHN", "LOVES", "MARY");
        db.add("JOHN", "HATES", "MARY"); // unchecked: now inconsistent
        assert!(!db.is_consistent().unwrap());
        // Unrelated fact still accepted.
        db.try_add("TOM", "LOVES", "SUE").unwrap();
        // A fact creating a second violation is rejected.
        db.add("TOM", "HATES", "SUE"); // make it two violations, unchecked
        assert_eq!(db.validate().unwrap().len(), 2);
    }

    #[test]
    fn try_insert_duplicate_is_noop() {
        let mut db = Database::new();
        let f = db.add("A", "R", "B");
        assert!(!db.try_insert(f).unwrap());
    }

    #[test]
    fn explain_derivation_chain() {
        let mut db = Database::new();
        db.add("JOHN", "isa", "EMPLOYEE");
        db.add("EMPLOYEE", "EARNS", "SALARY");
        let john = db.lookup_symbol("JOHN").unwrap();
        let earns = db.lookup_symbol("EARNS").unwrap();
        let salary = db.lookup_symbol("SALARY").unwrap();
        let derived = Fact::new(john, earns, salary);
        let lines = db.explain(&derived).unwrap().expect("in closure");
        assert!(lines[0].contains("(JOHN, EARNS, SALARY)"));
        assert!(lines[0].contains("MemberSource"));
        assert!(lines.iter().any(|l| l.contains("[base fact]")));
        // Unknown facts are not explained.
        let bogus = Fact::new(salary, earns, john);
        assert_eq!(db.explain(&bogus).unwrap(), None);
    }

    #[test]
    fn view_reflects_closure() {
        use crate::view::FactView;
        let mut db = Database::new();
        db.add("MANAGER", "gen", "EMPLOYEE");
        db.add("EMPLOYEE", "EARNS", "SALARY");
        let manager = db.lookup_symbol("MANAGER").unwrap();
        let earns = db.lookup_symbol("EARNS").unwrap();
        let salary = db.lookup_symbol("SALARY").unwrap();
        let view = db.view().unwrap();
        assert!(view.holds(&Fact::new(manager, earns, salary)));
    }

    #[test]
    fn snapshot_roundtrip_via_database() {
        let mut db = Database::new();
        db.add("JOHN", "EARNS", 25000i64);
        let dir = std::env::temp_dir().join(format!("loosedb-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.lsdb");
        db.save(&path).unwrap();
        let mut loaded = Database::load(&path).unwrap();
        assert_eq!(loaded.base_len(), 1);
        assert!(loaded.is_consistent().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_records_committed_operations_only() {
        let mut db = Database::new();
        db.enable_logging();
        db.add("LOVES", "contra", "HATES");
        db.add("JOHN", "LOVES", "MARY");
        let f = db.add("JOHN", "LIKES", "FELIX");
        db.remove(&f);
        db.remove(&f); // no-op: not logged
                       // Rejected transaction: not logged.
        assert!(db.try_add("JOHN", "HATES", "MARY").is_err());
        // Accepted transaction: logged.
        db.try_add("JOHN", "LOVES", "FELIX").unwrap();
        let log = db.take_log().expect("logging enabled");
        assert_eq!(log.len(), 5); // 3 adds + 1 remove + 1 committed try_add

        // Replaying the log reproduces the base facts exactly.
        let mut replayed = loosedb_store::FactStore::new();
        loosedb_store::log::replay(log.bytes(), &mut replayed).unwrap();
        let original: std::collections::BTreeSet<String> =
            db.store().iter().map(|f| db.display_fact(&f)).collect();
        let restored: std::collections::BTreeSet<String> =
            replayed.iter().map(|f| replayed.display_fact(&f)).collect();
        assert_eq!(original, restored);
    }

    #[test]
    fn recover_from_checkpoint_plus_log() {
        let dir = std::env::temp_dir().join(format!("loosedb-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("checkpoint.lsdb");
        let wal = dir.join("tail.log");

        let mut db = Database::new();
        db.add("JOHN", "EARNS", 25000i64);
        db.save(&snap).unwrap();
        db.enable_logging();
        db.add("MARY", "isa", "EMPLOYEE");
        let john = db.lookup_symbol("JOHN").unwrap();
        let earns = db.lookup_symbol("EARNS").unwrap();
        let pay = db.lookup(&25000i64.into()).unwrap();
        db.remove(&Fact::new(john, earns, pay));
        db.log().unwrap().save(&wal).unwrap();

        let recovered = Database::recover(&snap, &wal).unwrap();
        assert_eq!(recovered.base_len(), 1);
        assert!(recovered.lookup_symbol("MARY").is_some());
        // Missing log: checkpoint only.
        let checkpoint_only = Database::recover(&snap, dir.join("missing.log")).unwrap();
        assert_eq!(checkpoint_only.base_len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rule_toggling_invalidates_cache() {
        let mut db = Database::new();
        let isa = special::ISA;
        let employee = db.entity("EMPLOYEE");
        let earn = db.entity("EARN");
        let salary = db.entity("SALARY");
        let mut b = Rule::builder("employees-earn");
        let x = b.var("x");
        db.add_rule(b.when(x, isa, employee).then(x, earn, salary).build().unwrap()).unwrap();
        db.add("JOHN", "isa", "EMPLOYEE");
        assert_eq!(db.closure().unwrap().len(), 2);
        db.exclude_rule("employees-earn");
        assert_eq!(db.closure().unwrap().len(), 1);
        db.include_rule("employees-earn");
        assert_eq!(db.closure().unwrap().len(), 2);
    }

    #[test]
    fn incremental_domain_counts_match_reference_scan() {
        let mut db = Database::new();
        db.add("EMPLOYEE", "EARNS", "SALARY");
        db.add("MANAGER", "gen", "EMPLOYEE");
        db.closure().unwrap();
        // Extend the closure incrementally several times; the maintained
        // occurrence counts must stay identical to the full rescan the
        // seed performed on every publish.
        db.add_incremental("JOHN", "isa", "EMPLOYEE").unwrap();
        db.add_incremental("JOHN", "LIKES", "FELIX").unwrap();
        db.add_incremental("DIRECTOR", "gen", "MANAGER").unwrap();
        let closure = db.closure().unwrap();
        let incremental = closure.domain().to_vec();
        assert_eq!(incremental, crate::view::compute_domain(closure));

        // Retraction decrements the same counts in the delete wave — no
        // full-recompute fallback; entities whose last mention dies leave
        // the domain, survivors with other mentions stay.
        let john = db.lookup_symbol("JOHN").unwrap();
        let likes = db.lookup_symbol("LIKES").unwrap();
        let felix = db.lookup_symbol("FELIX").unwrap();
        assert!(db.remove_incremental(&Fact::new(john, likes, felix)).unwrap());
        let closure = db.closure().unwrap();
        assert_eq!(closure.domain().to_vec(), crate::view::compute_domain(closure));
        assert!(!closure.domain().to_vec().contains(&felix), "FELIX left the domain");
        assert!(closure.domain().to_vec().contains(&john), "JOHN is still mentioned");

        let isa = special::ISA;
        let employee = db.lookup_symbol("EMPLOYEE").unwrap();
        assert!(db.remove_incremental(&Fact::new(john, isa, employee)).unwrap());
        let closure = db.closure().unwrap();
        assert_eq!(closure.domain().to_vec(), crate::view::compute_domain(closure));
    }

    #[test]
    fn publish_delta_tracks_rels_and_degrades_to_full() {
        let mut db = Database::new();
        db.add("EMPLOYEE", "EARNS", "SALARY");
        db.closure().unwrap();
        // The initial closure is a full computation.
        assert!(matches!(db.take_publish_delta(), PublishDelta::Full));

        // Incremental adds accumulate exactly the touched relationships
        // (including derived facts: membership fires EARNS for JOHN).
        db.add_incremental("JOHN", "isa", "EMPLOYEE").unwrap();
        db.add_incremental("JOHN", "LIKES", "FELIX").unwrap();
        let isa = special::ISA;
        let earns = db.lookup_symbol("EARNS").unwrap();
        let likes = db.lookup_symbol("LIKES").unwrap();
        match db.take_publish_delta() {
            PublishDelta::Rels(rels) => {
                assert_eq!(rels, [isa, earns, likes].into_iter().collect());
            }
            PublishDelta::Full => panic!("incremental adds must stay precise"),
        }

        // Incremental removals stay precise too: the retraction wave
        // reports exactly the rels it touched (isa seed + the derived
        // EARNS consequence), never a Full marker.
        let john = db.lookup_symbol("JOHN").unwrap();
        let employee = db.lookup_symbol("EMPLOYEE").unwrap();
        assert!(db.remove_incremental(&Fact::new(john, isa, employee)).unwrap());
        match db.take_publish_delta() {
            PublishDelta::Rels(rels) => {
                assert!(rels.contains(&isa));
                assert!(rels.contains(&earns), "derived EARNS fact fell");
                assert!(!rels.contains(&likes), "unrelated rel untouched");
            }
            PublishDelta::Full => panic!("incremental removals must stay precise"),
        }

        // Only the legacy full-recompute removal degrades to Full.
        let felix = db.lookup_symbol("FELIX").unwrap();
        assert!(db.remove(&Fact::new(john, likes, felix)));
        db.closure().unwrap();
        assert!(matches!(db.take_publish_delta(), PublishDelta::Full));
    }
}
