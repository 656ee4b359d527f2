//! An interactive browsing session.
//!
//! §4.1: "navigation and querying may be interleaved — a user may submit a
//! complex query, and use the answer as a starting point for browsing."
//! [`Session`] owns a [`Database`] and offers every retrieval mode through
//! one object: navigation with focus history, standard queries, probing
//! with automatic retraction, the `try` operator, `relation(...)` views
//! and the definition facility.

use std::time::Instant;

use loosedb_engine::{ClosureError, Database, MathMatchError, TransactionError};
use loosedb_obs::Metrics;
use loosedb_query::{plan_and_eval_stats, Answer, EvalError, EvalStats, ParseError};
use loosedb_store::{EntityId, EntityValue, Interner, Pattern};

use crate::navigate::{navigate, try_entity, NavigateOptions};
use crate::operators::{relation, DefineError, Definitions, RelationTable};
use crate::probe::{probe, ProbeOptions, ProbeReport};
use crate::table::GroupedTable;

/// Errors from session operations.
#[derive(Debug)]
pub enum SessionError {
    /// Query text did not parse.
    Parse(ParseError),
    /// Closure computation failed.
    Closure(ClosureError),
    /// Query evaluation failed.
    Eval(EvalError),
    /// A mathematical pattern could not be enumerated.
    Math(MathMatchError),
    /// A name used for navigation is not an interned entity.
    UnknownEntity(String),
    /// Operator definition/invocation failed.
    Define(DefineError),
    /// A transactional update was rejected.
    Transaction(TransactionError),
    /// There is no earlier focus to go back to.
    NoHistory,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Closure(e) => write!(f, "{e}"),
            SessionError::Eval(e) => write!(f, "{e}"),
            SessionError::Math(e) => write!(f, "{e}"),
            SessionError::UnknownEntity(name) => write!(f, "unknown entity {name:?}"),
            SessionError::Define(e) => write!(f, "{e}"),
            SessionError::Transaction(e) => write!(f, "{e}"),
            SessionError::NoHistory => write!(f, "no earlier focus in this session"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}
impl From<ClosureError> for SessionError {
    fn from(e: ClosureError) -> Self {
        SessionError::Closure(e)
    }
}
impl From<EvalError> for SessionError {
    fn from(e: EvalError) -> Self {
        SessionError::Eval(e)
    }
}
impl From<MathMatchError> for SessionError {
    fn from(e: MathMatchError) -> Self {
        SessionError::Math(e)
    }
}
impl From<DefineError> for SessionError {
    fn from(e: DefineError) -> Self {
        SessionError::Define(e)
    }
}
impl From<TransactionError> for SessionError {
    fn from(e: TransactionError) -> Self {
        SessionError::Transaction(e)
    }
}

/// The entity a display name denotes: numbers are number entities,
/// anything else a symbol.
pub(crate) fn value(name: &str) -> EntityValue {
    if let Ok(i) = name.parse::<i64>() {
        EntityValue::Int(i)
    } else if let Ok(x) = name.parse::<f64>() {
        EntityValue::float(x)
    } else {
        EntityValue::symbol(name)
    }
}

/// Resolves a display name without interning it.
pub(crate) fn resolve(interner: &Interner, name: &str) -> Result<EntityId, SessionError> {
    match interner.lookup(&value(name)) {
        Some(e) if name != "*" => Ok(e),
        _ => Err(SessionError::UnknownEntity(name.to_string())),
    }
}

/// A template position by name: `"*"` is free, anything else resolves.
pub(crate) fn part(interner: &Interner, name: &str) -> Result<Option<EntityId>, SessionError> {
    if name == "*" {
        Ok(None)
    } else {
        resolve(interner, name).map(Some)
    }
}

/// Folds one navigation build into the `browse.nav.*` registry metrics.
pub(crate) fn record_nav(metrics: &Metrics, start: Instant) {
    metrics.nav_builds.inc();
    metrics.nav_build_ns.record_duration(start.elapsed());
}

/// Folds one query evaluation into the `query.*` registry metrics.
pub(crate) fn record_eval(metrics: &Metrics, start: Instant, rows: usize, stats: EvalStats) {
    metrics.query_evals.inc();
    metrics.query_eval_ns.record_duration(start.elapsed());
    metrics.query_rows.record(rows as u64);
    metrics.strategy_hash.add(stats.strategy_hash);
    metrics.strategy_nested.add(stats.strategy_nested);
    metrics.join_partitions.add(stats.partitions);
}

/// Folds a probe report into the `browse.probe.*` registry metrics.
pub(crate) fn record_probe(metrics: &Metrics, report: &ProbeReport) {
    metrics.probe_runs.inc();
    metrics.probe_waves.add(report.waves.len() as u64);
    for wave in &report.waves {
        metrics.probe_attempts.add(wave.attempts.len() as u64);
        metrics.probe_wave_size.record(wave.attempts.len() as u64);
        metrics.probe_successes.add(wave.successes().count() as u64);
    }
}

/// A browsing session over a database.
pub struct Session {
    db: Database,
    defs: Definitions,
    /// Options used for navigation displays.
    pub nav_opts: NavigateOptions,
    /// Options used for probing.
    pub probe_opts: ProbeOptions,
    history: Vec<EntityId>,
}

impl Session {
    /// Starts a session over a database.
    pub fn new(db: Database) -> Self {
        Session {
            db,
            defs: Definitions::new(),
            nav_opts: NavigateOptions::default(),
            probe_opts: ProbeOptions::default(),
            history: Vec::new(),
        }
    }

    /// Read access to the database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the database (facts may be edited mid-session;
    /// the closure refreshes lazily).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Consumes the session, returning the database.
    pub fn into_db(self) -> Database {
        self.db
    }

    fn resolve(&self, name: &str) -> Result<EntityId, SessionError> {
        resolve(self.db.store().interner(), name)
    }

    /// Focuses on an entity: renders its neighborhood `(E, *, *)` and
    /// pushes it on the focus history.
    pub fn focus(&mut self, name: &str) -> Result<GroupedTable, SessionError> {
        let e = self.resolve(name)?;
        let table = self.nav(Pattern::from_source(e))?;
        self.history.push(e);
        Ok(table)
    }

    /// Returns to the previous focus, re-rendering its neighborhood.
    pub fn back(&mut self) -> Result<GroupedTable, SessionError> {
        if self.history.len() < 2 {
            return Err(SessionError::NoHistory);
        }
        self.history.pop();
        let e = *self.history.last().expect("non-empty");
        self.nav(Pattern::from_source(e))
    }

    fn nav(&mut self, pattern: Pattern) -> Result<GroupedTable, SessionError> {
        let view = self.db.view()?;
        let start = Instant::now();
        let table = navigate(&view, pattern, &self.nav_opts)?;
        record_nav(self.db.metrics(), start);
        Ok(table)
    }

    /// The focus history, oldest first.
    pub fn history(&self) -> &[EntityId] {
        &self.history
    }

    /// Navigates an arbitrary template given as three names (`"*"` for a
    /// free position), e.g. `navigate_parts("LEOPOLD", "*", "MOZART")`.
    pub fn navigate_parts(
        &mut self,
        s: &str,
        r: &str,
        t: &str,
    ) -> Result<GroupedTable, SessionError> {
        let i = self.db.store().interner();
        let pattern = Pattern::new(part(i, s)?, part(i, r)?, part(i, t)?);
        self.nav(pattern)
    }

    /// Evaluates a standard query (§2.7) given in the textual syntax.
    pub fn query(&mut self, src: &str) -> Result<Answer, SessionError> {
        let expanded = self.maybe_expand(src)?;
        let query = loosedb_query::parse(&expanded, self.db.store_interner_mut())?;
        let eval_opts = self.probe_opts.eval;
        let view = self.db.view()?;
        let start = Instant::now();
        let (answer, _, stats) = plan_and_eval_stats(&query, &view, eval_opts)?;
        record_eval(self.db.metrics(), start, answer.len(), stats);
        Ok(answer)
    }

    /// Probes a query (§5): evaluates it and, on failure, runs automatic
    /// retraction.
    pub fn probe(&mut self, src: &str) -> Result<ProbeReport, SessionError> {
        let expanded = self.maybe_expand(src)?;
        let query = loosedb_query::parse(&expanded, self.db.store_interner_mut())?;
        let probe_opts = self.probe_opts;
        let view = self.db.view()?;
        let report = probe(&query, &view, &probe_opts);
        record_probe(self.db.metrics(), &report);
        Ok(report)
    }

    /// The §6.1 `try(e)` operator.
    pub fn try_entity(&mut self, name: &str) -> Result<GroupedTable, SessionError> {
        let e = self.resolve(name)?;
        let view = self.db.view()?;
        Ok(try_entity(&view, e)?)
    }

    /// The §6.1 `relation(s, r1 t1, …)` operator, by entity names.
    pub fn relation(
        &mut self,
        class: &str,
        columns: &[(&str, &str)],
    ) -> Result<RelationTable, SessionError> {
        let class = self.resolve(class)?;
        let cols: Vec<(EntityId, EntityId)> = columns
            .iter()
            .map(|(r, t)| Ok((self.resolve(r)?, self.resolve(t)?)))
            .collect::<Result<_, SessionError>>()?;
        let view = self.db.view()?;
        Ok(relation(&view, class, &cols)?)
    }

    /// Renders the evaluation plan of a query without executing it.
    pub fn explain_query(&mut self, src: &str) -> Result<String, SessionError> {
        let expanded = self.maybe_expand(src)?;
        let query = loosedb_query::parse(&expanded, self.db.store_interner_mut())?;
        let view = self.db.view()?;
        Ok(loosedb_query::explain_plan(&query, &view))
    }

    /// The functional view of a relationship (§6.1), optionally
    /// restricted to targets of a class.
    pub fn function(
        &mut self,
        rel: &str,
        target_class: Option<&str>,
    ) -> Result<crate::operators::FunctionView, SessionError> {
        let rel = self.resolve(rel)?;
        let class = target_class.map(|c| self.resolve(c)).transpose()?;
        let view = self.db.view()?;
        Ok(crate::operators::function(&view, rel, class)?)
    }

    /// Defines a named operator (§6 definition facility).
    pub fn define(&mut self, name: &str, arity: usize, body: &str) -> Result<(), SessionError> {
        Ok(self.defs.define(name, arity, body)?)
    }

    /// Expands `name(arg1; arg2; …)` invocations; plain query text passes
    /// through.
    fn maybe_expand(&self, src: &str) -> Result<String, SessionError> {
        Ok(self.defs.maybe_expand(src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let mut db = Database::new();
        db.add("JOHN", "isa", "EMPLOYEE");
        db.add("JOHN", "LIKES", "FELIX");
        db.add("JOHN", "FAVORITE-MUSIC", "PC#9-WAM");
        db.add("PC#9-WAM", "COMPOSED-BY", "MOZART");
        db.add("JOHN", "EARNS", 25000i64);
        Session::new(db)
    }

    #[test]
    fn focus_and_history() {
        let mut s = session();
        let t1 = s.focus("JOHN").unwrap();
        assert!(t1.title_cells.contains(&"EMPLOYEE".to_string()));
        let t2 = s.focus("PC#9-WAM").unwrap();
        assert!(t2.to_string().contains("MOZART"));
        assert_eq!(s.history().len(), 2);
        let t3 = s.back().unwrap();
        assert!(t3.title_cells.contains(&"EMPLOYEE".to_string()));
        assert_eq!(s.history().len(), 1);
        assert!(matches!(s.back(), Err(SessionError::NoHistory)));
    }

    #[test]
    fn unknown_entity_is_an_error_not_a_crash() {
        let mut s = session();
        assert!(matches!(s.focus("NOBODY"), Err(SessionError::UnknownEntity(_))));
    }

    #[test]
    fn numeric_focus() {
        let mut s = session();
        let table = s.try_entity("25000").unwrap();
        assert!(table.to_string().contains("(JOHN, EARNS, 25000)"));
    }

    #[test]
    fn navigation_and_query_interleave() {
        let mut s = session();
        s.focus("JOHN").unwrap();
        let answer = s.query("(?x, COMPOSED-BY, MOZART)").unwrap();
        assert_eq!(answer.len(), 1);
        // Use the answer as the next focus (§4.1's interleaving).
        let next = answer.single_column().unwrap()[0];
        let name = s.db().display(next);
        let table = s.focus(&name).unwrap();
        assert!(table.to_string().contains("COMPOSED-BY"));
    }

    #[test]
    fn probing_through_session() {
        let mut s = session();
        s.db_mut().add("ADORES", "gen", "LIKES");
        let report = s.probe("(JOHN, ADORES, ?x)").unwrap();
        // (JOHN, ADORES, ?x) fails; generalizing ADORES → LIKES succeeds.
        let menu = report.render_menu(s.db().store().interner());
        assert!(menu.contains("with LIKES instead of ADORES"), "{menu}");
    }

    #[test]
    fn defined_operators_invoke() {
        let mut s = session();
        s.define("earns-more", 1, "Q(?x) := exists ?y . (?x, EARNS, ?y) & (?y, >, $1)").unwrap();
        let yes = s.query("earns-more(20000)").unwrap();
        assert_eq!(yes.len(), 1);
        let no = s.query("earns-more(30000)").unwrap();
        assert!(no.is_empty());
    }

    #[test]
    fn plain_queries_unaffected_by_expansion() {
        let mut s = session();
        s.define("f", 0, "(JOHN, LIKES, FELIX)").unwrap();
        // "Q(...)" header must not be mistaken for an operator call.
        let answer = s.query("Q(?x) := (JOHN, LIKES, ?x)").unwrap();
        assert_eq!(answer.len(), 1);
        // And the defined operator works.
        assert!(s.query("f()").unwrap().is_true());
    }

    #[test]
    fn explain_query_through_session() {
        let mut s = session();
        let plan =
            s.explain_query("Q(?x) := exists ?y . (?x, EARNS, ?y) & (?y, >, 20000)").unwrap();
        assert!(plan.contains("join"), "{plan}");
        assert!(plan.contains("EARNS"), "{plan}");
    }

    #[test]
    fn function_through_session() {
        let mut s = session();
        let f = s.function("COMPOSED-BY", None).unwrap();
        assert!(f.is_function());
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn relation_through_session() {
        let mut s = session();
        s.db_mut().add("SHIPPING", "isa", "DEPARTMENT");
        s.db_mut().add("JOHN", "WORKS-FOR", "SHIPPING");
        let table = s.relation("EMPLOYEE", &[("WORKS-FOR", "DEPARTMENT")]).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].cells[0].len(), 1);
    }

    #[test]
    fn navigate_parts_association() {
        let mut s = session();
        let table = s.navigate_parts("JOHN", "*", "MOZART").unwrap();
        // John relates to Mozart through the favorite-music path.
        assert!(table.columns.iter().any(|(h, _)| h == "FAVORITE-MUSIC.PC#9-WAM.COMPOSED-BY"));
    }
}
