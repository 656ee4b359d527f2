//! Browsing by probing: automatic retraction of failed queries (§5).
//!
//! Probing treats the failure (empty answer) of a query as
//! *overqualification*: the query "zoomed in" too far. The system then
//! automatically attempts the query's **retraction set** — all *minimally
//! broader* queries, each obtained by a single application of an inference
//! rule from §3.1 with a minimal generalization (§5.1):
//!
//! * a **source** constant is replaced by a minimal *specialization*
//!   (rule G1: `(FRESHMAN, LOVE, z)` is implied by `(STUDENT, LOVE, z)`);
//! * a **relationship** constant is replaced by a minimal generalization
//!   (rule G2: `LOVE` → `LIKE`);
//! * a **target** constant is replaced by a minimal generalization
//!   (rule G3: `FREE` → `CHEAP`);
//! * a template already degenerate — only variables and `Δ`/`∇` — is
//!   *deleted* (§5.2).
//!
//! Successes are reported as a menu ("Success with FRESHMAN instead of
//! STUDENT"); if every retraction fails too, the process repeats wave by
//! wave up the broadness lattice until something succeeds, nothing remains
//! to broaden (reported, per §5.2, as "no such database entities" when a
//! constant was never a database entity), or the wave budget is exhausted.

use std::collections::BTreeSet;

use loosedb_engine::{ClosureView, FactView, Taxonomy, Template, Term};
use loosedb_query::{eval_with, Answer, EvalOptions, Query};
use loosedb_store::{special, EntityId, Interner};

use crate::table::GroupedTable;

/// Options controlling the retraction process.
#[derive(Clone, Copy, Debug)]
pub struct ProbeOptions {
    /// Maximum retraction waves before giving up.
    pub max_waves: usize,
    /// Maximum queries attempted per wave (safety valve for bushy
    /// taxonomies).
    pub max_attempts_per_wave: usize,
    /// Evaluation options for each attempt.
    pub eval: EvalOptions,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        ProbeOptions { max_waves: 8, max_attempts_per_wave: 512, eval: EvalOptions::default() }
    }
}

/// One broadening step applied to a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetractionStep {
    /// A relationship or target constant was replaced by a minimal
    /// generalization (rules G2/G3).
    Generalized {
        /// The original entity.
        from: EntityId,
        /// Its minimal generalization.
        to: EntityId,
    },
    /// A source constant was replaced by a minimal specialization (G1).
    Specialized {
        /// The original entity.
        from: EntityId,
        /// Its minimal specialization.
        to: EntityId,
    },
    /// A degenerate template (variables and `Δ`/`∇` only) was deleted.
    DeletedTemplate {
        /// Index of the deleted atom in the query's atom order.
        atom: usize,
    },
}

impl RetractionStep {
    /// The menu phrasing of §5.2.
    pub fn describe(&self, interner: &Interner) -> String {
        match self {
            RetractionStep::Generalized { from, to } | RetractionStep::Specialized { from, to } => {
                format!("with {} instead of {}", interner.display(*to), interner.display(*from))
            }
            RetractionStep::DeletedTemplate { atom } => {
                format!("without condition #{}", atom + 1)
            }
        }
    }
}

/// One attempted query in a wave.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The broadened query.
    pub query: Query,
    /// All steps applied since the original query.
    pub steps: Vec<RetractionStep>,
    /// The answer, if the attempt succeeded (non-empty).
    pub answer: Option<Answer>,
}

impl Attempt {
    /// True if the attempt produced a non-empty answer.
    pub fn succeeded(&self) -> bool {
        self.answer.is_some()
    }
}

/// One wave of retraction attempts.
#[derive(Clone, Debug, Default)]
pub struct Wave {
    /// The attempts of this wave.
    pub attempts: Vec<Attempt>,
}

impl Wave {
    /// The successful attempts.
    pub fn successes(&self) -> impl Iterator<Item = &Attempt> {
        self.attempts.iter().filter(|a| a.succeeded())
    }
}

/// How the probe ended.
#[derive(Clone, Debug)]
pub enum ProbeOutcome {
    /// The original query succeeded; no retraction was needed.
    Succeeded(Answer),
    /// Some wave produced successes (listed in `ProbeReport::waves`).
    RetractionsSucceeded {
        /// Index of the first wave with a success.
        wave: usize,
    },
    /// Broadening exhausted without success and at least one constant was
    /// never a database entity (§5.2's misspelling diagnosis).
    NoSuchEntities(Vec<EntityId>),
    /// Broadening exhausted (or the wave budget ran out) with no success.
    Exhausted,
}

/// The full record of a probing session for one query.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// The query as posed.
    pub original: Query,
    /// The waves attempted (empty if the original succeeded).
    pub waves: Vec<Wave>,
    /// How the probe ended.
    pub outcome: ProbeOutcome,
    /// §5.2's *critical failure*: the original failed but **all** of its
    /// minimal retractions succeeded — the exact point where the database
    /// cannot satisfy the query has been isolated.
    pub critical: bool,
}

impl ProbeReport {
    /// Renders the §5.2 menu.
    pub fn render_menu(&self, interner: &Interner) -> String {
        match &self.outcome {
            ProbeOutcome::Succeeded(answer) => {
                format!("Query succeeded ({} answer(s)).\n", answer.len())
            }
            ProbeOutcome::RetractionsSucceeded { wave } => {
                let mut out = String::from("Query failed. Retrying\n\n");
                let mut n = 0;
                for attempt in self.waves[*wave].successes() {
                    n += 1;
                    let descr: Vec<String> =
                        attempt.steps.iter().map(|s| s.describe(interner)).collect();
                    out.push_str(&format!("{n}. Success {}\n", descr.join(" and ")));
                }
                out.push_str("\nYou may select\n");
                if self.critical {
                    out.push_str(
                        "\n(critical failure: every minimal broadening succeeds — \
                         the database cannot satisfy exactly this conjunction)\n",
                    );
                }
                out
            }
            ProbeOutcome::NoSuchEntities(missing) => {
                // By name, not id: the ids of constants no snapshot has
                // interned are a session's private extension order.
                let mut names: Vec<String> = missing.iter().map(|e| interner.display(*e)).collect();
                names.sort();
                format!("Query failed: no such database entities: {}\n", names.join(", "))
            }
            ProbeOutcome::Exhausted => "Query failed; no broader query succeeded.\n".to_string(),
        }
    }

    /// A one-table summary of a wave for display.
    pub fn wave_table(&self, wave: usize, interner: &Interner) -> GroupedTable {
        let mut table = GroupedTable::new(format!("retraction wave {}", wave + 1));
        let mut queries = Vec::new();
        let mut outcomes = Vec::new();
        for attempt in &self.waves[wave].attempts {
            queries.push(attempt.query.render(interner));
            outcomes.push(match &attempt.answer {
                Some(a) => format!("success ({} answers)", a.len()),
                None => "failed".to_string(),
            });
        }
        table.push_column("query", queries);
        table.push_column("outcome", outcomes);
        table
    }
}

/// Runs the probing protocol of §5 for a query.
///
/// ```
/// use loosedb_engine::Database;
/// use loosedb_browse::{probe_text, ProbeOptions};
///
/// let mut db = Database::new();
/// db.add("ADORES", "gen", "LIKES");
/// db.add("JOHN", "LIKES", "FELIX");
///
/// // Nobody ADORES anything; the retraction to LIKES succeeds.
/// let report = probe_text("(JOHN, ADORES, ?x)", &mut db, &ProbeOptions::default()).unwrap();
/// let menu = report.render_menu(db.store().interner());
/// assert!(menu.contains("Success with LIKES instead of ADORES"));
/// ```
pub fn probe(query: &Query, view: &ClosureView<'_>, opts: &ProbeOptions) -> ProbeReport {
    probe_with_taxonomy(query, view, &Taxonomy::new(view.closure()), opts)
}

/// Like [`probe`], but generic over the retrieval view, with the `≺`
/// taxonomy supplied by the caller. This is the entry point for sharded
/// browsing: the taxonomy spans every shard ([`Taxonomy::partitioned`])
/// while the attempts evaluate over the scatter-gather union view.
pub fn probe_with_taxonomy<V: FactView>(
    query: &Query,
    view: &V,
    taxonomy: &Taxonomy<'_>,
    opts: &ProbeOptions,
) -> ProbeReport {
    let _span = loosedb_obs::span!("browse.probe", max_waves = opts.max_waves);

    // Attempt the original query first.
    if let Ok(answer) = eval_with(query, view, opts.eval) {
        if answer.succeeded() {
            return ProbeReport {
                original: query.clone(),
                waves: Vec::new(),
                outcome: ProbeOutcome::Succeeded(answer),
                critical: false,
            };
        }
    }

    let mut seen: BTreeSet<String> = BTreeSet::new();
    seen.insert(query.render(view.interner()));
    let mut missing: BTreeSet<EntityId> = BTreeSet::new();
    let mut waves: Vec<Wave> = Vec::new();
    let mut frontier: Vec<(Query, Vec<RetractionStep>)> = vec![(query.clone(), Vec::new())];

    for wave_index in 0..opts.max_waves {
        let mut wspan = loosedb_obs::span!("browse.retraction_wave", wave = wave_index);
        let mut wave = Wave::default();
        for (base, steps) in &frontier {
            for (broadened, step) in retraction_set(base, taxonomy, &mut missing) {
                let rendered = broadened.render(view.interner());
                if !seen.insert(rendered) {
                    continue;
                }
                if wave.attempts.len() >= opts.max_attempts_per_wave {
                    break;
                }
                let mut all_steps = steps.clone();
                all_steps.push(step);
                let answer = match eval_with(&broadened, view, opts.eval) {
                    Ok(a) if a.succeeded() => Some(a),
                    _ => None,
                };
                wave.attempts.push(Attempt { query: broadened, steps: all_steps, answer });
            }
        }
        wspan.record("attempts", wave.attempts.len());
        wspan.record("successes", wave.attempts.iter().filter(|a| a.succeeded()).count());
        if wave.attempts.is_empty() {
            break;
        }
        let any_success = wave.attempts.iter().any(Attempt::succeeded);
        let all_success = wave.attempts.iter().all(Attempt::succeeded);
        waves.push(wave);
        if any_success {
            let wave_index = waves.len() - 1;
            return ProbeReport {
                original: query.clone(),
                critical: wave_index == 0 && all_success,
                outcome: ProbeOutcome::RetractionsSucceeded { wave: wave_index },
                waves,
            };
        }
        frontier = waves
            .last()
            .expect("just pushed")
            .attempts
            .iter()
            .map(|a| (a.query.clone(), a.steps.clone()))
            .collect();
    }

    let outcome = if missing.is_empty() {
        ProbeOutcome::Exhausted
    } else {
        ProbeOutcome::NoSuchEntities(missing.into_iter().collect())
    };
    ProbeReport { original: query.clone(), waves, outcome, critical: false }
}

/// The retraction set of a query (§5.1): every minimally broader query,
/// each tagged with the step that produced it. Constants that cannot be
/// broadened because they are not database entities are recorded in
/// `missing`.
pub fn retraction_set(
    query: &Query,
    taxonomy: &Taxonomy<'_>,
    missing: &mut BTreeSet<EntityId>,
) -> Vec<(Query, RetractionStep)> {
    let mut out = Vec::new();
    let atoms: Vec<Template> = query.formula.atoms().into_iter().copied().collect();
    for (ai, tpl) in atoms.iter().enumerate() {
        if is_degenerate(tpl) {
            // §5.2: templates of variables and Δ/∇ only are deleted.
            let formula = query.formula.rewrite_atom(ai, &|_| None);
            out.push((
                Query { var_names: query.var_names.clone(), free: query.free.clone(), formula },
                RetractionStep::DeletedTemplate { atom: ai },
            ));
            continue;
        }
        for position in 0..3 {
            let term = tpl.terms()[position];
            let Term::Const(e) = term else { continue };
            if e == special::TOP || e == special::BOT {
                continue;
            }
            let (replacements, make_step): (
                Vec<EntityId>,
                fn(EntityId, EntityId) -> RetractionStep,
            ) = if position == 0 {
                (taxonomy.minimal_specializations(e), |from, to| RetractionStep::Specialized {
                    from,
                    to,
                })
            } else {
                (taxonomy.minimal_generalizations(e), |from, to| RetractionStep::Generalized {
                    from,
                    to,
                })
            };
            if replacements.is_empty() && !taxonomy.exists(e) {
                missing.insert(e);
            }
            for to in replacements {
                let formula = query.formula.rewrite_atom(ai, &|t| {
                    let mut terms = t.terms();
                    terms[position] = Term::Const(to);
                    Some(Template::new(terms[0], terms[1], terms[2]))
                });
                out.push((
                    Query { var_names: query.var_names.clone(), free: query.free.clone(), formula },
                    make_step(e, to),
                ));
            }
        }
    }
    out
}

/// True if the template contains only variables and `Δ`/`∇` (§5.2).
fn is_degenerate(tpl: &Template) -> bool {
    tpl.terms().into_iter().all(|t| match t {
        Term::Var(_) => true,
        Term::Const(e) => e == special::TOP || e == special::BOT,
    })
}

/// Convenience used by tests and the REPL: probe a textual query.
pub fn probe_text(
    src: &str,
    db: &mut loosedb_engine::Database,
    opts: &ProbeOptions,
) -> Result<ProbeReport, String> {
    let query = loosedb_query::parse(src, db.store_interner_mut()).map_err(|e| e.to_string())?;
    let view = db.view().map_err(|e| e.to_string())?;
    Ok(probe(&query, &view, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loosedb_engine::Database;

    /// The §5.2 world: free things that all students love.
    fn paper_world() -> Database {
        let mut db = Database::new();
        // Taxonomy assumed by the paper.
        db.add("FRESHMAN", "gen", "STUDENT");
        db.add("LOVE", "gen", "LIKE");
        db.add("FREE", "gen", "CHEAP");
        // COSTS has no parent: its minimal generalization is Δ.
        // Data: freshmen love free things; students like free things —
        // but nothing makes the original query succeed.
        db.add("FRESHMAN", "LOVE", "MUSIC-DOWNLOAD");
        db.add("MUSIC-DOWNLOAD", "COSTS", "FREE");
        db.add("STUDENT", "LIKE", "LIBRARY");
        db.add("LIBRARY", "COSTS", "FREE");
        db.add("STUDENT", "LOVE", "COFFEE");
        db.add("COFFEE", "COSTS", "CHEAP");
        db
    }

    const PAPER_QUERY: &str = "Q(?z) := (STUDENT, LOVE, ?z) & (?z, COSTS, FREE)";

    #[test]
    fn paper_section_5_2_retraction_set() {
        let mut db = paper_world();
        let query = loosedb_query::parse(PAPER_QUERY, db.store_interner_mut()).unwrap();
        let view = db.view().unwrap();
        let taxonomy = Taxonomy::new(view.closure());
        let mut missing = BTreeSet::new();
        let retractions = retraction_set(&query, &taxonomy, &mut missing);
        let rendered: Vec<String> =
            retractions.iter().map(|(q, _)| q.render(view.interner())).collect();
        // The four minimally broader queries of §5.2.
        assert!(rendered.iter().any(|r| r.contains("(FRESHMAN, LOVE, ?z)")), "{rendered:?}");
        assert!(rendered.iter().any(|r| r.contains("(STUDENT, LIKE, ?z)")), "{rendered:?}");
        assert!(rendered.iter().any(|r| r.contains("(?z, TOP, FREE)")), "{rendered:?}");
        assert!(rendered.iter().any(|r| r.contains("(?z, COSTS, CHEAP)")), "{rendered:?}");
        // Exactly the paper's four minimally broader queries.
        assert_eq!(retractions.len(), 4);
        assert!(missing.is_empty());
    }

    #[test]
    fn paper_section_5_2_menu() {
        let mut db = paper_world();
        let report = probe_text(PAPER_QUERY, &mut db, &ProbeOptions::default()).unwrap();
        assert!(matches!(report.outcome, ProbeOutcome::RetractionsSucceeded { wave: 0 }));
        let menu = report.render_menu(db.store().interner());
        assert!(menu.starts_with("Query failed. Retrying"));
        // The paper's two successes.
        assert!(menu.contains("with FRESHMAN instead of STUDENT"), "{menu}");
        assert!(menu.contains("with CHEAP instead of FREE"), "{menu}");
        assert!(menu.contains("You may select"));
        // LIKE also succeeds in our data (students like the free library).
        assert!(menu.contains("with LIKE instead of LOVE"), "{menu}");
    }

    #[test]
    fn successful_query_needs_no_retraction() {
        let mut db = paper_world();
        db.add("STUDENT", "LOVE", "SUNSHINE");
        db.add("SUNSHINE", "COSTS", "FREE");
        let report = probe_text(PAPER_QUERY, &mut db, &ProbeOptions::default()).unwrap();
        assert!(matches!(report.outcome, ProbeOutcome::Succeeded(_)));
        assert!(report.waves.is_empty());
    }

    #[test]
    fn successful_attempts_carry_answers() {
        let mut db = paper_world();
        let report = probe_text(PAPER_QUERY, &mut db, &ProbeOptions::default()).unwrap();
        let wave = &report.waves[0];
        for attempt in wave.successes() {
            let answer = attempt.answer.as_ref().unwrap();
            assert!(answer.succeeded());
        }
        // The FRESHMAN broadening finds the music download.
        let freshman_attempt = wave
            .attempts
            .iter()
            .find(|a| a.steps.iter().any(|s| matches!(s, RetractionStep::Specialized { .. })))
            .unwrap();
        let names: Vec<String> = freshman_attempt
            .answer
            .as_ref()
            .unwrap()
            .single_column()
            .unwrap()
            .iter()
            .map(|&e| db.display(e))
            .collect();
        assert_eq!(names, vec!["MUSIC-DOWNLOAD".to_string()]);
    }

    #[test]
    fn misspelled_entity_reported() {
        // §5.2: (JOHN, LOVES, z) where LOVES is not a database entity.
        let mut db = Database::new();
        db.add("JOHN", "ADORES", "MARY");
        let report = probe_text("(JOHN, LOVES, ?z)", &mut db, &ProbeOptions::default()).unwrap();
        match &report.outcome {
            ProbeOutcome::NoSuchEntities(missing) => {
                let names: Vec<String> = missing.iter().map(|&e| db.display(e)).collect();
                assert!(names.contains(&"LOVES".to_string()), "{names:?}");
            }
            other => panic!("expected NoSuchEntities, got {other:?}"),
        }
    }

    #[test]
    fn second_wave_reached_when_first_fails() {
        // Taxonomy two levels deep; data only matches at the grandparent.
        let mut db = Database::new();
        db.add("OPERA", "gen", "MUSIC");
        db.add("MUSIC", "gen", "ART");
        db.add("JOHN", "LOVES", "ART");
        let report = probe_text("(JOHN, LOVES, OPERA)", &mut db, &ProbeOptions::default()).unwrap();
        match report.outcome {
            ProbeOutcome::RetractionsSucceeded { wave } => assert_eq!(wave, 1),
            other => panic!("{other:?}"),
        }
        // Wave 1 contains MUSIC (failed); wave 2 contains ART (success).
        assert_eq!(report.waves.len(), 2);
        let steps: Vec<&RetractionStep> =
            report.waves[1].successes().flat_map(|a| a.steps.iter()).collect();
        assert_eq!(steps.len(), 2); // two chained generalizations
    }

    #[test]
    fn degenerate_template_deleted() {
        // After generalizing everything to Δ, the template is dropped; the
        // remaining conjunct can then succeed.
        let mut db = Database::new();
        db.add("JOHN", "LIKES", "FELIX");
        db.add("GHOST-REL", "gen", "TOP-REL"); // unrelated
        let mut missing = BTreeSet::new();
        let query = loosedb_query::parse(
            "Q(?z) := exists ?x . (JOHN, LIKES, ?z) & (?x, TOP, ?z)",
            db.store_interner_mut(),
        )
        .unwrap();
        let view = db.view().unwrap();
        let taxonomy = Taxonomy::new(view.closure());
        let retractions = retraction_set(&query, &taxonomy, &mut missing);
        let deleted: Vec<&(Query, RetractionStep)> = retractions
            .iter()
            .filter(|(_, s)| matches!(s, RetractionStep::DeletedTemplate { .. }))
            .collect();
        assert_eq!(deleted.len(), 1);
        assert_eq!(deleted[0].0.formula.atoms().len(), 1);
    }

    #[test]
    fn critical_failure_flagged() {
        // Both minimal broadenings succeed but the conjunction fails.
        let mut db = Database::new();
        db.add("LOVE", "gen", "LIKE");
        db.add("FREE", "gen", "CHEAP");
        db.add("STUDENT", "LIKE", "BOOK-X"); // LIKE version succeeds
        db.add("BOOK-X", "COSTS", "FREE");
        db.add("STUDENT", "LOVE", "COFFEE"); // CHEAP version succeeds
        db.add("COFFEE", "COSTS", "CHEAP");
        // (avoid FRESHMAN/Δ side-retractions by leaving STUDENT/COSTS
        // without children/parents only where needed)
        let report = probe_text(
            "Q(?z) := (STUDENT, LOVE, ?z) & (?z, COSTS, FREE)",
            &mut db,
            &ProbeOptions::default(),
        )
        .unwrap();
        match report.outcome {
            ProbeOutcome::RetractionsSucceeded { wave: 0 } => {}
            ref other => panic!("{other:?}"),
        }
        // Not necessarily critical: STUDENT→∇ and COSTS→Δ broadenings may
        // fail. Check the flag agrees with the attempts.
        let all = report.waves[0].attempts.iter().all(Attempt::succeeded);
        assert_eq!(report.critical, all);
    }

    #[test]
    fn unenumerable_query_rescued_by_generalization() {
        // (?x, !=, ?y) cannot be evaluated (both sides free); probing
        // treats the error as failure and generalizes ≠ — whose only
        // minimal generalization is Δ — into (?x, Δ, ?y), which succeeds
        // as soon as any projectable fact exists.
        let mut db = Database::new();
        db.add("JOHN", "LIKES", "FELIX");
        let report = probe_text("(?x, !=, ?y)", &mut db, &ProbeOptions::default()).unwrap();
        match &report.outcome {
            ProbeOutcome::RetractionsSucceeded { wave } => {
                let menu = report.render_menu(db.store().interner());
                assert!(menu.contains("with TOP instead of !="), "{menu}");
                assert_eq!(*wave, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_over_inconsistent_database_still_works() {
        // §2.6 allows inconsistent facts; retrieval (and hence probing)
        // keeps functioning.
        let mut db = Database::new();
        db.add("LOVES", "contra", "HATES");
        db.add("JOHN", "LOVES", "MARY");
        db.add("JOHN", "HATES", "MARY");
        db.add("ADORES", "gen", "LOVES");
        assert!(!db.is_consistent().unwrap());
        let report = probe_text("(JOHN, ADORES, ?x)", &mut db, &ProbeOptions::default()).unwrap();
        assert!(matches!(report.outcome, ProbeOutcome::RetractionsSucceeded { wave: 0 }));
    }

    #[test]
    fn attempt_cap_limits_wave_size() {
        // A constant with many minimal generalizations explodes the wave;
        // max_attempts_per_wave bounds it.
        let mut db = Database::new();
        for i in 0..50 {
            db.add("THING", "gen", format!("KIND-{i}"));
        }
        db.add("JOHN", "WANTS", "THING");
        db.remove(&{
            let john = db.lookup_symbol("JOHN").unwrap();
            let wants = db.lookup_symbol("WANTS").unwrap();
            let thing = db.lookup_symbol("THING").unwrap();
            loosedb_store::Fact::new(john, wants, thing)
        });
        db.add("JOHN", "WANTS", "SOMETHING-ELSE");
        let opts = ProbeOptions { max_attempts_per_wave: 10, ..Default::default() };
        let report = probe_text("(JOHN, NEEDS, THING)", &mut db, &opts).unwrap();
        for wave in &report.waves {
            assert!(wave.attempts.len() <= 10);
        }
    }

    #[test]
    fn wave_budget_respected() {
        let mut db = Database::new();
        // A deep chain that can never succeed.
        for i in 0..20 {
            db.add(format!("L{i}"), "gen", format!("L{}", i + 1));
        }
        db.add("JOHN", "WANTS", "L0");
        let opts = ProbeOptions { max_waves: 3, ..Default::default() };
        let report = probe_text("(ROBERT, WANTS, L0)", &mut db, &opts).unwrap();
        assert!(report.waves.len() <= 3);
    }

    #[test]
    fn wave_table_renders() {
        let mut db = paper_world();
        let report = probe_text(PAPER_QUERY, &mut db, &ProbeOptions::default()).unwrap();
        let table = report.wave_table(0, db.store().interner());
        let rendered = table.to_string();
        assert!(rendered.contains("query"));
        assert!(rendered.contains("outcome"));
        assert!(rendered.contains("success"));
    }
}
