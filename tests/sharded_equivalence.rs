//! Sharded-vs-single equivalence, property-tested.
//!
//! The sharding layer's contract (DESIGN.md §14) is that partitioning is
//! *invisible*: for any database and any interleaving of additions and
//! retractions, the union of the per-shard closures is exactly the
//! closure a single store would compute — same facts, same exactness
//! judgments, same integrity violations, same active domain, and same
//! answers to every query, whether it scatters whole (collocated) or
//! gathers through the union view — and the same probe menus (§5), whose
//! retraction taxonomy a sharded session assembles from its shards. This
//! suite drives random worlds with taxonomy edges, synonyms and
//! inversions through random add/remove interleavings at N ∈ {1, 2, 4}
//! shards and demands all six agreements, mirroring
//! `incremental_removal_equals_recompute` in `tests/properties.rs`.
//!
//! Ids differ between the sharded and single interners, so every
//! comparison goes through display strings (portable across interners).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use loosedb::engine::Violation;
use loosedb::{
    parse, probe, Database, EntityValue, Fact, ProbeOptions, ProbeReport, ShardedDatabase,
    ShardedSession, ShardedSnapshot,
};

/// A compact description of a random database: node entities N0..N9,
/// relationship entities R0..R4, plus generalization edges that form a
/// DAG (edges only go from lower to higher index, so no accidental
/// synonyms).
#[derive(Clone, Debug)]
struct DbSpec {
    facts: Vec<(u8, u8, u8)>,
    node_gen_edges: Vec<(u8, u8)>,
    rel_gen_edges: Vec<(u8, u8)>,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    (
        prop::collection::vec((0u8..10, 0u8..5, 0u8..10), 0..25),
        prop::collection::vec((0u8..9, 0u8..10), 0..8),
        prop::collection::vec((0u8..4, 0u8..5), 0..4),
    )
        .prop_map(|(facts, raw_node_edges, raw_rel_edges)| DbSpec {
            facts,
            node_gen_edges: raw_node_edges.into_iter().filter(|(a, b)| a < b).collect(),
            rel_gen_edges: raw_rel_edges.into_iter().filter(|(a, b)| a < b).collect(),
        })
}

/// Every entity name the generators can mention, pre-interned on both
/// sides so query constants always resolve.
fn all_names() -> Vec<String> {
    (0..10).map(|i| format!("N{i}")).chain((0..5).map(|i| format!("R{i}"))).collect()
}

/// The triple candidates an op sequence picks from: ordinary facts plus
/// every taxonomy flavour, so retraction crosses rule-derived chains.
fn candidates(
    spec: &DbSpec,
    isa_edges: &[(u8, u8)],
    syn_pairs: &[(u8, u8)],
    inv_pairs: &[(u8, u8)],
) -> Vec<(String, String, String)> {
    let mut out: Vec<(String, String, String)> = Vec::new();
    for &(s, r, t) in &spec.facts {
        out.push((format!("N{s}"), format!("R{r}"), format!("N{t}")));
    }
    for &(a, b) in &spec.node_gen_edges {
        out.push((format!("N{a}"), "gen".into(), format!("N{b}")));
    }
    for &(a, b) in &spec.rel_gen_edges {
        out.push((format!("R{a}"), "gen".into(), format!("R{b}")));
    }
    for &(a, b) in isa_edges {
        out.push((format!("N{a}"), "isa".into(), format!("N{b}")));
    }
    for &(a, b) in syn_pairs {
        if a != b {
            out.push((format!("N{a}"), "syn".into(), format!("N{b}")));
        }
    }
    for &(a, b) in inv_pairs {
        out.push((format!("R{a}"), "inv".into(), format!("R{b}")));
    }
    out
}

/// The queries compared on every generated world: collocated shapes
/// (single source variable — scatter whole, gather answers), cross-shard
/// chains (gathered through the union view and finished by the
/// partitioned join), a broadcast-relationship probe and a disjunction.
const QUERIES: &[&str] = &[
    "Q(?x, ?y) := (?x, R0, ?y)",
    "Q(?x) := exists ?y . exists ?z . (?x, R0, ?y) & (?x, R1, ?z)",
    "Q(?x, ?z) := exists ?y . (?x, R0, ?y) & (?y, R1, ?z)",
    "Q(?x) := (?x, isa, N9)",
    "Q(?x) := (?x, R0, N1) | (?x, R1, N1)",
];

/// Probes compared on every generated world: queries that mostly fail,
/// whose retraction specializes N9 and generalizes N0, N5 and R0/R1
/// through the generated `gen` edges and `isa` memberships — so a sharded
/// probe's taxonomy is checked against the single store's.
const PROBES: &[&str] = &["(N9, R0, N0)", "Q(?x) := (?x, isa, N5) & (?x, R1, N0)"];

/// A probe's menu, every attempt's success flag wave by wave, and §5.2's
/// critical-failure mark.
fn probe_outcome(menu: String, report: &ProbeReport) -> (String, Vec<Vec<bool>>, bool) {
    let flags = report.waves.iter().map(|w| w.attempts.iter().map(|a| a.succeeded()).collect());
    (menu, flags.collect(), report.critical)
}

fn closure_displays(snap: &ShardedSnapshot) -> BTreeMap<String, bool> {
    let mut out = BTreeMap::new();
    for g in snap.generations() {
        for f in g.closure().iter() {
            let key =
                format!("({}, {}, {})", snap.display(f.s), snap.display(f.r), snap.display(f.t));
            // Exactness is the owner shard's judgment, identical on every
            // shard that holds a copy only for exact facts — so query it
            // through the snapshot, not the shard we found the fact on.
            out.insert(key, snap.is_exact(&f));
        }
    }
    out
}

fn violation_key(display: &dyn Fn(loosedb::EntityId) -> String, v: &Violation) -> String {
    let fact = |f: &Fact| format!("({}, {}, {})", display(f.s), display(f.r), display(f.t));
    match v {
        Violation::Contradiction { fact: a, conflicting, via } => {
            // The two sides of a contradiction can be discovered in
            // either order; canonicalize.
            let (mut x, mut y) = (fact(a), fact(conflicting));
            if x > y {
                std::mem::swap(&mut x, &mut y);
            }
            format!("contradiction {x} / {y} via {}", fact(via))
        }
        Violation::MathFalse { fact: f, .. } => format!("math-false {}", fact(f)),
        Violation::MathUndefined { fact: f, .. } => format!("math-undefined {}", fact(f)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random worlds and random add/remove interleavings, a sharded
    /// database at N ∈ {1, 2, 4} is observationally identical to a
    /// single store: closure facts, exactness, violations, domain, all
    /// answer sets and all probe menus agree.
    #[test]
    fn sharded_equals_single_store(
        spec in db_spec(),
        isa_edges in prop::collection::vec((0u8..10, 0u8..10), 0..4),
        syn_pairs in prop::collection::vec((0u8..10, 0u8..10), 0..2),
        inv_pairs in prop::collection::vec((0u8..5, 0u8..5), 0..2),
        ops in prop::collection::vec((any::<bool>(), 0u8..64), 1..25),
    ) {
        let candidates = candidates(&spec, &isa_edges, &syn_pairs, &inv_pairs);
        if candidates.is_empty() {
            return Ok(()); // nothing to add or remove
        }

        // --- Single-store reference ---------------------------------
        let mut single = Database::new();
        for name in all_names() {
            single.store_interner_mut().intern(EntityValue::symbol(&name));
        }
        // Record which ops took effect so every replica of the sequence
        // agrees on the final base set.
        let mut effective: Vec<(bool, usize)> = Vec::new();
        for &(add, pick) in &ops {
            let i = pick as usize % candidates.len();
            let (s, r, t) = &candidates[i];
            if add {
                let f = Fact::new(
                    single.store().interner().lookup_symbol(s).unwrap(),
                    single.store().interner().lookup_symbol(r).unwrap(),
                    single.store().interner().lookup_symbol(t).unwrap(),
                );
                if single.store().contains(&f) {
                    continue;
                }
                single.add(s.as_str(), r.as_str(), t.as_str());
            } else {
                let f = Fact::new(
                    single.store().interner().lookup_symbol(s).unwrap(),
                    single.store().interner().lookup_symbol(r).unwrap(),
                    single.store().interner().lookup_symbol(t).unwrap(),
                );
                if !single.remove(&f) {
                    continue;
                }
            }
            effective.push((add, i));
        }

        let mut expected_facts: BTreeMap<String, bool> = BTreeMap::new();
        let mut expected_violations: BTreeSet<String> = BTreeSet::new();
        let mut expected_domain: BTreeSet<String> = BTreeSet::new();
        {
            single.refresh().unwrap();
            let collected: Vec<(Fact, bool)> = {
                let closure = single.closure().unwrap();
                closure.iter().map(|f| (f, closure.is_exact(&f))).collect()
            };
            for (f, exact) in collected {
                expected_facts.insert(single.display_fact(&f), exact);
            }
            let violations = single.closure().unwrap().violations().to_vec();
            let domain = single.closure().unwrap().domain().to_vec();
            let disp = |id| single.store().display(id);
            for v in &violations {
                expected_violations.insert(violation_key(&disp, v));
            }
            for id in domain {
                expected_domain.insert(single.store().display(id));
            }
        }
        let mut expected_answers: Vec<String> = Vec::new();
        for q in QUERIES {
            let parsed = parse(q, single.store_interner_mut()).unwrap();
            let view = single.view().unwrap();
            let answer = loosedb::query::eval(&parsed, &view).unwrap();
            expected_answers.push(answer.render(single.store().interner()));
        }
        let mut expected_probes = Vec::new();
        for p in PROBES {
            let parsed = parse(p, single.store_interner_mut()).unwrap();
            let view = single.view().unwrap();
            let report = probe(&parsed, &view, &ProbeOptions::default());
            let menu = report.render_menu(single.store().interner());
            expected_probes.push(probe_outcome(menu, &report));
        }

        // --- Sharded replicas at N ∈ {1, 2, 4} ----------------------
        for n in [1usize, 2, 4] {
            let db = ShardedDatabase::new(n).unwrap();
            for name in all_names() {
                db.entity(EntityValue::symbol(&name));
            }
            for &(add, i) in &effective {
                let (s, r, t) = &candidates[i];
                if add {
                    db.insert(s.as_str(), r.as_str(), t.as_str()).unwrap();
                } else {
                    let f = Fact::new(
                        db.entity(EntityValue::symbol(s)),
                        db.entity(EntityValue::symbol(r)),
                        db.entity(EntityValue::symbol(t)),
                    );
                    prop_assert!(db.remove(&f).unwrap(), "n={}: remove must mirror single", n);
                }
            }
            let snap = db.snapshot();

            let got_facts = closure_displays(&snap);
            prop_assert_eq!(&got_facts, &expected_facts, "n={}: facts or exactness diverge", n);

            let disp = |id| snap.display(id);
            let got_violations: BTreeSet<String> =
                snap.violations().iter().map(|v| violation_key(&disp, v)).collect();
            prop_assert_eq!(&got_violations, &expected_violations, "n={}: violations", n);

            let got_domain: BTreeSet<String> =
                snap.domain().into_iter().map(|id| snap.display(id)).collect();
            prop_assert_eq!(&got_domain, &expected_domain, "n={}: domain", n);

            let mut session = ShardedSession::new(Arc::new(db));
            for (q, expected) in QUERIES.iter().zip(&expected_answers) {
                let answer = session.query(q).unwrap();
                let rendered = answer.render(session.snapshot().interner());
                prop_assert_eq!(&rendered, expected, "n={}: answers diverge on {}", n, q);
            }
            for (p, expected) in PROBES.iter().zip(&expected_probes) {
                let report = session.probe(p).unwrap();
                let got = probe_outcome(session.render_probe(&report), &report);
                prop_assert_eq!(&got, expected, "n={}: probe menus diverge on {}", n, p);
            }
        }
    }
}
