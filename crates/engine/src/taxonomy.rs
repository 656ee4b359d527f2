//! The generalization hierarchy, analysed for probing (§5.1).
//!
//! Probing needs, for every entity, its *minimal generalizations* — the
//! paper's definition: `E'` is a minimal generalization of `E` if
//! `(E, ≺, E')`, `(E', ⊀, E)` (ruling out synonyms), and no third entity
//! lies strictly between them. Broadening a query's *source* position uses
//! the dual notion, minimal *specializations* (rule G1 broadens a query by
//! replacing a source entity with a child).
//!
//! The closure already materializes the transitive generalization facts,
//! so this module works from complete ancestor/descendant sets. Entities
//! with no stored strict ancestor have `Δ` as their (only) minimal
//! generalization, and entities with no stored strict descendant have `∇`
//! as their minimal specialization — the hierarchy bounds of §2.3, which
//! is how probing eventually degenerates templates to all-`Δ`/`∇` form
//! (§5.2).

use std::collections::BTreeSet;

use loosedb_store::{special, EntityId, Fact, Pattern};

use crate::closure::Closure;

/// A read-only analysis of the `≺` hierarchy in a closure.
///
/// ```
/// use loosedb_engine::{Database, Taxonomy};
///
/// let mut db = Database::new();
/// db.add("FRESHMAN", "gen", "STUDENT");
/// db.add("STUDENT", "gen", "PERSON");
///
/// let freshman = db.lookup_symbol("FRESHMAN").unwrap();
/// let student = db.lookup_symbol("STUDENT").unwrap();
/// let closure = db.closure().unwrap();
/// let tax = Taxonomy::new(closure);
/// // PERSON is an ancestor but not minimal — STUDENT lies between.
/// assert_eq!(tax.minimal_generalizations(freshman), vec![student]);
/// ```
pub struct Taxonomy<'a> {
    closure: &'a Closure,
    /// The other partitions of a sharded database (none for one store),
    /// consulted only by [`Taxonomy::exists`].
    others: Vec<&'a Closure>,
}

impl<'a> Taxonomy<'a> {
    /// Creates a taxonomy view over a closure.
    pub fn new(closure: &'a Closure) -> Self {
        Taxonomy { closure, others: Vec::new() }
    }

    /// A taxonomy over a database partitioned into `closures` (at least
    /// one). The `≺` and `≈` facts are read from the first: a sharded
    /// database broadcasts every structural fact, so each partition holds
    /// the whole hierarchy. Whether an entity exists at all is judged
    /// across every partition, since most facts live on one shard only.
    pub fn partitioned(closures: impl IntoIterator<Item = &'a Closure>) -> Self {
        let mut closures = closures.into_iter();
        let closure = closures.next().expect("at least one partition");
        Taxonomy { closure, others: closures.collect() }
    }

    /// True if `e` occurs anywhere in the closure (probing's "is this a
    /// database entity?" test, §5.2).
    pub fn exists(&self, e: EntityId) -> bool {
        let occurs = |c: &Closure| {
            c.matching(Pattern::from_source(e)).next().is_some()
                || c.matching(Pattern::from_rel(e)).next().is_some()
                || c.matching(Pattern::from_target(e)).next().is_some()
        };
        special::is_special(e) || occurs(self.closure) || self.others.iter().any(|c| occurs(c))
    }

    /// True if `(a, ≺, b)` holds, including the virtual reflexive and
    /// `Δ`/`∇` bound facts.
    pub fn is_gen(&self, a: EntityId, b: EntityId) -> bool {
        a == b
            || b == special::TOP
            || a == special::BOT
            || self.closure.contains(&Fact::new(a, special::GEN, b))
    }

    /// True if `a` is *strictly* below `b`: `a ≺ b` but not `b ≺ a`
    /// (synonyms are mutually ≺ and therefore not strict).
    pub fn is_strictly_below(&self, a: EntityId, b: EntityId) -> bool {
        a != b && self.is_gen(a, b) && !self.is_gen(b, a)
    }

    /// All entities strictly above `e` in stored generalization facts
    /// (excluding synonyms of `e`, `e` itself, and the virtual `Δ`).
    pub fn strict_ancestors(&self, e: EntityId) -> BTreeSet<EntityId> {
        self.closure
            .matching(Pattern::new(Some(e), Some(special::GEN), None))
            .map(|f| f.t)
            .filter(|&t| t != e && !self.is_gen(t, e))
            .collect()
    }

    /// All entities strictly below `e` in stored generalization facts.
    pub fn strict_descendants(&self, e: EntityId) -> BTreeSet<EntityId> {
        self.closure
            .matching(Pattern::new(None, Some(special::GEN), Some(e)))
            .map(|f| f.s)
            .filter(|&s| s != e && !self.is_gen(e, s))
            .collect()
    }

    /// The synonyms of `e` (entities mutually ≺ with `e`), excluding `e`.
    pub fn synonyms(&self, e: EntityId) -> BTreeSet<EntityId> {
        self.closure
            .matching(Pattern::new(Some(e), Some(special::SYN), None))
            .map(|f| f.t)
            .filter(|&t| t != e)
            .collect()
    }

    /// The minimal generalizations of `e` (§5.1).
    ///
    /// Returns `[Δ]` when `e` exists but has no stored strict ancestor
    /// (the paper's `(COSTS, ≺, Δ)` case), and the empty vector when `e`
    /// is not a database entity at all — the signal probing turns into
    /// "no such database entity" (§5.2).
    pub fn minimal_generalizations(&self, e: EntityId) -> Vec<EntityId> {
        if e == special::TOP {
            return Vec::new(); // nothing is broader than Δ
        }
        if !self.exists(e) {
            return Vec::new();
        }
        let ancestors = self.strict_ancestors(e);
        if ancestors.is_empty() {
            return vec![special::TOP];
        }
        minimal_elements(&ancestors, |a, b| self.is_strictly_below(a, b))
    }

    /// The minimal specializations of `e` — the dual of
    /// [`minimal_generalizations`](Taxonomy::minimal_generalizations),
    /// used to broaden the *source* position (rule G1).
    ///
    /// Returns `[∇]` when `e` exists but has no stored strict descendant.
    pub fn minimal_specializations(&self, e: EntityId) -> Vec<EntityId> {
        if e == special::BOT {
            return Vec::new();
        }
        if !self.exists(e) {
            return Vec::new();
        }
        let descendants = self.strict_descendants(e);
        if descendants.is_empty() {
            return vec![special::BOT];
        }
        minimal_elements(&descendants, |a, b| self.is_strictly_below(b, a))
    }
}

/// The elements of `set` that have no other element strictly below them
/// according to `below(a, b)` ("a is strictly below b").
fn minimal_elements(
    set: &BTreeSet<EntityId>,
    below: impl Fn(EntityId, EntityId) -> bool,
) -> Vec<EntityId> {
    set.iter().copied().filter(|&a| !set.iter().any(|&b| b != a && below(b, a))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::{compute, Strategy};
    use crate::config::InferenceConfig;
    use crate::kind::KindRegistry;
    use crate::rule::RuleSet;
    use loosedb_store::FactStore;

    fn closure_of(build: impl FnOnce(&mut FactStore)) -> (FactStore, Closure) {
        let mut store = FactStore::new();
        build(&mut store);
        let c = compute(
            &mut store,
            &KindRegistry::new(),
            &RuleSet::new(),
            &InferenceConfig::default(),
            Strategy::SemiNaive,
        )
        .unwrap();
        (store, c)
    }

    #[test]
    fn minimal_generalizations_direct_parent() {
        let (store, c) = closure_of(|s| {
            s.add("FRESHMAN", "gen", "STUDENT");
            s.add("STUDENT", "gen", "PERSON");
        });
        let tax = Taxonomy::new(&c);
        let freshman = store.lookup_symbol("FRESHMAN").unwrap();
        let student = store.lookup_symbol("STUDENT").unwrap();
        let person = store.lookup_symbol("PERSON").unwrap();
        // PERSON is an ancestor but not minimal: STUDENT lies between.
        assert_eq!(tax.minimal_generalizations(freshman), vec![student]);
        assert_eq!(tax.minimal_generalizations(student), vec![person]);
    }

    #[test]
    fn entity_may_have_several_minimal_generalizations() {
        // §5.1: "an entity may have several minimal generalizations" —
        // the paper's OPERA ≺ MUSIC, OPERA ≺ THEATER.
        let (store, c) = closure_of(|s| {
            s.add("OPERA", "gen", "MUSIC");
            s.add("OPERA", "gen", "THEATER");
        });
        let tax = Taxonomy::new(&c);
        let opera = store.lookup_symbol("OPERA").unwrap();
        let music = store.lookup_symbol("MUSIC").unwrap();
        let theater = store.lookup_symbol("THEATER").unwrap();
        let mut gens = tax.minimal_generalizations(opera);
        gens.sort();
        let mut expected = vec![music, theater];
        expected.sort();
        assert_eq!(gens, expected);
    }

    #[test]
    fn rootless_entity_generalizes_to_top() {
        // §5.2: (COSTS, ≺, Δ) is a minimal generalization.
        let (store, c) = closure_of(|s| {
            s.add("STUDENT", "COSTS", "MONEY");
        });
        let tax = Taxonomy::new(&c);
        let costs = store.lookup_symbol("COSTS").unwrap();
        assert_eq!(tax.minimal_generalizations(costs), vec![special::TOP]);
    }

    #[test]
    fn missing_entity_has_no_generalizations() {
        // §5.2: a misspelled entity "will never be replaced".
        let (mut store, c) = {
            let (store, c) = closure_of(|s| {
                s.add("JOHN", "LIKES", "FELIX");
            });
            (store, c)
        };
        let tax = Taxonomy::new(&c);
        let loves = store.entity("LOVES-MISSPELLED"); // interned, never used
        assert!(!tax.exists(loves));
        assert_eq!(tax.minimal_generalizations(loves), Vec::<EntityId>::new());
        assert_eq!(tax.minimal_specializations(loves), Vec::<EntityId>::new());
    }

    #[test]
    fn minimal_specializations_mirror() {
        let (store, c) = closure_of(|s| {
            s.add("FRESHMAN", "gen", "STUDENT");
            s.add("SOPHOMORE", "gen", "STUDENT");
            s.add("STUDENT", "gen", "PERSON");
        });
        let tax = Taxonomy::new(&c);
        let student = store.lookup_symbol("STUDENT").unwrap();
        let person = store.lookup_symbol("PERSON").unwrap();
        let freshman = store.lookup_symbol("FRESHMAN").unwrap();
        let sophomore = store.lookup_symbol("SOPHOMORE").unwrap();
        let mut specs = tax.minimal_specializations(person);
        specs.sort();
        assert_eq!(specs, vec![student]);
        let mut specs = tax.minimal_specializations(student);
        specs.sort();
        let mut expected = vec![freshman, sophomore];
        expected.sort();
        assert_eq!(specs, expected);
        // Leaves specialize to ∇.
        assert_eq!(tax.minimal_specializations(freshman), vec![special::BOT]);
    }

    #[test]
    fn synonyms_are_not_strict_ancestors() {
        let (store, c) = closure_of(|s| {
            s.add("JOHN", "syn", "JOHNNY");
            s.add("JOHN", "isa", "PERSON-CLASS");
        });
        let tax = Taxonomy::new(&c);
        let john = store.lookup_symbol("JOHN").unwrap();
        let johnny = store.lookup_symbol("JOHNNY").unwrap();
        // JOHNNY is mutually ≺ with JOHN: not a strict ancestor, so JOHN's
        // minimal generalization is Δ, not JOHNNY.
        assert!(tax.strict_ancestors(john).is_empty());
        assert_eq!(tax.minimal_generalizations(john), vec![special::TOP]);
        assert_eq!(tax.synonyms(john), [johnny].into_iter().collect());
    }

    #[test]
    fn virtual_gen_relations() {
        let (store, c) = closure_of(|s| {
            s.add("EMPLOYEE", "gen", "PERSON");
        });
        let tax = Taxonomy::new(&c);
        let employee = store.lookup_symbol("EMPLOYEE").unwrap();
        let person = store.lookup_symbol("PERSON").unwrap();
        assert!(tax.is_gen(employee, person));
        assert!(!tax.is_gen(person, employee));
        assert!(tax.is_gen(employee, employee)); // reflexive
        assert!(tax.is_gen(employee, special::TOP)); // Δ bound
        assert!(tax.is_gen(special::BOT, employee)); // ∇ bound
    }

    #[test]
    fn top_has_no_generalizations() {
        let (_, c) = closure_of(|s| {
            s.add("A", "R", "B");
        });
        let tax = Taxonomy::new(&c);
        assert!(tax.minimal_generalizations(special::TOP).is_empty());
        assert!(tax.minimal_specializations(special::BOT).is_empty());
    }
}
