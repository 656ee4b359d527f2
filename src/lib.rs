//! # loosedb
//!
//! A complete implementation of *Browsing in a Loosely Structured
//! Database* (Amihai Motro, SIGMOD 1984): a database that is a schema-free
//! "heap of facts" with a single rule mechanism for inference and
//! integrity, a predicate-logic query language, and browsing — by
//! **navigation** and by **probing** with automatic retraction — as the
//! principal retrieval method.
//!
//! This crate is the facade over the workspace:
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | storage | [`store`] | entities, facts, triple indexes, persistence |
//! | inference | [`engine`] | rules, §3 closure, integrity, [`Database`] |
//! | queries | [`query`] | §2.7 formulas: parser and evaluator |
//! | browsing | [`browse`] | §4 navigation, §5 probing, §6 operators |
//! | workloads | [`datagen`] | seeded worlds and synthetic generators |
//! | observability | [`obs`] | metrics registry, tracing spans, Prometheus export |
//! | serving | [`serve`] | multi-session network server, binary protocol, client |
//!
//! ## Quickstart
//!
//! ```
//! use loosedb::{Database, Session};
//!
//! // A database is built fact by fact — no schema (§2).
//! let mut db = Database::new();
//! db.add("JOHN", "isa", "EMPLOYEE");
//! db.add("EMPLOYEE", "EARNS", "SALARY");
//! db.add("JOHN", "FAVORITE-MUSIC", "PC#9-WAM");
//!
//! let mut session = Session::new(db);
//!
//! // Standard queries (§2.7) run against the inference closure (§3):
//! // John earns a salary by membership inference.
//! let answer = session.query("(?who, EARNS, SALARY)").unwrap();
//! assert_eq!(answer.len(), 2); // EMPLOYEE and JOHN
//!
//! // Navigation (§4): examine John's neighborhood.
//! let table = session.focus("JOHN").unwrap();
//! assert!(table.to_string().contains("PC#9-WAM"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use loosedb_browse as browse;
pub use loosedb_datagen as datagen;
pub use loosedb_engine as engine;
pub use loosedb_obs as obs;
pub use loosedb_query as query;
pub use loosedb_serve as serve;
pub use loosedb_store as store;

pub use loosedb_obs::{Metrics, MetricsSnapshot};

pub use loosedb_browse::{
    function, navigate, paths_between, probe, probe_text, relation, semantic_distance, try_entity,
    CacheStats, Definitions, FunctionView, GroupedTable, NavigateOptions, ProbeOptions,
    ProbeOutcome, ProbeReport, RelationTable, RetractionStep, Session, SessionError,
    ShardedSession, SharedSession,
};
pub use loosedb_engine::{
    Builtin, Closure, ClosureError, ClosureView, Database, DeltaSummary, DomainCounts,
    DurableDatabase, DurableError, ExtendDelta, FactView, Generation, InferenceConfig, Journal,
    KindRegistry, MathTruth, PollReport, Provenance, Prover, PublishDelta, RecoveryInfo, RelKind,
    Replica, ReplicaError, ReplicaInfo, ReplicaOptions, Rule, RuleGroup, RuleKind, ShardStats,
    ShardedDatabase, ShardedError, ShardedSnapshot, SharedDatabase, Strategy, SyncPolicy, Taxonomy,
    Template, Term, TransactionError, Var, Violation,
};
pub use loosedb_query::{
    eval, eval_with, explain_plan, parse, parse_frozen, Answer, AtomOrdering, EvalOptions, Formula,
    FrozenParseError, Query,
};
pub use loosedb_store::{
    special, EntityId, EntityValue, Fact, FactLog, FactStore, Interner, PMap, PSet, Pattern,
};
