//! # loosedb-engine
//!
//! The data-model and inference layer of loosedb, implementing the core of
//! *Browsing in a Loosely Structured Database* (Motro, SIGMOD 1984):
//!
//! * [`term`] — templates (facts with variables, §2.4) and bindings.
//! * [`kind`] — the individual/class partition of relationships (§2.2).
//! * [`rule`] — conjunctive rules `⟨L, R⟩`, the single mechanism for both
//!   inference and integrity (§2.4–2.6), with the `include`/`exclude`
//!   operators of §6.1.
//! * [`config`] — toggles for the standard rule groups of §3 and the
//!   composition `limit(n)` operator.
//! * [`mathrel`] — the virtual mathematical relationships of §3.6.
//! * [`closure`] — semi-naive (and, for ablation, naive) forward-chaining
//!   closure with the built-in §3 rules, user rules, provenance, and
//!   contradiction detection (§3.5).
//! * [`taxonomy`] — minimal generalizations/specializations over the `≺`
//!   hierarchy, the machinery behind probing (§5.1).
//! * [`view`] — the retrieval view merging materialized and virtual facts.
//! * [`database`] — the [`Database`] type: facts + rules + cached closure,
//!   with transactional integrity-checked updates.
//! * [`durable`] — crash-safe journaling: a checksummed write-ahead log,
//!   atomic snapshot generations and fault-injectable recovery.
//!
//! ```
//! use loosedb_engine::Database;
//!
//! let mut db = Database::new();
//! db.add("JOHN", "isa", "EMPLOYEE");
//! db.add("EMPLOYEE", "EARNS", "SALARY");
//!
//! // Inference by membership (§3.2): John earns a salary.
//! let john = db.lookup_symbol("JOHN").unwrap();
//! let earns = db.lookup_symbol("EARNS").unwrap();
//! let salary = db.lookup_symbol("SALARY").unwrap();
//! let closure = db.closure().unwrap();
//! assert!(closure.contains(&loosedb_store::Fact::new(john, earns, salary)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod closure;
pub mod config;
pub mod database;
pub mod durable;
pub mod kind;
pub mod mathrel;
pub mod persist;
pub mod pool;
pub mod prove;
pub mod replica;
pub mod rule;
pub mod sharded;
pub mod shared;
pub mod taxonomy;
pub mod term;
pub mod view;

pub use closure::{
    Builtin, Closure, ClosureError, ClosureStats, DomainCounts, ExtendDelta, Provenance, Strategy,
    Violation,
};
pub use config::{InferenceConfig, RuleGroup};
pub use database::{Database, PublishDelta, TransactionError};
pub use durable::{DurableDatabase, DurableError, Journal, RecoveryInfo, SyncPolicy};
pub use kind::{KindRegistry, RelKind};
pub use mathrel::{MathMatchError, MathTruth};
pub use prove::Prover;
pub use replica::{PollReport, Replica, ReplicaError, ReplicaInfo, ReplicaOptions};
pub use rule::{Rule, RuleBuilder, RuleError, RuleKind, RuleSet};
pub use sharded::{shard_of, ShardStats, ShardedDatabase, ShardedError, ShardedSnapshot};
pub use shared::{DeltaSummary, Generation, SharedDatabase};
pub use taxonomy::Taxonomy;
pub use term::{Bindings, Template, Term, Var};
pub use view::{ClosureView, FactView};
