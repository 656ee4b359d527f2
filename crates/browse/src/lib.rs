//! # loosedb-browse
//!
//! The browsing layer of loosedb — the paper's principal retrieval method
//! for loosely structured databases (§4–§6 of Motro, SIGMOD 1984):
//!
//! * [`navigate`] — browsing by navigation: neighborhood tables, the
//!   `try(e)` operator, and on-demand composition paths (§4.1).
//! * [`probe`] — browsing by probing: automatic retraction of failed
//!   queries through minimally broader queries, wave by wave (§5).
//! * [`operators`] — the §6.1 `relation(...)` structured-view operator
//!   and the definition facility for named query macros.
//! * [`session`] — an interactive [`Session`] interleaving navigation,
//!   standard queries and probing over one owned database.
//! * [`snapshot`] — the same session over a database that publishes
//!   snapshots ([`SnapshotSession`]), written once over a [`Snapshots`]
//!   provider: [`SharedSession`] reads a `SharedDatabase`,
//!   [`ShardedSession`] a `ShardedDatabase`.
//! * [`table`] — the paper-style grouped table renderer.
//!
//! ```
//! use loosedb_engine::Database;
//! use loosedb_browse::Session;
//!
//! let mut db = Database::new();
//! db.add("JOHN", "isa", "EMPLOYEE");
//! db.add("JOHN", "LIKES", "FELIX");
//!
//! let mut session = Session::new(db);
//! let table = session.focus("JOHN").unwrap();
//! assert!(table.to_string().contains("FELIX"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod navigate;
pub mod operators;
pub mod probe;
pub mod session;
pub mod snapshot;
pub mod table;

pub use navigate::{navigate, paths_between, semantic_distance, try_entity, NavigateOptions, Path};
pub use operators::{
    function, relation, DefineError, Definitions, FunctionView, RelationRow, RelationTable,
};
pub use probe::{
    probe, probe_text, probe_with_taxonomy, retraction_set, Attempt, ProbeOptions, ProbeOutcome,
    ProbeReport, RetractionStep, Wave,
};
pub use session::{Session, SessionError};
pub use snapshot::{CacheStats, ShardedSession, SharedSession, SnapshotSession, Snapshots};
pub use table::GroupedTable;
