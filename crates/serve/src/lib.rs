//! The network serving layer: many clients, one loosely structured
//! database.
//!
//! Everything below this crate is a library a single process embeds;
//! this crate turns it into a *service*. A [`Server`] fronts one
//! [`Backend`] — an in-memory [`loosedb_engine::SharedDatabase`], the
//! same shared database with a WAL [`loosedb_engine::Journal`] hooked
//! onto its writer (recovered from a
//! [`loosedb_engine::DurableDatabase`]), or a partitioned
//! [`loosedb_engine::ShardedDatabase`] — and exposes the full browsing
//! surface of the paper (navigate §4, query §2.7, probe §5, publish and
//! retract §6.1) over two faces:
//!
//! * a length-prefixed **binary protocol** ([`protocol`]) for sessions:
//!   a `Hello` handshake names the tenant, then each connection holds a
//!   real browse-layer session whose answer and plan caches stay warm
//!   across requests, exactly as embedded;
//! * a minimal **HTTP/JSON fallback** for scrapes and one-shot tools:
//!   `GET /metrics` (Prometheus text), `GET /healthz`, `POST /query`.
//!
//! Operational behavior is deliberately boring: admission control caps
//! handler threads and queues the excess in the listen backlog
//! (backpressure, not drops); per-tenant token buckets park over-rate
//! requests ([`quota`]); idle sessions are evicted; malformed or
//! adversarial frames are refused with typed errors before any
//! allocation trusts an attacker-supplied length; and shutdown drains
//! in-flight requests, then checkpoints whatever the backend journals.
//! Every step is observable through the `serve.*` registry metrics.
//!
//! [`client`] is the matching blocking client library; the
//! `loosedb-serve` binary wires a backend to a listener from the
//! command line.

pub mod client;
mod http;
pub mod protocol;
pub mod quota;
pub mod server;

pub use client::{Client, ClientError, RowsResult, WriteResult};
pub use protocol::{ErrorCode, ProtocolError, Request, Response};
pub use quota::{TenantQuota, TokenBucket};
pub use server::{Backend, ServeConfig, Server};
