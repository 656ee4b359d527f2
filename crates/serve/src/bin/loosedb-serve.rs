//! The `loosedb-serve` binary: serves a world over the binary protocol
//! and HTTP from the command line.
//!
//! ```text
//! loosedb-serve [--addr HOST:PORT] [--world music|probing|university|company|empty]
//!               [--journal DIR] [--shards N] [--max-connections N]
//!               [--idle-ms N] [--max-rows N] [--rate OPS] [--burst N]
//! ```
//!
//! `--journal DIR` opens (or creates) a durable journal and serves it
//! through a shared mirror; `--shards N` partitions the world across N
//! in-process shards. Without either, the world is served from one
//! shared in-memory database. SIGINT/SIGTERM trigger a graceful
//! shutdown: in-flight requests finish, the journal is checkpointed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use loosedb_datagen::{company, music_world, probing_world, university};
use loosedb_engine::{Database, DurableDatabase, ShardedDatabase, SharedDatabase, SyncPolicy};
use loosedb_serve::{Backend, ServeConfig, Server, TenantQuota};
use loosedb_store::io::{RealIo, StorageIo};

static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // The workspace vendors no libc crate; the two libc calls needed are
    // declared directly. Flagging an AtomicBool is all the handler does,
    // which is async-signal-safe.
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!(
        "usage: loosedb-serve [--addr HOST:PORT] [--world NAME] [--journal DIR] \
         [--shards N] [--max-connections N] [--idle-ms N] [--max-rows N] \
         [--rate OPS] [--burst N]"
    );
    std::process::exit(2);
}

fn world(name: &str) -> Database {
    match name {
        "music" => music_world(),
        "probing" => probing_world(),
        "university" => university(&Default::default()),
        "company" => company(&Default::default()),
        "empty" => Database::new(),
        other => {
            eprintln!("unknown world {other:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:5433".to_string();
    let mut world_name = "music".to_string();
    let mut journal_dir: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut config = ServeConfig { addr: addr.clone(), ..ServeConfig::default() };
    let mut quota = TenantQuota::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = val(),
            "--world" => world_name = val(),
            "--journal" => journal_dir = Some(val()),
            "--shards" => shards = val().parse().ok().or_else(|| usage()),
            "--max-connections" => {
                config.max_connections = val().parse().unwrap_or_else(|_| usage())
            }
            "--idle-ms" => {
                config.idle_timeout =
                    Duration::from_millis(val().parse().unwrap_or_else(|_| usage()))
            }
            "--max-rows" => quota.max_rows = val().parse().unwrap_or_else(|_| usage()),
            "--rate" => quota.ops_per_sec = val().parse().unwrap_or_else(|_| usage()),
            "--burst" => quota.burst = val().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    config.addr = addr;
    config.default_quota = quota;

    let backend = match (journal_dir, shards) {
        (Some(dir), None) => {
            let io: Box<dyn StorageIo> = Box::new(RealIo);
            let mut journal = DurableDatabase::open_with(io, &dir, SyncPolicy::EveryN(64))
                .unwrap_or_else(|e| {
                    eprintln!("cannot open journal {dir}: {e}");
                    std::process::exit(1);
                });
            let recovered = journal.database_ref().base_len();
            if recovered == 0 {
                // A fresh journal: seed it with the requested world and
                // make the seed its first snapshot.
                let (text, _skipped) = world(&world_name).export_facts();
                if let Err(e) = journal.database().import_facts(&text) {
                    eprintln!("cannot seed journal: {e}");
                    std::process::exit(1);
                }
                if let Err(e) = journal.checkpoint() {
                    eprintln!("cannot checkpoint seeded journal: {e}");
                    std::process::exit(1);
                }
                eprintln!("seeded journal with the {world_name} world");
            } else {
                eprintln!("recovered {recovered} base fact(s) from {dir}");
            }
            Backend::durable(journal).unwrap_or_else(|e| {
                eprintln!("cannot publish the journaled database: {e}");
                std::process::exit(1);
            })
        }
        (None, Some(n)) => {
            let db = world(&world_name);
            let sharded = ShardedDatabase::from_store(n, db.store()).unwrap_or_else(|e| {
                eprintln!("cannot shard: {e}");
                std::process::exit(1);
            });
            Backend::sharded(Arc::new(sharded))
        }
        (None, None) => {
            let db = world(&world_name);
            let shared = SharedDatabase::new(db).unwrap_or_else(|e| {
                eprintln!("cannot build shared database: {e}");
                std::process::exit(1);
            });
            Backend::shared(Arc::new(shared))
        }
        (Some(_), Some(_)) => {
            eprintln!("--journal and --shards are mutually exclusive");
            std::process::exit(2);
        }
    };

    install_signal_handlers();
    let mut server = Server::start(backend, config).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "loosedb-serve listening on {} (binary protocol + HTTP /metrics /healthz /query)",
        server.local_addr()
    );
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("shutting down: draining sessions, checkpointing…");
    server.shutdown();
    eprintln!("bye");
}
