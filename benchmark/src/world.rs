//! Worlds and set-up: seed → facts → closure → (journal) → a server on
//! loopback that has answered its first `Hello`. Every stage is timed;
//! their sum is `setup_s`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use loosedb_datagen::{university, zipf_graph, GraphConfig, UniversityConfig};
use loosedb_engine::{Database, DurableDatabase, InferenceConfig, SharedDatabase, SyncPolicy};
use loosedb_serve::{Backend, Client, ServeConfig, Server};
use loosedb_store::io::{RealIo, StorageIo};
use loosedb_store::{EntityId, EntityValue};

use crate::ops::Workload;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorldKind {
    /// Zipf-skewed fact graph, inference off.
    Zipf,
    /// University with reified enrollments, default inference.
    University,
}

/// World sizes. [`Scale::FULL`] is what the benchmark reports at;
/// [`Scale::TINY`] exists for the smoke test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub zipf_entities: usize,
    pub zipf_rels: usize,
    pub zipf_facts: usize,
    pub students: usize,
    pub courses: usize,
    pub instructors: usize,
    pub enrollments: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        zipf_entities: 20_000,
        zipf_rels: 20,
        zipf_facts: 100_000,
        students: 10_000,
        courses: 200,
        instructors: 40,
        enrollments: 4,
    };

    pub const TINY: Scale = Scale {
        zipf_entities: 400,
        zipf_rels: 20,
        zipf_facts: 2_000,
        students: 120,
        courses: 8,
        instructors: 4,
        enrollments: 2,
    };
}

/// The worlds are the benchmark's fixture, the same in every run; the
/// `--seed` argument decides the requests.
const WORLD_SEED: u64 = 42;

/// Generates a world's base facts (no closure yet).
pub fn build_world(kind: WorldKind, scale: &Scale) -> Database {
    let seed = WORLD_SEED;
    match kind {
        WorldKind::Zipf => {
            let (store, _, _) = zipf_graph(&GraphConfig {
                entities: scale.zipf_entities,
                relationships: scale.zipf_rels,
                facts: scale.zipf_facts,
                skew: 1.1,
                seed,
            });
            let mut db = Database::from_store(store);
            *db.config_mut() = InferenceConfig::none();
            db
        }
        WorldKind::University => university(&UniversityConfig {
            students: scale.students,
            courses: scale.courses,
            instructors: scale.instructors,
            enrollments_per_student: scale.enrollments,
            seed,
        }),
    }
}

/// Resident set size of this process, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The entity a symbol names, if the database has met it.
pub(crate) fn symbol(db: &Database, name: &str) -> Option<EntityId> {
    db.lookup(&EntityValue::symbol(name))
}

fn real_io() -> Box<dyn StorageIo> {
    Box::new(RealIo)
}

/// Opens a journal directory under the stated flush policy: fsync after
/// every append.
pub fn open_journal(dir: &Path) -> Result<DurableDatabase<Box<dyn StorageIo>>, String> {
    DurableDatabase::open_with(real_io(), dir, SyncPolicy::Always)
        .map_err(|e| format!("open journal: {e}"))
}

/// Creates a journal holding `db`, closes it, and reopens it the way a
/// restarted server would. Returns the journal and the reopen time.
pub fn journal_round_trip(
    db: Database,
    dir: &Path,
) -> Result<(DurableDatabase<Box<dyn StorageIo>>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    drop(
        DurableDatabase::create_with(real_io(), dir, db, 1, SyncPolicy::Always)
            .map_err(|e| format!("create journal: {e}"))?,
    );
    let started = Instant::now();
    let journal = open_journal(dir)?;
    Ok((journal, started.elapsed().as_secs_f64()))
}

/// Seconds spent in each set-up stage, and what was built.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    pub datagen_s: f64,
    pub closure_s: f64,
    pub journal_create_s: f64,
    pub recover_s: f64,
    pub mirror_build_s: f64,
    pub start_s: f64,
    pub total_s: f64,
    pub base_facts: usize,
    pub closure_facts: usize,
    /// Resident memory the world and its closure added.
    pub closure_rss_mb: f64,
}

/// A workload's server, up and answering.
pub struct Env {
    pub server: Server,
    pub addr: SocketAddr,
    /// The database sessions read from (the serving mirror when durable).
    pub shared: Arc<SharedDatabase>,
    pub stages: Stages,
    pub journal_dir: Option<PathBuf>,
}

/// World generation → closure → (journal create, reopen, mirror) →
/// server answering its first `Hello`.
pub fn set_up(workload: Workload, scale: &Scale, out: &Path) -> Result<Env, String> {
    let mut stages = Stages::default();
    let began = Instant::now();
    let rss_before = rss_mb();

    let mut db = build_world(workload.world(), scale);
    stages.datagen_s = began.elapsed().as_secs_f64();
    stages.base_facts = db.base_len();

    let started = Instant::now();
    stages.closure_facts = db.closure().map_err(|e| format!("closure: {e}"))?.len();
    stages.closure_s = started.elapsed().as_secs_f64();
    stages.closure_rss_mb = rss_mb() - rss_before;

    let (backend, shared, journal_dir) = if workload.durable() {
        let dir = out.join(format!("journal-{}-{}", workload.name(), std::process::id()));
        let started = Instant::now();
        let (journal, recover_s) = journal_round_trip(db, &dir)?;
        stages.journal_create_s = started.elapsed().as_secs_f64() - recover_s;
        stages.recover_s = recover_s;
        let started = Instant::now();
        let backend = Backend::durable(journal).map_err(|e| format!("mirror: {e}"))?;
        stages.mirror_build_s = started.elapsed().as_secs_f64();
        let Backend::Durable { serving, .. } = &backend else { unreachable!("durable backend") };
        let shared = Arc::clone(serving);
        (backend, shared, Some(dir))
    } else {
        let started = Instant::now();
        let shared = Arc::new(SharedDatabase::new(db).map_err(|e| format!("publish: {e}"))?);
        stages.start_s = started.elapsed().as_secs_f64();
        (Backend::shared(Arc::clone(&shared)), shared, None)
    };

    let started = Instant::now();
    let server =
        Server::start(backend, ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    Client::connect(addr, "setup")
        .and_then(Client::bye)
        .map_err(|e| format!("first hello: {e}"))?;
    stages.start_s += started.elapsed().as_secs_f64();
    stages.total_s = began.elapsed().as_secs_f64();
    Ok(Env { server, addr, shared, stages, journal_dir })
}

impl Env {
    /// Stops the server (draining, checkpointing) and hands back the
    /// journal directory, if any, for the caller to inspect and remove.
    pub fn shut_down(mut self) -> Option<PathBuf> {
        self.server.shutdown();
        self.journal_dir.take()
    }
}
