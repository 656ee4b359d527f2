//! The traced run: per-layer numbers, taken from outside the program.
//!
//! A fixed number of the workload's generated requests goes over one
//! connection. Each gets a `request` span around the served call, then a
//! `replay` span in which the benchmark makes, embedded, the public calls
//! the server's handler makes for that request — protocol decode →
//! `SharedDatabase::snapshot` → `parse_frozen` → `plan_query` →
//! `eval_planned_stats` → row rendering / `navigate` / `probe` → protocol
//! encode — against the very database the server reads, and against twin
//! databases fed the same stream for writes. Time the served call took
//! beyond its replayed layers is `serve.unattributed_us`.
//!
//! The embedded side starts cold while the server is warmed first, so the
//! first occurrence of each repeated text is replayed down the evaluation
//! path; that is where a cache-hit workload's parse/plan/eval samples
//! come from. The last queries are issued twice so a cache-miss workload
//! has hits to time too.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use loosedb_browse::{navigate, probe, NavigateOptions, ProbeOptions, SharedSession};
use loosedb_engine::{ClosureView, Database, DurableDatabase, Generation};
use loosedb_obs::Counter;
use loosedb_query::{eval_planned_stats, parse_frozen, plan_query, EvalOptions, PlanCache};
use loosedb_serve::protocol::{decode_request_frame, decode_response_frame};
use loosedb_serve::{Backend, Client, ClientError, Request, Response};
use loosedb_store::io::{RealIo, StorageIo};
use loosedb_store::{EntityValue, Fact, Pattern};

use crate::drive::{check_cores, issue, Conn, Measured, Outcome, Reply, RunConfig};
use crate::json::Json;
use crate::ops::{Gen, Kind, Op};
use crate::spans::{self_nanos, Recorder};
use crate::spec;
use crate::stats::percentile;
use crate::world::{build_world, journal_round_trip, open_journal, set_up, symbol, Env};

/// Requests replayed per kind. Fixed, so the exact counts repeat.
const REPLAYED: [(Kind, usize); 6] = [
    // Zipf-drawn navigations cost anything from microseconds to
    // milliseconds; fewer and their median is the luck of the draw.
    (Kind::Nav, 2400),
    (Kind::Query, 300),
    // Enough for the probe p90 and the publish p99 that no bound holds
    // end to end.
    (Kind::Probe, 120),
    (Kind::Publish, 1200),
    (Kind::ClassPublish, 24),
    (Kind::Retract, 100),
];
/// Trailing queries issued a second time, to be answered from the cache.
const REPEATED: usize = 30;
/// Seconds the paced reader runs beside the workload's first connection:
/// 1200 navigations, enough for a p99.
const PACED_SECONDS: f64 = 6.0;

fn request_of(op: &Op) -> Request {
    match op.clone() {
        Op::Nav((s, r, t)) => Request::Navigate { s, r, t },
        Op::Query(text) => Request::Query { text },
        Op::Probe(text) => Request::Probe { text },
        Op::Publish(fact) | Op::ClassPublish(fact) => {
            Request::Publish { checked: false, facts: vec![fact] }
        }
        Op::Retract((s, r, t)) | Op::ClassRetract((s, r, t)) => Request::Retract { s, r, t },
    }
}

/// The same read with its variables renamed: same shape and cost, new
/// text, so a cache keyed on text misses exactly as the original did.
fn renamed(op: &Op, tag: &str) -> Op {
    match op {
        Op::Query(text) => Op::Query(text.replace("?q", tag)),
        other => other.clone(),
    }
}

/// Counts the replay adds up while it goes.
#[derive(Default)]
struct Counts {
    nav_rows: u64,
    navs: u64,
    query_rows: u64,
    queries_evaluated: u64,
    probes: u64,
    waves: u64,
    attempts: u64,
    successes: u64,
    class_inserts: u64,
    class_derived: u64,
    wal_ops: u64,
    resp_bytes: u64,
    responses: u64,
    failed: u64,
}

/// The embedded side of the replay.
struct Embedded<'a> {
    env: &'a Env,
    session: SharedSession,
    plans: PlanCache,
    view_probes: Counter,
    /// Texts the embedded session has answered at this epoch.
    answered: HashSet<String>,
    /// Twin of the world with a warm closure: in-memory writes.
    twin: Database,
    /// Twin journal on the real filesystem: durable writes.
    journal: DurableDatabase<Box<dyn StorageIo>>,
    scratch: std::path::PathBuf,
    counts: Counts,
}

impl Embedded<'_> {
    fn view<'g>(&self, generation: &'g Generation) -> ClosureView<'g> {
        ClosureView::new(generation.closure(), generation.interner(), generation.kinds())
            .with_probe_counter(self.view_probes.clone())
    }

    /// Replays one request through the layers and returns the response
    /// the server should have sent.
    fn replay(&mut self, op: &Op, rec: &mut Recorder) -> Result<Response, String> {
        let request = request_of(op);
        let frame = rec.leaf("serve.encode_req", || request.encode());
        rec.leaf("serve.decode_req", || decode_request_frame(&frame)).map_err(|e| e.to_string())?;
        let env = self.env;
        let shared = &env.shared;
        let response = match op {
            Op::Nav((s, r, t)) => {
                let generation = rec.leaf("engine.snapshot", || shared.snapshot());
                let id = rec.enter("browse.navigate");
                let part = |name: &str| match name {
                    "*" => Ok(None),
                    name => generation
                        .lookup(&EntityValue::symbol(name))
                        .map(Some)
                        .ok_or(name.to_string()),
                };
                let pattern = Pattern::new(part(s)?, part(r)?, part(t)?);
                let table = navigate(&generation.view(), pattern, &NavigateOptions::default())
                    .map_err(|e| e.to_string())?;
                let text = table.to_string();
                rec.exit(id);
                self.counts.navs += 1;
                self.counts.nav_rows += table.height() as u64;
                Response::Text { text }
            }
            Op::Query(text) if self.answered.contains(text) => {
                let answer = rec
                    .leaf("browse.query_hit", || self.session.query(text))
                    .map_err(|e| e.to_string())?;
                let rows = rec.leaf("browse.render", || self.session.render_answer(&answer));
                Response::Rows { epoch: shared.epoch(), names: answer.names.clone(), rows }
            }
            Op::Query(text) => {
                let generation = rec.leaf("engine.snapshot", || shared.snapshot());
                let query = rec
                    .leaf("query.parse", || parse_frozen(text, generation.interner()))
                    .map_err(|e| format!("{text}: {e:?}"))?;
                let view = self.view(&generation);
                let opts = EvalOptions::default();
                let id = rec.enter("query.plan");
                let plan = match self.plans.get(&query, &opts) {
                    Some(plan) => plan,
                    None => {
                        let plan = std::sync::Arc::new(plan_query(&query, &view, &opts));
                        self.plans.insert(&query, &opts, std::sync::Arc::clone(&plan));
                        plan
                    }
                };
                rec.exit(id);
                let (answer, _) = rec
                    .leaf("query.eval", || eval_planned_stats(&query, &view, opts, &plan))
                    .map_err(|e| e.to_string())?;
                let rows: Vec<Vec<String>> = rec.leaf("browse.render", || {
                    let interner = generation.interner();
                    answer
                        .rows
                        .iter()
                        .map(|row| row.iter().map(|&e| interner.display(e)).collect())
                        .collect()
                });
                self.counts.queries_evaluated += 1;
                self.counts.query_rows += rows.len() as u64;
                Response::Rows { epoch: generation.epoch(), names: answer.names, rows }
            }
            Op::Probe(text) => {
                let generation = rec.leaf("engine.snapshot", || shared.snapshot());
                let query = rec
                    .leaf("query.parse", || parse_frozen(text, generation.interner()))
                    .map_err(|e| format!("{text}: {e:?}"))?;
                let id = rec.enter("browse.probe");
                let report = probe(&query, &generation.view(), &ProbeOptions::default());
                let text = report.render_menu(generation.interner());
                rec.exit(id);
                self.counts.probes += 1;
                self.counts.waves += report.waves.len() as u64;
                for wave in &report.waves {
                    self.counts.attempts += wave.attempts.len() as u64;
                    self.counts.successes += wave.successes().count() as u64;
                }
                Response::Text { text }
            }
            Op::Publish((s, r, t)) | Op::ClassPublish((s, r, t)) => {
                let class = op.kind() == Kind::ClassPublish;
                let before = self.twin.closure().map_err(|e| e.to_string())?.len();
                rec.leaf(if class { "engine.class_insert" } else { "engine.insert" }, || {
                    self.twin.add_incremental(s.as_str(), r.as_str(), t.as_str())
                })
                .map_err(|e| e.to_string())?;
                if class {
                    let after = self.twin.closure().map_err(|e| e.to_string())?.len();
                    self.counts.class_inserts += 1;
                    self.counts.class_derived += (after - before).saturating_sub(1) as u64;
                }
                rec.leaf("engine.durable_add", || {
                    self.journal.add(s.as_str(), r.as_str(), t.as_str())
                })
                .map_err(|e| e.to_string())?;
                self.counts.wal_ops += 1;
                Response::Done { epoch: shared.epoch(), applied: 1 }
            }
            Op::Retract((s, r, t)) | Op::ClassRetract((s, r, t)) => {
                let ids = (symbol(&self.twin, s), symbol(&self.twin, r), symbol(&self.twin, t));
                let (Some(s), Some(r), Some(t)) = ids else {
                    return Err(format!("{op:?}: not in the twin"));
                };
                let removed = rec
                    .leaf("engine.remove", || self.twin.remove_incremental(&Fact::new(s, r, t)))
                    .map_err(|e| e.to_string())?;
                Response::Done { epoch: shared.epoch(), applied: u64::from(removed) }
            }
        };
        let frame = rec.leaf("serve.encode_resp", || response.encode());
        rec.leaf("serve.decode_resp", || decode_response_frame(&frame))
            .map_err(|e| e.to_string())?;
        self.counts.resp_bytes += frame.len() as u64;
        self.counts.responses += 1;
        Ok(response)
    }

    /// Layer costs that are not on the request's own path: a base-store
    /// match for a navigation template, a bare append+fsync of a frame
    /// the size the journal just wrote, and the embedded session kept in
    /// step with the server's.
    fn beside(&mut self, op: &Op, rec: &mut Recorder, wal_bytes: u64) -> Result<(), String> {
        match op {
            Op::Nav((s, r, t)) => {
                let generation = self.env.shared.snapshot();
                let part = |name: &str| generation.lookup(&EntityValue::symbol(name));
                let pattern = Pattern::new(part(s), part(r), part(t));
                rec.leaf("store.match", || generation.store().matching(pattern).count());
            }
            Op::Query(text) if self.answered.insert(text.clone()) => {
                self.session.query(text).map_err(|e| e.to_string())?;
            }
            Op::Publish(_) | Op::ClassPublish(_) => {
                let frame = vec![0xA5u8; wal_bytes as usize];
                rec.leaf("store.io_append_fsync", || {
                    RealIo.append(&self.scratch, &frame).and_then(|()| RealIo.fsync(&self.scratch))
                })
                .map_err(|e| e.to_string())?;
            }
            _ => {}
        }
        Ok(())
    }
}

/// True when the served reply says what the embedded replay says.
fn agrees(reply: &Reply, response: &Response) -> bool {
    match (reply, response) {
        (Reply::Text(served), Response::Text { text }) => served == text,
        (Reply::Rows(served), Response::Rows { names, rows, .. }) => {
            let (mut a, mut b) = (served.rows.clone(), rows.clone());
            a.sort();
            b.sort();
            served.names == *names && a == b
        }
        (Reply::Done(served), Response::Done { applied, .. }) => {
            served.applied == *applied && *applied == 1
        }
        _ => false,
    }
}

fn p50(samples: &[f64], what: &str) -> Result<f64, String> {
    percentile(samples, 0.5).map_err(|e| format!("{what}: {e}"))
}

fn mean(sum: u64, n: u64) -> f64 {
    sum as f64 / n.max(1) as f64
}

/// Served p50 of a kind over plain, unrecorded calls.
fn untraced_p50(client: &mut Client, ops: &[Op], kind: Kind) -> Result<f64, String> {
    let mut micros = Vec::new();
    for op in ops.iter().filter(|op| op.kind() == kind) {
        let started = Instant::now();
        issue(client, op).map_err(|e| format!("{op:?}: {e}"))?;
        micros.push(started.elapsed().as_secs_f64() * 1e6);
    }
    p50(&micros, "untraced pass")
}

/// One traced served call: `(request id, request span, reply)`.
type Served = (u32, usize, Result<Reply, ClientError>);
/// One traced request: `(kind, request span, replay span)`.
type Traced = (Kind, usize, usize);

fn serve(client: &mut Client, op: &Op, rec: &mut Recorder) -> Served {
    let id = rec.next_request();
    let request = rec.enter("request");
    let reply = issue(client, op);
    rec.exit(request);
    (id, request, reply)
}

/// Replays a served request embedded, under the same request id, and
/// compares the two answers.
fn replay(
    op: &Op,
    (id, request, reply): Served,
    embedded: &mut Embedded<'_>,
    rec: &mut Recorder,
) -> Result<Traced, String> {
    rec.resume_request(id);
    let wal = embedded.journal.metrics().snapshot().wal;
    let replay = rec.enter("replay");
    let response = embedded.replay(op, rec);
    rec.exit(replay);
    let wal_bytes = embedded.journal.metrics().snapshot().wal.append_bytes - wal.append_bytes;
    embedded.beside(op, rec, wal_bytes)?;
    match (&reply, &response) {
        (Ok(reply), Ok(response)) if agrees(reply, response) => {}
        (reply, response) => {
            embedded.counts.failed += 1;
            eprintln!(
                "loosebench: failed: {op:?}: served {} / embedded {}",
                reply.as_ref().map_or_else(|e| e.to_string(), |_| "answered".into()),
                response.as_ref().map_or_else(|e| e.clone(), |_| "answered otherwise".into()),
            );
        }
    }
    Ok((op.kind(), request, replay))
}

/// Warms the server with the reads, times them again plain, then sends
/// every request traced and replays it embedded. Returns the untraced
/// p50s (navigation, query) and the traced requests.
fn passes(
    env: &Env,
    ops: &[Op],
    embedded: &mut Embedded<'_>,
    rec: &mut Recorder,
) -> Result<([f64; 2], Vec<Traced>), String> {
    // The requests come reads first (see `REPLAYED`).
    let (reads, writes) = ops.split_at(ops.iter().take_while(|op| !op.kind().is_write()).count());
    let mut client = Client::connect(env.addr, "loosebench-trace").map_err(|e| e.to_string())?;
    for op in reads {
        issue(&mut client, &renamed(op, "?w")).map_err(|e| format!("{op:?}: {e}"))?;
    }
    let plain: Vec<Op> = reads.iter().map(|op| renamed(op, "?u")).collect();
    let untraced = [
        untraced_p50(&mut client, &plain, Kind::Nav)?,
        untraced_p50(&mut client, &plain, Kind::Query)?,
    ];

    // Reads: every served call first, back to back like the plain pass,
    // and only then the replays — the benchmark's own work between two
    // requests would cool the server's caches for the next one, and the
    // spans would be measuring the tracing. Writes: served, then replayed
    // into the twins, one by one, so both sides see the same stream.
    let served: Vec<Served> = reads.iter().map(|op| serve(&mut client, op, rec)).collect();
    let mut traced = Vec::new();
    for (op, served) in reads.iter().zip(served) {
        traced.push(replay(op, served, embedded, rec)?);
    }
    for op in writes {
        let served = serve(&mut client, op, rec);
        traced.push(replay(op, served, embedded, rec)?);
    }
    Ok((untraced, traced))
}

/// Runs one workload traced and reports every per-layer metric. Spans go
/// to `trace-<workload>.json` under `cfg.out`, below `header`.
pub fn trace_workload(cfg: &RunConfig, header: &Json) -> Result<Outcome, String> {
    check_cores()?;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let workload = cfg.workload;
    let env = set_up(workload, &cfg.scale, &cfg.out)?;
    let stages = env.stages;

    // Twins: the same world again, once in memory with a warm closure,
    // once journaled. A workload that is not durable measures recovery
    // and the serving mirror here.
    let mut twin = build_world(workload.world(), &cfg.scale);
    twin.closure().map_err(|e| e.to_string())?;
    let twin_dir = cfg.out.join(format!("twin-{}-{}", workload.name(), std::process::id()));
    let world = build_world(workload.world(), &cfg.scale);
    let (mut journal, mut recover_s) = journal_round_trip(world, &twin_dir)?;
    let mut mirror_build_s = stages.mirror_build_s;
    if workload.durable() {
        recover_s = stages.recover_s;
    } else {
        let started = Instant::now();
        drop(Backend::durable(journal).map_err(|e| e.to_string())?);
        mirror_build_s = started.elapsed().as_secs_f64();
        journal = open_journal(&twin_dir)?;
    }

    // The requests: the workload's own generator, kind by kind.
    let mut gen = Gen::new(workload, cfg.scale, cfg.seed, 0);
    let mut ops: Vec<Op> = Vec::new();
    for (kind, count) in REPLAYED {
        ops.extend((0..count).map(|_| gen.op_of(kind)));
        if kind == Kind::Query {
            let again: Vec<Op> = ops[ops.len() - REPEATED..].to_vec();
            ops.extend(again);
        }
    }
    // A second connection navigates throughout (unrecorded), so the
    // cores are as busy as in the untraced run's window: alone, this
    // connection would let them idle between requests, and the wake-ups
    // would be what gets measured.
    let mut embedded = Embedded {
        env: &env,
        session: SharedSession::new(std::sync::Arc::clone(&env.shared)),
        plans: PlanCache::new(64),
        view_probes: Counter::new(),
        answered: HashSet::new(),
        twin,
        journal,
        scratch: twin_dir.join("append-fsync.scratch"),
        counts: Counts::default(),
    };
    let mut rec = Recorder::default();
    let mut background = Conn::new(cfg, &env.shared, 1);
    let stop = AtomicBool::new(false);
    let (untraced, traced) = std::thread::scope(|scope| {
        scope.spawn(|| background.navigate_until(env.addr, &stop));
        let done = passes(&env, &ops, &mut embedded, &mut rec);
        stop.store(true, Ordering::Release);
        done
    })?;
    let wal = embedded.journal.metrics().snapshot().wal;

    // `write_durable`'s reader, on every workload: navigations paced at
    // 200/s beside the first connection carrying on with the workload's
    // mix (the generator knows what the replay already published).
    let mut loaded = Conn::with_gen(cfg, &env.shared, 0, gen);
    let mut reader = Conn::new(cfg, &env.shared, 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| reader.paced(env.addr, Duration::ZERO, &stop));
        loaded.closed_loop(
            env.addr,
            workload,
            Duration::ZERO,
            Duration::from_secs_f64(PACED_SECONDS),
        );
        stop.store(true, Ordering::Release);
    });
    let late_p99 =
        percentile(&reader.tally.late_us, 0.99).map_err(|e| format!("paced reader: {e}"))?;
    let reader_nav_p99 = percentile(&reader.tally.micros(Kind::Nav), 0.99)
        .map_err(|e| format!("paced reader: {e}"))?;

    // Per-layer numbers.
    let own = self_nanos(rec.spans());
    let spans = rec.spans();
    let served = |kind: Kind| -> Vec<f64> {
        traced.iter().filter(|t| t.0 == kind).map(|t| spans[t.1].nanos() as f64 / 1e3).collect()
    };
    // A request's attributed time: what its replay's child spans cover.
    let attributed = |kind: Kind| -> Vec<f64> {
        traced
            .iter()
            .filter(|t| t.0 == kind)
            .map(|t| (spans[t.2].nanos() - own[t.2]) as f64 / 1e3)
            .collect()
    };
    let mut overhead = Vec::new();
    let mut unattributed = Vec::new();
    for (kind, untraced) in [Kind::Nav, Kind::Query].into_iter().zip(untraced) {
        let served_p50 = p50(&served(kind), "served")?;
        let beyond = served_p50 - p50(&attributed(kind), "attributed")?;
        unattributed.push((beyond, beyond / served_p50));
        overhead.push((served_p50 - untraced) / untraced);
        eprintln!(
            "loosebench: {} served p50: {served_p50:.1} us traced, {untraced:.1} us untraced",
            kind.name()
        );
    }
    let counts = &embedded.counts;
    let plan_stats = embedded.plans.stats();
    let cache = embedded.session.cache_stats();
    let layer = |name: &str| p50(&rec.micros(name), name);
    let mut metrics = Vec::new();
    for m in spec::PER_LAYER {
        let value = match m.name {
            "datagen.build_s" => stages.datagen_s,
            "engine.closure_build_s" => stages.closure_s,
            "engine.closure_ratio" => stages.closure_facts as f64 / stages.base_facts.max(1) as f64,
            "engine.bytes_per_closure_fact" => {
                stages.closure_rss_mb * 1024.0 * 1024.0 / stages.closure_facts.max(1) as f64
            }
            "engine.recover_s" => recover_s,
            "serve.mirror_build_s" => mirror_build_s,
            "serve.start_s" => stages.start_s,
            "store.wal_bytes_per_op" => mean(wal.append_bytes, counts.wal_ops),
            "store.fsyncs_per_op" => mean(wal.fsyncs, counts.wal_ops),
            "engine.derived_per_class_insert" => mean(counts.class_derived, counts.class_inserts),
            "query.plan_cache_hit_ratio" => {
                mean(plan_stats.hits, plan_stats.hits + plan_stats.misses)
            }
            "query.rows_out" => mean(counts.query_rows, counts.queries_evaluated),
            "query.probes_per_row" => mean(embedded.view_probes.get(), counts.query_rows),
            "browse.nav_rows" => mean(counts.nav_rows, counts.navs),
            "browse.answer_cache_hit_ratio" => mean(cache.hits, cache.hits + cache.misses),
            "browse.probe_waves" => mean(counts.waves, counts.probes),
            "browse.probe_attempts" => mean(counts.attempts, counts.probes),
            "browse.probe_success_ratio" => mean(counts.successes, counts.attempts),
            "serve.resp_bytes" => mean(counts.resp_bytes, counts.responses),
            "serve.unattributed_us.nav" => unattributed[0].0,
            "serve.unattributed_share.nav" => unattributed[0].1,
            "serve.unattributed_us.query" => unattributed[1].0,
            "serve.unattributed_share.query" => unattributed[1].1,
            "bench.trace_overhead_share" => (overhead[0] + overhead[1]) / 2.0,
            "bench.reader_late_p99_us" => late_p99,
            "nav_p99_us" => reader_nav_p99,
            "probe_p90_us" => percentile(&served(Kind::Probe), 0.9)?,
            "publish_p99_us" => percentile(&served(Kind::Publish), 0.99)?,
            "class_publish_p50_us" => p50(&served(Kind::ClassPublish), "class publish")?,
            // Everything else is the p50 of the spans of that name.
            name => layer(name.strip_suffix("_us").expect("a span metric"))?,
        };
        metrics.push(Measured { name: m.name, unit: m.unit, value, samples: None });
    }

    let file = cfg.out.join(format!("trace-{}.json", workload.name()));
    let body = Json::obj([("header", header.clone()), ("spans", rec.to_json())]);
    std::fs::write(&file, body.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;

    let outcome = Outcome {
        attempted: ops.len() as u64
            + reader.tally.attempted
            + loaded.tally.attempted
            + background.tally.attempted,
        failed: counts.failed + reader.tally.failed + loaded.tally.failed + background.tally.failed,
        metrics,
    };
    drop(embedded);
    let _ = std::fs::remove_dir_all(&twin_dir);
    if let Some(dir) = env.shut_down() {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(outcome)
}
