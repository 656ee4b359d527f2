//! An interactive browser for loosely structured databases: navigation,
//! probing, standard queries and the §6 operators from one prompt.
//!
//! Run with `cargo run --example browse_repl`, then type `help`.
//! Commands can also be piped in:
//!
//! ```text
//! printf 'world music\nfocus JOHN\nprobe (JOHN, ADORES, ?x)\n' \
//!   | cargo run --example browse_repl
//! ```

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use loosedb::browse::{SnapshotSession, Snapshots};
use loosedb::datagen::{company, music_world, probing_world, university};
use loosedb::{
    Database, Replica, RuleGroup, Session, ShardedDatabase, ShardedSession, SharedSession,
    SyncPolicy,
};

const HELP: &str = "\
commands:
  world <music|probing|university|company|empty>   load a world
  focus <entity>               show the (E,*,*) neighborhood, push focus
  back                         return to the previous focus
  try <entity>                 the try(e) operator: all facts mentioning e
  nav <s> <r> <t>              navigate any template ('*' = free position)
  query <formula>              evaluate a standard query (§2.7 syntax)
  probe <formula>              evaluate with automatic retraction (§5)
  add <s> <r> <t>              insert a fact (unchecked)
  tryadd <s> <r> <t>           insert with integrity check (§2.5)
  del <s> <r> <t>              remove a fact
  explain <s> <r> <t>          derivation of a closure fact
  include <group> | exclude <group>   toggle a §3 rule group
  limit <n>                    composition chain limit (§6.1)
  dist <a> <b>                 semantic distance (§6.1), up to 6 hops
  plan <formula>               show the evaluation plan without running
  fn <rel> [class]             functional view of a relationship (§6.1)
  import <path> | export <path>   plain-text fact files
  save <path> | load <path>    full-database image (facts+rules+config)
  stats                        database statistics
  metrics                      observability counters (Prometheus text format)
  spans <on|off|show>          capture / dump tracing spans (needs --features obs)
  history                      focus history
  replica <leader-dir> [local-dir]   attach as a WAL-shipped read replica
  sync                         (replica mode) poll the leader once
  catchup                      (replica mode) drain the backlog
  promote <dir>                (replica mode) fail over to a writable journal
  detach                       leave replica mode, keeping the replicated data
  shards <n>                   repartition the current facts across n shards
  shards                       (sharded mode) per-shard status table
  shards off                   leave sharded mode, merging the shards back
  connect <addr> [tenant]      attach to a loosedb-serve server (binary protocol)
  disconnect                   leave connected mode, back to the local session
  help                         this text
  quit                         exit
(replica mode is read-only: browse commands serve from the follower's
 snapshots; editing commands need 'detach' or 'promote' first)
(sharded mode supports browsing, queries, probes and add/tryadd/del;
 rule-group and persistence commands need 'shards off' first)
(connected mode runs nav/query/probe/add/tryadd/del/metrics against the
 server; the local session waits untouched behind 'disconnect')
(commands also accept a leading ':', e.g. ':metrics')";

/// Replica-mode state: the tailing [`Replica`] plus a [`SharedSession`]
/// serving reads off its generation snapshots.
struct ReplicaMode {
    replica: Replica,
    session: SharedSession,
}

/// Sharded-mode state: the hash-partitioned [`ShardedDatabase`] plus a
/// [`ShardedSession`] running scatter-gather reads over its per-shard
/// snapshots.
struct ShardedMode {
    db: Arc<ShardedDatabase>,
    session: ShardedSession,
}

/// Connected-mode state: a live session on a `loosedb-serve` server; the
/// server holds the session caches, the REPL is a thin terminal.
struct ConnectedMode {
    client: loosedb::serve::Client,
    addr: String,
}

struct Repl {
    session: Session,
    replica: Option<ReplicaMode>,
    sharded: Option<ShardedMode>,
    connected: Option<ConnectedMode>,
}

fn main() {
    let stdin = io::stdin();
    let mut repl = Repl {
        session: Session::new(music_world()),
        replica: None,
        sharded: None,
        connected: None,
    };
    println!("loosedb browser — music world loaded; type 'help' for commands");
    prompt(&repl);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            prompt(&repl);
            continue;
        }
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        if let Err(e) = dispatch(&mut repl, trimmed) {
            println!("error: {e}");
        }
        prompt(&repl);
    }
    println!("bye");
}

fn prompt(repl: &Repl) {
    if repl.replica.is_some() {
        print!("(replica)> ");
    } else if let Some(mode) = &repl.sharded {
        print!("(sharded:{})> ", mode.db.shard_count());
    } else if let Some(mode) = &repl.connected {
        print!("({})> ", mode.addr);
    } else {
        print!("> ");
    }
    io::stdout().flush().ok();
}

/// Rebuilds a local editable [`Session`] from a replica's current
/// database (an encode/decode round-trip through the persist image).
fn local_session_from(shared: &loosedb::SharedDatabase) -> Result<Session, String> {
    let image = shared.read_writer(|db| loosedb::engine::persist::encode(db).to_vec());
    let db = loosedb::engine::persist::decode(&image[..]).map_err(|e| e.to_string())?;
    Ok(Session::new(db))
}

fn dispatch(repl: &mut Repl, line: &str) -> Result<(), String> {
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    let cmd = cmd.strip_prefix(':').unwrap_or(cmd);
    let rest = rest.trim();

    // Replica-mode commands, and read routing to the follower session.
    match cmd {
        "replica" => {
            if repl.replica.is_some() {
                return Err("already in replica mode; 'detach' first".into());
            }
            if repl.sharded.is_some() {
                return Err("can't attach a replica in sharded mode; 'shards off' first".into());
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let (leader, local) = match parts.as_slice() {
                [leader] => ((*leader).to_string(), format!("{leader}-replica")),
                [leader, local] => ((*leader).to_string(), (*local).to_string()),
                _ => return Err("usage: replica <leader-dir> [local-dir]".into()),
            };
            let mut replica = Replica::open(&leader, &local).map_err(|e| e.to_string())?;
            let applied = replica.catch_up().map_err(|e| e.to_string())?;
            let info = replica.info();
            let cursor = replica.cursor();
            println!(
                "attached to {leader} ({}); caught up {applied} op(s), \
                 epoch {}, segment {}",
                if info.resumed { "resumed local state" } else { "bootstrapped from snapshot" },
                cursor.epoch,
                cursor.segment,
            );
            let session = SharedSession::new(replica.shared().clone());
            repl.replica = Some(ReplicaMode { replica, session });
            return Ok(());
        }
        "shards" => return shards_command(repl, rest),
        "connect" => {
            if repl.replica.is_some() || repl.sharded.is_some() {
                return Err("leave replica/sharded mode before connecting".into());
            }
            if let Some(mode) = &repl.connected {
                return Err(format!("already connected to {}; 'disconnect' first", mode.addr));
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let (addr, tenant) = match parts.as_slice() {
                [addr] => ((*addr).to_string(), String::new()),
                [addr, tenant] => ((*addr).to_string(), (*tenant).to_string()),
                _ => return Err("usage: connect <host:port> [tenant]".into()),
            };
            let client = loosedb::serve::Client::connect(addr.as_str(), &tenant)
                .map_err(|e| e.to_string())?;
            println!(
                "connected to {addr} as {} (session {}, epoch {})",
                if tenant.is_empty() { "the default tenant" } else { tenant.as_str() },
                client.session(),
                client.epoch(),
            );
            repl.connected = Some(ConnectedMode { client, addr });
            return Ok(());
        }
        "disconnect" => {
            let Some(mode) = repl.connected.take() else {
                return Err("not connected; see 'connect'".into());
            };
            let _ = mode.client.bye();
            println!("disconnected; local session restored");
            return Ok(());
        }
        "sync" | "catchup" | "promote" | "detach" => {
            let Some(mode) = repl.replica.as_mut() else {
                return Err(format!("{cmd} only works in replica mode; see 'replica'"));
            };
            match cmd {
                "sync" => {
                    let report = mode.replica.poll().map_err(|e| e.to_string())?;
                    println!(
                        "applied {} op(s), lag {} byte(s), live segment {}{}{}",
                        report.ops_applied,
                        report.lag_bytes,
                        report.live_segment,
                        if report.rotated { ", rotated" } else { "" },
                        if report.rebootstrapped { ", re-bootstrapped" } else { "" },
                    );
                }
                "catchup" => {
                    let applied = mode.replica.catch_up().map_err(|e| e.to_string())?;
                    println!("caught up: {applied} op(s) applied");
                }
                "promote" => {
                    if rest.is_empty() {
                        return Err("usage: promote <new-journal-dir>".into());
                    }
                    let ReplicaMode { replica, session } = repl.replica.take().expect("checked");
                    drop(session); // release the shared handle before promotion
                    let durable = replica
                        .promote(rest, SyncPolicy::OnCheckpoint)
                        .map_err(|e| e.to_string())?;
                    println!(
                        "promoted: writable journal at {rest} (generation {})",
                        durable.generation()
                    );
                    let image = loosedb::engine::persist::encode(durable.database_ref()).to_vec();
                    let db =
                        loosedb::engine::persist::decode(&image[..]).map_err(|e| e.to_string())?;
                    repl.session = Session::new(db);
                    println!("local session now holds the promoted data (read-write)");
                }
                _ => {
                    let mode = repl.replica.take().expect("checked");
                    repl.session = local_session_from(mode.replica.shared())?;
                    println!("detached; local session holds the replicated data (read-write)");
                }
            }
            return Ok(());
        }
        _ => {}
    }
    if let Some(mode) = repl.replica.as_mut() {
        if read_command(&mut mode.session, cmd, rest)? {
            return Ok(());
        }
        match cmd {
            "stats" => {
                let generation = mode.session.snapshot();
                let stats = generation.store().stats();
                println!(
                    "{} facts, {} entities, {} distinct relationships (epoch {})",
                    stats.facts,
                    stats.entities,
                    stats.distinct_relationships,
                    generation.epoch()
                );
            }
            "metrics" => {
                print!(
                    "{}",
                    loosedb::obs::prometheus_text(mode.replica.shared().metrics().registry())
                );
            }
            other => {
                return Err(format!(
                    "{other:?} is unavailable in replica mode (read-only); \
                     'detach' or 'promote <dir>' first"
                ))
            }
        }
        return Ok(());
    }
    if let Some(mode) = repl.sharded.as_mut() {
        if read_command(&mut mode.session, cmd, rest)? {
            return Ok(());
        }
        match cmd {
            "add" | "tryadd" | "del" => {
                let (a, b, c) = fact_args(cmd, rest)?;
                sharded_edit(&mode.db, cmd, &a, &b, &c)?;
            }
            "stats" => shard_status(&mode.db),
            "metrics" => {
                print!("{}", loosedb::obs::prometheus_text(mode.db.metrics().registry()));
            }
            other => {
                return Err(format!("{other:?} is unavailable in sharded mode; 'shards off' first"))
            }
        }
        return Ok(());
    }
    if let Some(mode) = repl.connected.as_mut() {
        let c = &mut mode.client;
        match cmd {
            "nav" | "focus" | "f" | "try" => {
                let (a, b, d) = if cmd == "nav" {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let [a, b, d] = parts.as_slice() else {
                        return Err("usage: nav <s> <r> <t>".into());
                    };
                    ((*a).to_string(), (*b).to_string(), (*d).to_string())
                } else {
                    // focus/try render the same neighborhood template.
                    (rest.to_string(), "*".into(), "*".into())
                };
                print!("{}", c.navigate(&a, &b, &d).map_err(|e| e.to_string())?);
            }
            "query" | "q" => {
                let result = c.query(rest).map_err(|e| e.to_string())?;
                for row in &result.rows {
                    println!("{}", row.join(" | "));
                }
                println!("({} answer(s), epoch {})", result.rows.len(), result.epoch);
            }
            "probe" | "p" => print!("{}", c.probe(rest).map_err(|e| e.to_string())?),
            "add" | "tryadd" => {
                let fact = fact_args(cmd, rest)?;
                let done = c.publish(cmd == "tryadd", vec![fact]).map_err(|e| e.to_string())?;
                println!("{} fact(s) applied (epoch {})", done.applied, done.epoch);
            }
            "del" => {
                let (a, b, d) = fact_args(cmd, rest)?;
                let done = c.retract(&a, &b, &d).map_err(|e| e.to_string())?;
                println!("{} fact(s) removed (epoch {})", done.applied, done.epoch);
            }
            "metrics" => print!("{}", c.metrics_text().map_err(|e| e.to_string())?),
            "help" => println!("{HELP}"),
            other => {
                return Err(format!(
                    "{other:?} is unavailable in connected mode; 'disconnect' first"
                ))
            }
        }
        return Ok(());
    }

    let session = &mut repl.session;
    match cmd {
        "help" => println!("{HELP}"),
        "world" => {
            let db: Database = match rest {
                "music" => music_world(),
                "probing" => probing_world(),
                "university" => university(&Default::default()),
                "company" => company(&Default::default()),
                "empty" => Database::new(),
                other => return Err(format!("unknown world {other:?}")),
            };
            *session = Session::new(db);
            println!("loaded {rest} ({} facts)", session.db().base_len());
        }
        "focus" | "f" => {
            let table = session.focus(rest).map_err(|e| e.to_string())?;
            print!("{table}");
        }
        "back" => {
            let table = session.back().map_err(|e| e.to_string())?;
            print!("{table}");
        }
        "try" => {
            let table = session.try_entity(rest).map_err(|e| e.to_string())?;
            print!("{table}");
        }
        "nav" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [s, r, t] = parts.as_slice() else {
                return Err("usage: nav <s> <r> <t>".into());
            };
            let table = session.navigate_parts(s, r, t).map_err(|e| e.to_string())?;
            print!("{table}");
        }
        "query" | "q" => {
            let answer = session.query(rest).map_err(|e| e.to_string())?;
            print!("{}", answer.render(session.db().store().interner()));
            println!("({} answer(s))", answer.len());
        }
        "probe" | "p" => {
            let report = session.probe(rest).map_err(|e| e.to_string())?;
            print!("{}", report.render_menu(session.db().store().interner()));
        }
        "add" | "tryadd" | "del" | "explain" => {
            let (s, r, t) = fact_args(cmd, rest)?;
            edit(session, cmd, &s, &r, &t)?;
        }
        "include" | "exclude" => {
            let group =
                RuleGroup::from_name(rest).ok_or_else(|| format!("unknown rule group {rest:?}"))?;
            if cmd == "include" {
                session.db_mut().include(group);
            } else {
                session.db_mut().exclude(group);
            }
            println!("{cmd}d {group}");
        }
        "limit" => {
            let n: usize = rest.parse().map_err(|_| "usage: limit <n>".to_string())?;
            if n == 0 {
                return Err("limit must be at least 1".into());
            }
            session.db_mut().limit(n);
            println!("composition limit set to {n}");
        }
        "stats" => {
            let stats = session.db().store().stats();
            println!(
                "{} facts, {} entities, {} distinct relationships",
                stats.facts, stats.entities, stats.distinct_relationships
            );
            let closure = session.db_mut().closure().map_err(|e| e.to_string())?;
            let cs = closure.stats();
            println!(
                "closure: {} facts ({} derived, {} rounds), consistent: {}",
                closure.len(),
                cs.derived_facts,
                cs.rounds,
                closure.is_consistent()
            );
        }
        "dist" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [a, b] = parts.as_slice() else {
                return Err("usage: dist <a> <b>".into());
            };
            let a = session.db().lookup_symbol(a).ok_or_else(|| format!("unknown entity {a:?}"))?;
            let b = session.db().lookup_symbol(b).ok_or_else(|| format!("unknown entity {b:?}"))?;
            let view = session.db_mut().view().map_err(|e| e.to_string())?;
            match loosedb::semantic_distance(&view, a, b, 6).map_err(|e| e.to_string())? {
                Some(d) => println!("semantic distance: {d}"),
                None => println!("no chain of ≤ 6 facts relates them"),
            }
        }
        "plan" => {
            let plan = session.explain_query(rest).map_err(|e| e.to_string())?;
            print!("{plan}");
        }
        "fn" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let (rel, class) = match parts.as_slice() {
                [rel] => (*rel, None),
                [rel, class] => (*rel, Some(*class)),
                _ => return Err("usage: fn <rel> [target-class]".into()),
            };
            let f = session.function(rel, class).map_err(|e| e.to_string())?;
            println!(
                "{} source(s); {}",
                f.len(),
                if f.is_function() { "single-valued (a function)" } else { "multi-valued" }
            );
            for (src, targets) in f.entries.iter().take(20) {
                let names: Vec<String> = targets.iter().map(|&t| session.db().display(t)).collect();
                println!("  {} -> {}", session.db().display(*src), names.join(", "));
            }
            if f.len() > 20 {
                println!("  … ({} more)", f.len() - 20);
            }
        }
        "import" => {
            let text = std::fs::read_to_string(rest).map_err(|e| e.to_string())?;
            let added = session.db_mut().import_facts(&text).map_err(|e| e.to_string())?;
            println!("imported {added} new fact(s)");
        }
        "export" => {
            let (text, skipped) = session.db().export_facts();
            std::fs::write(rest, text).map_err(|e| e.to_string())?;
            println!("exported base facts to {rest} ({skipped} derived path fact(s) skipped)");
        }
        "save" => {
            session.db().save_full(rest).map_err(|e| e.to_string())?;
            println!("saved full database image to {rest}");
        }
        "load" => {
            let db = loosedb::Database::load_full(rest).map_err(|e| e.to_string())?;
            println!("loaded {} facts, {} rules", db.base_len(), db.rules().len());
            *session = Session::new(db);
        }
        "metrics" => {
            print!("{}", loosedb::obs::prometheus_text(session.db().metrics().registry()));
        }
        "spans" => return spans(rest),
        "history" => {
            let names: Vec<String> =
                session.history().iter().map(|&e| session.db().display(e)).collect();
            println!(
                "{}",
                if names.is_empty() { "(empty)".to_string() } else { names.join(" → ") }
            );
        }
        other => return Err(format!("unknown command {other:?}; type 'help'")),
    }
    Ok(())
}

/// The read commands replica and sharded mode share, over either snapshot
/// provider. Returns whether `cmd` was one of them.
fn read_command<P: Snapshots>(
    s: &mut SnapshotSession<P>,
    cmd: &str,
    rest: &str,
) -> Result<bool, String> {
    let err = |e: loosedb::SessionError| e.to_string();
    match cmd {
        "focus" | "f" => print!("{}", s.focus(rest).map_err(err)?),
        "back" => print!("{}", s.back().map_err(err)?),
        "try" => print!("{}", s.try_entity(rest).map_err(err)?),
        "nav" => {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [a, b, c] = parts.as_slice() else {
                return Err("usage: nav <s> <r> <t>".into());
            };
            print!("{}", s.navigate_parts(a, b, c).map_err(err)?);
        }
        "query" | "q" => {
            let answer = s.query(rest).map_err(err)?;
            if answer.columns.is_empty() {
                println!("{}", answer.is_true());
            } else {
                println!("{}", answer.names.join(" | "));
                for row in s.render_answer(&answer) {
                    println!("{}", row.join(" | "));
                }
            }
            println!("({} answer(s))", answer.len());
        }
        "probe" | "p" => {
            let report = s.probe(rest).map_err(err)?;
            print!("{}", s.render_probe(&report));
        }
        "plan" => print!("{}", s.explain_query(rest).map_err(err)?),
        "history" => {
            let snap = s.snapshot();
            let names: Vec<String> =
                s.history().iter().map(|&e| P::interner(&snap).display(e)).collect();
            println!(
                "{}",
                if names.is_empty() { "(empty)".to_string() } else { names.join(" → ") }
            );
        }
        "help" => println!("{HELP}"),
        "spans" => spans(rest)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The `shards` command: enter sharded mode (`shards <n>`), show the
/// per-shard status table (`shards`), or merge back out (`shards off`).
fn shards_command(repl: &mut Repl, rest: &str) -> Result<(), String> {
    if repl.replica.is_some() {
        return Err("shards is unavailable in replica mode; 'detach' first".into());
    }
    match rest {
        "" => {
            let Some(mode) = repl.sharded.as_ref() else {
                return Err("not in sharded mode; 'shards <n>' to partition".into());
            };
            shard_status(&mode.db);
            Ok(())
        }
        "off" => {
            let Some(mode) = repl.sharded.take() else {
                return Err("not in sharded mode; 'shards <n>' to partition".into());
            };
            // Re-import every shard's base facts into one local database;
            // broadcast copies dedup on insert.
            let mut db = Database::new();
            let mut merged = 0;
            for shard in mode.db.shards() {
                let text = shard.read_writer(|d| d.export_facts().0);
                merged += db.import_facts(&text).map_err(|e| e.to_string())?;
            }
            repl.session = Session::new(db);
            println!("left sharded mode; {merged} fact(s) merged into the local session");
            Ok(())
        }
        n => {
            if repl.sharded.is_some() {
                return Err("already in sharded mode; 'shards off' first".into());
            }
            let n: usize = n.parse().map_err(|_| "usage: shards <n> | shards off".to_string())?;
            if n == 0 {
                return Err("shard count must be at least 1".into());
            }
            let db = Arc::new(
                ShardedDatabase::from_store(n, repl.session.db().store())
                    .map_err(|e| e.to_string())?,
            );
            let stats = db.stats();
            let base: usize = stats.iter().map(|s| s.base_facts).sum();
            println!(
                "partitioned {} fact slot(s) across {n} shard(s) \
                 (broadcast facts counted once per shard); type 'shards' for status",
                base
            );
            let session = ShardedSession::new(Arc::clone(&db));
            repl.sharded = Some(ShardedMode { db, session });
            Ok(())
        }
    }
}

/// Per-shard status table for the `shards` / sharded-mode `stats` command.
fn shard_status(db: &ShardedDatabase) {
    println!("shard   epoch    base  closure  publishes");
    for (i, s) in db.stats().iter().enumerate() {
        println!(
            "{i:>5}  {:>6}  {:>6}  {:>7}  {:>9}",
            s.epoch, s.base_facts, s.closure_facts, s.publishes
        );
    }
}

/// Fact-editing commands in sharded mode, routed through the partition
/// router (owner shard or broadcast).
fn sharded_edit(db: &ShardedDatabase, cmd: &str, s: &str, r: &str, t: &str) -> Result<(), String> {
    let render = |db: &ShardedDatabase, f: &loosedb::Fact| {
        let snap = db.snapshot();
        format!("({}, {}, {})", snap.display(f.s), snap.display(f.r), snap.display(f.t))
    };
    match cmd {
        "add" => {
            let f = db.insert(value(s), value(r), value(t)).map_err(|e| e.to_string())?;
            println!("added to shard {}: {}", db.shard_of(f.s), render(db, &f));
        }
        "tryadd" => match db.try_insert(value(s), value(r), value(t)) {
            Ok(f) => println!("added to shard {}: {}", db.shard_of(f.s), render(db, &f)),
            Err(e) => println!("rejected: {e}"),
        },
        "del" => {
            let fact =
                loosedb::Fact::new(db.entity(value(s)), db.entity(value(r)), db.entity(value(t)));
            if db.remove(&fact).map_err(|e| e.to_string())? {
                println!("removed {}", render(db, &fact));
            } else {
                println!("no such fact");
            }
        }
        _ => unreachable!(),
    }
    Ok(())
}

/// The `spans` command, shared by every local mode.
fn spans(rest: &str) -> Result<(), String> {
    match rest {
        "on" => {
            loosedb::obs::trace::set_capture(true);
            if loosedb::obs::trace::capturing() {
                println!("span capture on");
            } else {
                println!("span capture unavailable (rebuild with --features obs)");
            }
        }
        "off" => {
            loosedb::obs::trace::set_capture(false);
            println!("span capture off");
        }
        "show" | "" => {
            let spans = loosedb::obs::trace::drain();
            if spans.is_empty() {
                println!("(no spans captured; try 'spans on' under --features obs)");
            }
            for s in &spans {
                println!("{}", loosedb::obs::trace::render_span(s));
            }
        }
        other => return Err(format!("usage: spans <on|off|show>, not {other:?}")),
    }
    Ok(())
}

/// Splits a fact-editing argument into its three names. Accepts both
/// the bare `S R T` spelling and the query-style `(S, R, T)` one —
/// without this, `add (JOHN, LIKES, OPERA)` would silently intern
/// `"(JOHN,"` as a brand-new entity and the write, though acked, would
/// never show up under JOHN.
fn fact_args(cmd: &str, rest: &str) -> Result<(String, String, String), String> {
    let trimmed = rest.trim();
    let trimmed = trimmed.strip_prefix('(').unwrap_or(trimmed);
    let trimmed = trimmed.strip_suffix(')').unwrap_or(trimmed);
    let parts: Vec<&str> =
        trimmed.split(|c: char| c == ',' || c.is_whitespace()).filter(|p| !p.is_empty()).collect();
    match parts.as_slice() {
        [s, r, t] => Ok(((*s).to_string(), (*r).to_string(), (*t).to_string())),
        _ => Err(format!("usage: {cmd} <s> <r> <t>  (or {cmd} (<s>, <r>, <t>))")),
    }
}

/// Parses a command-line token into an [`loosedb::EntityValue`]:
/// integers and floats stay numeric, everything else is a symbol.
fn value(text: &str) -> loosedb::EntityValue {
    if let Ok(i) = text.parse::<i64>() {
        i.into()
    } else if let Ok(f) = text.parse::<f64>() {
        loosedb::EntityValue::float(f)
    } else {
        loosedb::EntityValue::symbol(text)
    }
}

/// Fact-editing commands: `add`, `tryadd`, `del`, `explain`.
fn edit(session: &mut Session, cmd: &str, s: &str, r: &str, t: &str) -> Result<(), String> {
    let db = session.db_mut();
    match cmd {
        "add" => {
            let f = db.add(value(s), value(r), value(t));
            println!("added {}", db.display_fact(&f));
        }
        "tryadd" => match db.try_add(value(s), value(r), value(t)) {
            Ok(f) => println!("added {}", db.display_fact(&f)),
            Err(e) => println!("rejected: {e}"),
        },
        "del" => {
            let fact =
                loosedb::Fact::new(db.entity(value(s)), db.entity(value(r)), db.entity(value(t)));
            if db.remove(&fact) {
                println!("removed {}", db.display_fact(&fact));
            } else {
                println!("no such fact");
            }
        }
        "explain" => {
            let fact =
                loosedb::Fact::new(db.entity(value(s)), db.entity(value(r)), db.entity(value(t)));
            match db.explain(&fact).map_err(|e| e.to_string())? {
                Some(lines) => {
                    for line in lines {
                        println!("{line}");
                    }
                }
                None => println!("not in the closure"),
            }
        }
        _ => unreachable!(),
    }
    Ok(())
}
