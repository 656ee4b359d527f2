//! The served write path, end to end through `Server` + `Client`: a
//! refused write leaves nothing behind — not in the served generations,
//! not in the journal — and accepted writes reach the journal through the
//! one writer without ever recomputing the closure.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use loosedb_engine::{Database, DurableDatabase, SharedDatabase, SyncPolicy};
use loosedb_serve::{Backend, Client, ClientError, ErrorCode, ServeConfig, Server};
use loosedb_store::io::{MemIo, StorageIo};
use loosedb_store::Fact;

/// `(LIKES, contra, HATES)` makes liking and hating the same thing a
/// contradiction; John likes opera.
const WORLD: [(&str, &str, &str); 2] = [("LIKES", "contra", "HATES"), ("JOHN", "LIKES", "OPERA")];

fn fact(s: &str, r: &str, t: &str) -> (String, String, String) {
    (s.into(), r.into(), t.into())
}

fn shared_backend() -> Backend {
    let mut db = Database::new();
    for (s, r, t) in WORLD {
        db.add(s, r, t);
    }
    Backend::shared(Arc::new(SharedDatabase::new(db).expect("closure")))
}

fn open_journal(io: &Arc<MemIo>) -> DurableDatabase<Box<dyn StorageIo>> {
    let boxed: Box<dyn StorageIo> = Box::new(Arc::clone(io));
    DurableDatabase::open_with(boxed, "db", SyncPolicy::Always).expect("open journal")
}

fn durable_backend(io: &Arc<MemIo>) -> Backend {
    let mut journal = open_journal(io);
    for (s, r, t) in WORLD {
        journal.add(s, r, t).expect("seed");
    }
    Backend::durable(journal).expect("durable backend")
}

fn likes(client: &mut Client) -> (u64, BTreeSet<Vec<String>>) {
    let answer = client.query("(?who, LIKES, ?what)").expect("query");
    (answer.epoch, answer.rows.into_iter().collect())
}

fn rows(rows: &[[&str; 2]]) -> BTreeSet<Vec<String>> {
    rows.iter().map(|row| row.iter().map(|s| s.to_string()).collect()).collect()
}

/// True if the base fact `(s, r, t)` is in `db`, by name.
fn holds(db: &Database, s: &str, r: &str, t: &str) -> bool {
    match (db.lookup_symbol(s), db.lookup_symbol(r), db.lookup_symbol(t)) {
        (Some(s), Some(r), Some(t)) => db.contains_base(&Fact::new(s, r, t)),
        _ => false,
    }
}

/// The refused checked batch, then the writes after it: the refused
/// batch's harmless first fact is not served at the next epoch, a later
/// publish naming new entities is, and retracts take — of an old fact
/// and of one naming an entity first seen after the refusal.
fn refuse_then_write(client: &mut Client) {
    let refused =
        client.publish(true, vec![fact("NEWGUY", "LIKES", "JAZZ"), fact("JOHN", "HATES", "OPERA")]);
    match refused {
        Err(ClientError::Refused { code: ErrorCode::Integrity, .. }) => {}
        other => panic!("checked batch with a contradiction must be refused: {other:?}"),
    }

    let done = client
        .publish(false, vec![fact("SUE", "LIKES", "BLUES"), fact("TOM", "LIKES", "BLUES")])
        .expect("publish");
    assert_eq!(done.applied, 2);
    let (epoch, served) = likes(client);
    assert_eq!(epoch, done.epoch);
    let expected = rows(&[["JOHN", "OPERA"], ["SUE", "BLUES"], ["TOM", "BLUES"]]);
    assert_eq!(served, expected, "refused fact served");

    for (s, r, t) in [("JOHN", "LIKES", "OPERA"), ("TOM", "LIKES", "BLUES")] {
        assert_eq!(client.retract(s, r, t).expect("retract").applied, 1);
    }
    assert_eq!(likes(client).1, rows(&[["SUE", "BLUES"]]));
}

#[test]
fn refused_checked_batch_leaves_nothing_on_the_shared_backend() {
    let mut server = Server::start(shared_backend(), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "").expect("connect");
    refuse_then_write(&mut client);
    server.shutdown();
}

#[test]
fn refused_checked_batch_leaves_nothing_on_the_durable_backend() {
    let io = Arc::new(MemIo::new());
    let mut server = Server::start(durable_backend(&io), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "").expect("connect");
    refuse_then_write(&mut client);
    server.shutdown();

    // Shutdown checkpointed the one writer database; a power cut after it
    // loses nothing.
    io.crash();
    let recovered = open_journal(&io);
    let db = recovered.database_ref();
    assert!(!holds(db, "NEWGUY", "LIKES", "JAZZ"), "refused fact became durable");
    assert!(!holds(db, "JOHN", "HATES", "OPERA"), "refused fact became durable");
    assert!(!holds(db, "JOHN", "LIKES", "OPERA"), "acknowledged retract undone");
    assert!(!holds(db, "TOM", "LIKES", "BLUES"), "acknowledged retract undone");
    assert!(holds(db, "SUE", "LIKES", "BLUES"), "acknowledged publish lost");
    assert!(holds(db, "LIKES", "contra", "HATES"));

    // Served again, the recovered database answers under the same names.
    let mut server =
        Server::start(Backend::durable(recovered).expect("reopen"), Default::default())
            .expect("rebind");
    let mut client = Client::connect(server.local_addr(), "").expect("connect recovered");
    assert_eq!(likes(&mut client).1, rows(&[["SUE", "BLUES"]]));
    server.shutdown();
}

/// Reads one integral metric over `GET /metrics`.
fn scrape(addr: std::net::SocketAddr, name: &str) -> u64 {
    let mut stream = TcpStream::connect(addr).expect("connect for scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not exported:\n{body}"))
        .trim()
        .parse()
        .expect("integral metric")
}

#[test]
fn durable_writes_reach_the_journal_without_recomputing_the_closure() {
    let io = Arc::new(MemIo::new());
    let mut server = Server::start(durable_backend(&io), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let computes = scrape(addr, "loosedb_engine_closure_computes");
    let appends = scrape(addr, "loosedb_store_wal_appends");
    let fsyncs = scrape(addr, "loosedb_store_wal_fsyncs");

    let mut client = Client::connect(addr, "").expect("connect");
    for _ in 0..2 {
        let done = client.publish(false, vec![fact("MARY", "LIKES", "OPERA")]).expect("publish");
        assert_eq!(done.applied, 1);
        let done = client.retract("MARY", "LIKES", "OPERA").expect("retract");
        assert_eq!(done.applied, 1);
    }

    assert_eq!(
        scrape(addr, "loosedb_engine_closure_computes"),
        computes,
        "a served write recomputed the closure"
    );
    // The journal reports to the registry `/metrics` serves (the seed's
    // appends already show): one append and one fsync per write under
    // `SyncPolicy::Always`.
    assert!(appends > 0 && fsyncs > 0, "seed writes not counted: {appends} / {fsyncs}");
    assert_eq!(scrape(addr, "loosedb_store_wal_appends") - appends, 4);
    assert_eq!(scrape(addr, "loosedb_store_wal_fsyncs") - fsyncs, 4);
    server.shutdown();
}
