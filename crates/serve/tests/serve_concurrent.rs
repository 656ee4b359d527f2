//! Served and embedded must be the same database: N client threads run
//! an E16-style read/write mix over real sockets while an embedded
//! session over the *same* shared database acts as the oracle. At every
//! verification point the served answers equal the embedded ones, and
//! the per-session answer caches demonstrably warm up (the hit counters
//! rise), because a served session holds a real browse-layer session.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use loosedb_browse::SharedSession;
use loosedb_datagen::music_world;
use loosedb_engine::{ShardedDatabase, SharedDatabase};
use loosedb_serve::{Backend, Client, ServeConfig, Server};

const THREADS: usize = 6;
const ROUNDS: usize = 8;

fn scrape(addr: std::net::SocketAddr, name: &str) -> u64 {
    let mut stream = TcpStream::connect(addr).expect("connect for scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not exported"))
        .trim()
        .parse()
        .expect("integral metric")
}

#[test]
fn served_sessions_agree_with_the_embedded_oracle() {
    let shared = Arc::new(SharedDatabase::new(music_world()).expect("closure"));
    let mut server =
        Server::start(Backend::shared(Arc::clone(&shared)), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    let hits_before = scrape(addr, "loosedb_browse_query_cache_hits");

    // The E16-style mix: every thread interleaves repeated reads (the
    // same query, so its session cache can answer), navigation, and
    // writes of thread-unique facts.
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, &format!("tenant-{t}")).expect("connect worker");
                for round in 0..ROUNDS {
                    let rows = client.query("(JOHN, LIKES, ?what)").expect("read").rows;
                    assert!(!rows.is_empty(), "reads must see the base world");
                    let table = client.navigate("JOHN", "*", "*").expect("navigate");
                    assert!(table.contains("JOHN"));
                    let done = client
                        .publish(
                            false,
                            vec![(
                                format!("WORKER-{t}"),
                                "PRODUCED".into(),
                                format!("ITEM-{t}-{round}"),
                            )],
                        )
                        .expect("write");
                    assert_eq!(done.applied, 1, "every unique fact lands");
                    // Re-read after the write: the session must keep
                    // answering (its cache re-keys on the new epoch).
                    client.query("(JOHN, LIKES, ?what)").expect("read after write");
                }
                client.bye().expect("polite exit");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }

    // Repeated identical queries inside each served session must have
    // been answered from warm per-session caches at least part of the
    // time — the served path keeps sessions alive across requests.
    let hits_after = scrape(addr, "loosedb_browse_query_cache_hits");
    assert!(
        hits_after > hits_before,
        "served sessions never hit their answer caches ({hits_before} → {hits_after})"
    );

    // Oracle time: an embedded session over the very same shared
    // database, and a fresh served session, must agree answer for
    // answer on the final state.
    let mut oracle = SharedSession::new(Arc::clone(&shared));
    let mut served = Client::connect(addr, "oracle-check").expect("connect oracle");
    let checks = [
        "(JOHN, LIKES, ?what)".to_string(),
        "(?who, PRODUCED, ?item)".to_string(),
        "(WORKER-0, PRODUCED, ?item)".to_string(),
        format!("(WORKER-{}, PRODUCED, ?item)", THREADS - 1),
    ];
    for q in &checks {
        let embedded = oracle.query(q).expect("oracle query");
        let embedded_rows = oracle.render_answer(&embedded);
        let served_rows = served.query(q).expect("served query").rows;
        assert_eq!(served_rows, embedded_rows, "served and embedded disagree on {q}");
    }

    // Every write from every thread is present exactly once.
    let produced = served.query("(?who, PRODUCED, ?item)").expect("final count").rows;
    assert_eq!(produced.len(), THREADS * ROUNDS, "lost or duplicated writes");

    // The server-reported epoch matches the database's own.
    assert_eq!(served.epoch(), shared.epoch(), "epoch drifted between faces");
    server.shutdown();
}

/// A served answer carries the epoch it was evaluated at. One writer adds
/// `(W<i>, LIKES, TARGET)` facts, each one publish on one shard, so an
/// answer evaluated at epoch `e` has exactly `e - e0` rows; a reader
/// racing the writer checks that for every `Rows` it gets back.
#[test]
fn served_rows_carry_the_epoch_they_were_answered_at() {
    for backend in [
        Backend::shared(Arc::new(SharedDatabase::new(music_world()).expect("closure"))),
        Backend::sharded(Arc::new(ShardedDatabase::new(4).expect("shards"))),
    ] {
        let e0 = backend.epoch();
        let mut server = Server::start(backend, ServeConfig::default()).expect("bind");
        let addr = server.local_addr();
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, "writer").expect("connect writer");
                for i in 0..2000 {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let fact = (format!("W{i}"), "LIKES".into(), "TARGET".into());
                    assert_eq!(client.publish(false, vec![fact]).expect("publish").applied, 1);
                }
                client.bye().expect("bye");
            })
        };
        let mut client = Client::connect(addr, "reader").expect("connect");
        for _ in 0..300 {
            let rows = client.query("Q(?x) := (?x, LIKES, TARGET)").expect("query");
            assert_eq!(rows.rows.len() as u64, rows.epoch - e0, "rows answered at another epoch");
        }
        done.store(true, Ordering::Release);
        writer.join().expect("writer");
        client.bye().expect("bye");
        server.shutdown();
    }
}
