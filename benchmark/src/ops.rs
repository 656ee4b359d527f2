//! Seeded request generators: the only thing the server ever sees.
//!
//! A [`Gen`] is one connection's request stream. The same
//! `(workload, scale, seed, connection)` always yields the same stream.
//! The seed decides every per-request choice, each a fresh draw from a
//! fixed distribution, and nothing structural: a window of thousands of
//! requests has the same make-up whatever the seed.

use std::collections::HashSet;

use loosedb_datagen::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::world::{Scale, WorldKind};

/// The served operations a latency is reported for (plus the class-level
/// retract that keeps `write_durable`'s world level).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Nav,
    Query,
    Probe,
    Publish,
    ClassPublish,
    Retract,
    ClassRetract,
}

pub const KINDS: [Kind; 7] = [
    Kind::Nav,
    Kind::Query,
    Kind::Probe,
    Kind::Publish,
    Kind::ClassPublish,
    Kind::Retract,
    Kind::ClassRetract,
];

impl Kind {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Nav => "nav",
            Kind::Query => "query",
            Kind::Probe => "probe",
            Kind::Publish => "publish",
            Kind::ClassPublish => "class_publish",
            Kind::Retract => "retract",
            Kind::ClassRetract => "class_retract",
        }
    }

    pub fn is_write(self) -> bool {
        !matches!(self, Kind::Nav | Kind::Query | Kind::Probe)
    }
}

pub type Triple = (String, String, String);

/// One request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Nav(Triple),
    Query(String),
    Probe(String),
    Publish(Triple),
    ClassPublish(Triple),
    Retract(Triple),
    ClassRetract(Triple),
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Nav(_) => Kind::Nav,
            Op::Query(_) => Kind::Query,
            Op::Probe(_) => Kind::Probe,
            Op::Publish(_) => Kind::Publish,
            Op::ClassPublish(_) => Kind::ClassPublish,
            Op::Retract(_) => Kind::Retract,
            Op::ClassRetract(_) => Kind::ClassRetract,
        }
    }
}

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BrowseHot,
    QueryCold,
    ProbeInfer,
    WriteDurable,
}

/// `write_durable`'s reader is due every 5 ms: 200 navigations a second.
pub const READER_INTERVAL_US: u64 = 5_000;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BrowseHot, Workload::QueryCold, Workload::ProbeInfer, Workload::WriteDurable];

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseHot => "browse_hot",
            Workload::QueryCold => "query_cold",
            Workload::ProbeInfer => "probe_infer",
            Workload::WriteDurable => "write_durable",
        }
    }

    pub fn world(self) -> WorldKind {
        match self {
            Workload::BrowseHot | Workload::QueryCold => WorldKind::Zipf,
            Workload::ProbeInfer | Workload::WriteDurable => WorldKind::University,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::WriteDurable
    }

    /// Connections the generator opens; never more than the two cores.
    pub const CONNECTIONS: usize = 2;

    /// True for the connection that is paced rather than closed-loop.
    pub fn paced(self, conn: usize) -> bool {
        self == Workload::WriteDurable && conn == 1
    }

    /// Requests in one indivisible unit of a connection's stream (an
    /// episode, a write cycle). Windows end on unit boundaries, so every
    /// window holds the same mix.
    pub fn unit_len(self, conn: usize) -> usize {
        match self {
            Workload::ProbeInfer => EPISODE,
            Workload::WriteDurable if conn == 0 => CYCLE,
            _ => 1,
        }
    }
}

/// `probe_infer`: 24 navigations, 8 queries, 1 probe.
const EPISODE: usize = 33;
/// `write_durable`: 64 publishes, 2 class publishes, 32 retracts, 2 class
/// retracts — writes before retracts, see the README on why the order is
/// fixed.
const CYCLE: usize = 100;

const HOT_TEXTS: usize = 32;
const COLD_SHAPES: usize = 16;
const HUBS: usize = 50;
const YEARS: [&str; 4] = ["FRESHMAN", "SOPHOMORE", "JUNIOR", "SENIOR"];

/// One connection's seeded request stream.
pub struct Gen {
    workload: Workload,
    scale: Scale,
    conn: usize,
    rng: StdRng,
    /// Rank sampler for Zipf-world navigation.
    ranks: Zipf,
    /// `browse_hot`: the query texts this connection repeats.
    hot: Vec<String>,
    /// `query_cold`: join shapes with `?v` variables, renamed per request.
    cold: Vec<String>,
    serial: u64,
    step: usize,
    /// The university's query and probe shapes take turns rather than
    /// being drawn: their costs differ tenfold, and a window should hold
    /// the same share of each whatever the seed. The seed picks the
    /// constants.
    query_turn: usize,
    probe_turn: usize,
    episode_queries: Vec<String>,
    /// Instance facts published and not yet retracted, and every triple
    /// ever published (none is used twice, so `applied` is always 1).
    live: Vec<Triple>,
    used: HashSet<Triple>,
    class_live: Vec<Triple>,
    retired: Vec<Triple>,
}

fn triple(s: impl Into<String>, r: impl Into<String>, t: impl Into<String>) -> Triple {
    (s.into(), r.into(), t.into())
}

impl Gen {
    pub fn new(workload: Workload, scale: Scale, seed: u64, conn: usize) -> Gen {
        let rng =
            StdRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rels = scale.zipf_rels;
        let hubs = HUBS.min(scale.zipf_entities);
        // Which texts and which shapes is fixed per connection, so every
        // seed loads the caches alike; the seed decides the order they
        // are asked in. One text per top-32 entity: half single-atom
        // lookups, half two-atom stars.
        let hot = (0..HOT_TEXTS)
            .map(|i| {
                let (h, a, b) = (i % hubs, (i * 7 + conn * 3) % rels, (i * 11 + 5) % rels);
                if i % 2 == 0 {
                    format!("Q(?x) := (N{h}, R{a}, ?x)")
                } else {
                    format!("Q(?x) := (?x, R{a}, N{h}) & (?x, R{b}, N{})", (h + 1) % hubs)
                }
            })
            .collect();
        // 12 chains and 4 stars of 3–6 atoms, anchored at top-50 hubs.
        let cold = (0..COLD_SHAPES)
            .map(|i| {
                let atoms = 3 + i % 4;
                let hub = (i * 7 + conn * 13) % hubs;
                let off = (i * 5 + conn) % rels;
                if i < 12 {
                    let body: Vec<String> = (0..atoms)
                        .map(|a| {
                            let src = if a == 0 { format!("N{hub}") } else { format!("?v{a}") };
                            format!("({src}, R{}, ?v{})", (off + a) % rels, a + 1)
                        })
                        .collect();
                    let mids: Vec<String> = (1..atoms).map(|a| format!("?v{a}")).collect();
                    format!("Q(?v{atoms}) := exists {} . {}", mids.join(" "), body.join(" & "))
                } else {
                    let body: Vec<String> = (0..atoms)
                        .map(|a| format!("(?v0, R{}, N{})", (off + a) % rels, (hub + a) % hubs))
                        .collect();
                    format!("Q(?v0) := {}", body.join(" & "))
                }
            })
            .collect();
        Gen {
            workload,
            scale,
            conn,
            rng,
            ranks: Zipf::new(scale.zipf_entities, 1.1),
            hot,
            cold,
            serial: 0,
            step: 0,
            query_turn: 0,
            probe_turn: 0,
            episode_queries: Vec::new(),
            live: Vec::new(),
            used: HashSet::new(),
            class_live: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// The next request of the workload's mix.
    pub fn next_op(&mut self) -> Op {
        let step = self.step;
        self.step = (step + 1) % self.workload.unit_len(self.conn);
        match self.workload {
            Workload::BrowseHot => {
                if self.rng.gen_bool(0.7) {
                    self.nav()
                } else {
                    self.query()
                }
            }
            Workload::QueryCold => self.query(),
            Workload::ProbeInfer => match step {
                32 => self.probe(),
                s if s % 4 == 3 => self.query(),
                _ => self.nav(),
            },
            Workload::WriteDurable if self.conn == 0 => match step {
                0..=63 => self.publish(),
                64..=65 => self.class_publish(),
                66..=97 => self.retract(),
                _ => self.class_retract(),
            },
            Workload::WriteDurable => self.nav(),
        }
    }

    /// A request of one kind, from this workload's vocabulary.
    pub fn op_of(&mut self, kind: Kind) -> Op {
        match kind {
            Kind::Nav => self.nav(),
            Kind::Query => self.query(),
            Kind::Probe => self.probe(),
            Kind::Publish => self.publish(),
            Kind::ClassPublish => self.class_publish(),
            Kind::Retract => self.retract(),
            Kind::ClassRetract => self.class_retract(),
        }
    }

    fn zipf_world(&self) -> bool {
        self.workload.world() == WorldKind::Zipf
    }

    fn student(&mut self) -> String {
        format!("STU-{}", self.rng.gen_range(0..self.scale.students))
    }

    fn course(&mut self) -> String {
        format!("CRS-{}", self.rng.gen_range(0..self.scale.courses))
    }

    fn instructor(&mut self) -> String {
        format!("INST-{}", self.rng.gen_range(0..self.scale.instructors))
    }

    fn nav(&mut self) -> Op {
        if self.zipf_world() {
            let k = self.ranks.sample(&mut self.rng);
            return Op::Nav(triple(format!("N{k}"), "*", "*"));
        }
        // Neighbourhoods whose cells are mostly derived: a student's
        // classes come by membership and generalization, TAUGHT-BY only
        // by inversion.
        let enrollments = self.scale.students * self.scale.enrollments;
        Op::Nav(match self.rng.gen_range(0..100u32) {
            0..=39 => triple(self.student(), "*", "*"),
            40..=59 => triple(format!("E{}", self.rng.gen_range(0..enrollments)), "*", "*"),
            60..=74 => triple(self.course(), "*", "*"),
            75..=84 => triple(self.course(), "TAUGHT-BY", "*"),
            85..=94 => triple(self.instructor(), "*", "*"),
            _ => triple("*", "ENROLL-COURSE", self.course()),
        })
    }

    fn query(&mut self) -> Op {
        match self.workload {
            Workload::BrowseHot => {
                let i = self.rng.gen_range(0..self.hot.len());
                Op::Query(self.hot[i].clone())
            }
            Workload::QueryCold => {
                let i = self.rng.gen_range(0..self.cold.len());
                self.serial += 1;
                let rename = format!("?q{}c{}_", self.serial, self.conn);
                Op::Query(self.cold[i].replace("?v", &rename))
            }
            _ => loop {
                let text = self.university_query();
                if !self.episode_queries.contains(&text) {
                    if self.episode_queries.len() == 8 {
                        self.episode_queries.clear();
                    }
                    self.episode_queries.push(text.clone());
                    return Op::Query(text);
                }
            },
        }
    }

    /// Five shapes, each answerable only through the closure: inversion
    /// (TAUGHT-BY), membership up the `gen` chain (isa PERSON) and
    /// relationship generalization (ATTENDED).
    fn university_query(&mut self) -> String {
        self.query_turn += 1;
        match self.query_turn % 5 {
            0 => format!("Q(?i) := ({}, TAUGHT-BY, ?i)", self.course()),
            1 => format!(
                "Q(?s) := exists ?e . (?e, ENROLL-COURSE, {}) & (?e, ENROLL-STUDENT, ?s) & (?s, isa, PERSON)",
                self.course()
            ),
            2 => format!(
                "Q(?s) := exists ?e . (?e, ENROLL-COURSE, {}) & (?e, ENROLL-STUDENT, ?s) & (?s, ATTENDED, USC)",
                self.course()
            ),
            3 => format!(
                "Q(?i) := exists ?e ?c . (?e, ENROLL-STUDENT, {}) & (?e, ENROLL-COURSE, ?c) & (?c, TAUGHT-BY, ?i) & (?i, isa, PERSON)",
                self.student()
            ),
            _ => format!(
                "Q(?s) := exists ?e . (?e, ENROLL-COURSE, {}) & (?e, ENROLL-GRADE, A) & (?e, ENROLL-STUDENT, ?s) & (?s, isa, STUDENT)",
                self.course()
            ),
        }
    }

    /// A query that fails by construction (nobody graduates from a
    /// course, no student teaches one; mid-rank Zipf nodes rarely meet),
    /// so the probe has to retract. Each university shape costs the same
    /// whatever constants the seed picks.
    fn probe(&mut self) -> Op {
        if self.zipf_world() {
            let n = self.scale.zipf_entities;
            let lo = (n / 100).max(1);
            let (a, b) = (self.rng.gen_range(lo..n), self.rng.gen_range(lo..n));
            let (j, k) = (
                self.rng.gen_range(0..self.scale.zipf_rels),
                self.rng.gen_range(0..self.scale.zipf_rels),
            );
            return Op::Probe(format!("Q(?x) := (N{a}, R{j}, ?x) & (?x, R{k}, N{b})"));
        }
        self.probe_turn += 1;
        Op::Probe(match self.probe_turn % 5 {
            // Two waves, microseconds.
            0 => format!("({}, GRADUATE-OF, {})", self.student(), self.course()),
            // One wave that ends at PERSON instead of STUDENT: whoever
            // teaches a course is no student.
            1 => format!("Q(?i) := (?i, TEACHES, {}) & (?i, isa, STUDENT)", self.course()),
            // One wave that ends at Δ instead of the course.
            _ => {
                let year = YEARS[self.rng.gen_range(0..YEARS.len())];
                format!("Q(?s) := (?s, isa, {year}) & (?s, GRADUATE-OF, {})", self.course())
            }
        })
    }

    /// One instance-level fact never published before: a student likes a
    /// course (a note between two nodes on the Zipf world). Should a long
    /// run use up half of those, the targets become fresh names instead.
    fn publish(&mut self) -> Op {
        loop {
            let (n, zipf) = (self.scale.zipf_entities, self.zipf_world());
            let space = if zipf { n * n } else { self.scale.students * self.scale.courses };
            let target = if self.used.len() * 2 >= space {
                self.serial += 1;
                format!("TOPIC-{}-{}", self.conn, self.serial)
            } else if zipf {
                format!("N{}", self.rng.gen_range(0..n))
            } else {
                self.course()
            };
            let fact = if zipf {
                triple(format!("N{}", self.rng.gen_range(0..n)), "NOTE", target)
            } else {
                triple(self.student(), "LIKES", target)
            };
            if self.used.insert(fact.clone()) {
                self.live.push(fact.clone());
                return Op::Publish(fact);
            }
        }
    }

    /// One class-level fact; with inference on it reaches every member.
    fn class_publish(&mut self) -> Op {
        self.serial += 1;
        let class = if self.zipf_world() { "N0" } else { "FRESHMAN" };
        let fact = triple(class, format!("REQ-{}-{}", self.conn, self.serial), "X");
        self.class_live.push(fact.clone());
        Op::ClassPublish(fact)
    }

    /// Instance facts still live, i.e. available to [`Kind::Retract`].
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    fn retract(&mut self) -> Op {
        assert!(!self.live.is_empty(), "retract before any publish");
        let i = self.rng.gen_range(0..self.live.len());
        let fact = self.live.swap_remove(i);
        self.retired.push(fact.clone());
        Op::Retract(fact)
    }

    fn class_retract(&mut self) -> Op {
        let fact = self.class_live.pop().expect("class retract before any class publish");
        self.retired.push(fact.clone());
        Op::ClassRetract(fact)
    }

    /// Facts whose publish was the last word (must be in the journal) and
    /// facts whose retract was (must not be).
    pub fn ledger(&self) -> (Vec<&Triple>, &[Triple]) {
        (self.live.iter().chain(&self.class_live).collect(), &self.retired)
    }
}
