//! The three workloads: table sizes, client counts, and the seeded request
//! scripts each client sends.
//!
//! Everything here is a pure function of the workload, the seed, and the
//! scale, so one seed always yields the same tables, the same ingest
//! batches, and the same request sequence.

use mdj_datagen::{PaymentsConfig, SalesConfig, STATES};
use mdj_storage::{Relation, Row, Value};

/// `Sales(cust, prod, day, month, year, state, sale)` column positions.
pub const CUST: usize = 0;
pub const DAY: usize = 2;
pub const MONTH: usize = 3;
pub const YEAR: usize = 4;
pub const STATE: usize = 5;
pub const SALE: usize = 6;

/// Rows per ingest batch.
pub const BATCH_ROWS: usize = 64;

/// Distinct states the generator draws from (`SalesConfig` default).
const STATE_COUNT: usize = 10;
const YEARS: std::ops::RangeInclusive<i64> = 1994..=1999;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OlapScan,
    DashboardRepeat,
    DiskScan,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OlapScan,
        Workload::DashboardRepeat,
        Workload::DiskScan,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapScan => "olap_scan",
            Workload::DashboardRepeat => "dashboard_repeat",
            Workload::DiskScan => "disk_scan",
        }
    }

    /// Sizes at `scale` (1.0 is the benchmark; the smoke test runs tiny).
    pub fn shape(self, scale: f64) -> Shape {
        let rows = |n: f64| ((n * scale) as usize).max(300);
        match self {
            Workload::OlapScan => Shape {
                rows: rows(100_000.0),
                clients: 1,
                ingest_every: 10,
                ingest_table: "Payments",
                paged: false,
            },
            Workload::DashboardRepeat => Shape {
                rows: rows(100_000.0),
                clients: 2,
                ingest_every: 8,
                ingest_table: "Sales",
                paged: false,
            },
            Workload::DiskScan => Shape {
                rows: rows(150_000.0),
                clients: 1,
                ingest_every: 12,
                ingest_table: "Sales",
                paged: true,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rows per generated table (`Sales` and `Payments`, as `mdjd --rows`).
    pub rows: usize,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Client 0 sends an ingest batch as every `ingest_every`-th request.
    pub ingest_every: usize,
    pub ingest_table: &'static str,
    /// Serve `Sales` and `Payments` from a page store, as `mdjd --data`.
    pub paged: bool,
}

/// SplitMix64: a small seeded generator for request parameters.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A conjunctive `WHERE` predicate over `Sales`.
#[derive(Debug, Clone, Default)]
pub struct Pred {
    pub year: Option<i64>,
    pub months: Option<(i64, i64)>,
    pub state: Option<&'static str>,
    pub day_max: Option<i64>,
}

impl Pred {
    fn sql_where(&self) -> String {
        let mut clauses = Vec::new();
        if let Some(y) = self.year {
            clauses.push(format!("year = {y}"));
        }
        match self.months {
            Some((a, b)) if a == b => clauses.push(format!("month = {a}")),
            Some((a, b)) => clauses.push(format!("month between {a} and {b}")),
            None => {}
        }
        if let Some(s) = self.state {
            clauses.push(format!("state = '{s}'"));
        }
        if let Some(d) = self.day_max {
            clauses.push(format!("day <= {d}"));
        }
        if clauses.is_empty() {
            String::new()
        } else {
            format!(" where {}", clauses.join(" and "))
        }
    }

    pub fn admits(&self, row: &Row) -> bool {
        let int = |i: usize| row[i].as_int().expect("Sales integer column");
        self.year.is_none_or(|y| int(YEAR) == y)
            && self
                .months
                .is_none_or(|(a, b)| (a..=b).contains(&int(MONTH)))
            && self.state.is_none_or(|s| row[STATE] == Value::str(s))
            && self.day_max.is_none_or(|d| int(DAY) <= d)
    }
}

/// The query shapes of the paper the scripts draw from.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Algorithm 3.1 group-by (`keys` empty: one global group) with
    /// `sum(sale), count(*), max(sale)`.
    Grouped(Vec<&'static str>),
    /// `ANALYZE BY cube(prod, state)` with `sum(sale), count(*)`.
    Cube,
    /// Two grouping variables over `cust` (Theorem 4.3's fused MD-join).
    Emf2 { x: &'static str, y: &'static str },
    /// Example 2.5: non-equi θ over neighbouring months' averages.
    Ex25,
}

#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    pub pred: Pred,
    pub sql: String,
}

impl Query {
    pub fn new(kind: Kind, pred: Pred) -> Query {
        let w = pred.sql_where();
        let sql = match &kind {
            Kind::Grouped(keys) if keys.is_empty() => {
                format!("select sum(sale), count(*), max(sale) from Sales{w}")
            }
            Kind::Grouped(keys) => {
                let k = keys.join(", ");
                format!("select {k}, sum(sale), count(*), max(sale) from Sales{w} group by {k}")
            }
            Kind::Cube => format!(
                "select prod, state, sum(sale), count(*) from Sales{w} analyze by cube(prod, state)"
            ),
            Kind::Emf2 { x, y } => format!(
                "select cust, avg(X.sale), avg(Y.sale) from Sales{w} group by cust ; X, Y \
                 such that X.cust = cust and X.state = '{x}', Y.cust = cust and Y.state = '{y}'"
            ),
            Kind::Ex25 => format!(
                "select prod, month, count(Z.*) as cnt from Sales{w} group by prod, month ; \
                 X, Y, Z such that X.prod = prod and X.month = month - 1, \
                 Y.prod = prod and Y.month = month + 1, Z.prod = prod and Z.month = month \
                 and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)"
            ),
        };
        Query { kind, pred, sql }
    }

    /// Leading output columns that identify a row.
    pub fn key_cols(&self) -> usize {
        match &self.kind {
            Kind::Grouped(keys) => keys.len(),
            Kind::Cube | Kind::Ex25 => 2,
            Kind::Emf2 { .. } => 1,
        }
    }

    /// Whether the answer depends on ingested `Sales` rows only through a
    /// distributive fold (so the checker can follow ingest).
    pub fn is_grouped(&self) -> bool {
        matches!(self.kind, Kind::Grouped(_))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query(usize),
    Ingest,
}

/// Every request a run can send: the query table, the warm-up queries, and
/// one op sequence per client.
pub struct Script {
    pub queries: Vec<Query>,
    pub warmup: Vec<usize>,
    pub clients: Vec<Vec<Op>>,
    /// Dashboard panels are sent as prepared statements (`execute`).
    pub prepared: bool,
}

/// A template's parameter domain, shuffled once and drawn without
/// replacement, so requests stay distinct until the domain runs out.
struct Domain {
    preds: Vec<(Kind, Pred)>,
    next: usize,
}

impl Domain {
    fn new(rng: &mut Rng, mut preds: Vec<(Kind, Pred)>) -> Domain {
        rng.shuffle(&mut preds);
        Domain { preds, next: 0 }
    }

    fn draw(&mut self) -> Query {
        let (kind, pred) = self.preds[self.next % self.preds.len()].clone();
        self.next += 1;
        Query::new(kind, pred)
    }
}

fn states() -> &'static [&'static str] {
    &STATES[..STATE_COUNT]
}

fn olap_domains(rng: &mut Rng) -> Vec<(Domain, usize)> {
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    let mut t3 = Vec::new();
    let mut t4 = Vec::new();
    let mut t5 = Vec::new();
    for y in YEARS {
        for m in 1..=12 {
            for &s in states() {
                let pred = Pred {
                    year: Some(y),
                    months: Some((m, m)),
                    state: Some(s),
                    ..Pred::default()
                };
                t1.push((Kind::Grouped(vec!["cust"]), pred));
            }
            for d in 20..=28 {
                let pred = Pred {
                    year: Some(y),
                    months: Some((m, m)),
                    day_max: Some(d),
                    ..Pred::default()
                };
                t2.push((Kind::Cube, pred));
            }
        }
        for &x in states() {
            for &yv in states() {
                if x != yv {
                    let pred = Pred {
                        year: Some(y),
                        ..Pred::default()
                    };
                    t3.push((Kind::Emf2 { x, y: yv }, pred));
                }
            }
            for d in 15..=28 {
                let pred = Pred {
                    year: Some(y),
                    state: Some(x),
                    day_max: Some(d),
                    ..Pred::default()
                };
                t4.push((Kind::Ex25, pred));
            }
        }
    }
    for a in 1..=12 {
        for b in a..=12 {
            for &s in states() {
                let pred = Pred {
                    months: Some((a, b)),
                    state: Some(s),
                    ..Pred::default()
                };
                t5.push((Kind::Grouped(vec![]), pred));
            }
        }
    }
    // (domain, queries per cycle of 12)
    vec![
        (Domain::new(rng, t1), 3),
        (Domain::new(rng, t2), 2),
        (Domain::new(rng, t3), 2),
        (Domain::new(rng, t4), 2),
        (Domain::new(rng, t5), 3),
    ]
}

fn disk_domains(rng: &mut Rng) -> Vec<(Domain, usize)> {
    let mut range = Vec::new();
    let mut full = Vec::new();
    for y in YEARS {
        for &s in states() {
            for m in 1..=12 {
                for w in 0..=1 {
                    if m + w <= 12 {
                        let pred = Pred {
                            year: Some(y),
                            months: Some((m, m + w)),
                            state: Some(s),
                            ..Pred::default()
                        };
                        range.push((Kind::Grouped(vec!["cust"]), pred));
                    }
                }
            }
            for d in 20..=28 {
                let pred = Pred {
                    year: Some(y),
                    state: Some(s),
                    day_max: Some(d),
                    ..Pred::default()
                };
                full.push((Kind::Grouped(vec!["prod"]), pred));
            }
        }
    }
    // Five month-range queries (pruned to a few pages) per full scan.
    vec![(Domain::new(rng, range), 5), (Domain::new(rng, full), 1)]
}

/// Draw queries so that every cycle of `Σ weights` queries holds each
/// template exactly `weight` times, in a seeded order: the mix, and with it
/// the run's cost, does not drift with the seed.
struct Mix {
    domains: Vec<Domain>,
    cycle: Vec<usize>,
    next: usize,
}

impl Mix {
    fn new(weighted: Vec<(Domain, usize)>) -> Mix {
        let mut cycle = Vec::new();
        let mut domains = Vec::new();
        for (i, (d, w)) in weighted.into_iter().enumerate() {
            cycle.extend(std::iter::repeat_n(i, w));
            domains.push(d);
        }
        Mix {
            domains,
            cycle,
            next: 0,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> Query {
        if self.next.is_multiple_of(self.cycle.len()) {
            rng.shuffle(&mut self.cycle);
        }
        let d = self.cycle[self.next % self.cycle.len()];
        self.next += 1;
        self.domains[d].draw()
    }
}

/// Build the script for `workload`: `ops` requests per client.
pub fn script(workload: Workload, seed: u64, ops: usize, shape: &Shape) -> Script {
    let mut rng = Rng::new(seed ^ 0x5C21_9A0B_D3E4_F607);
    let ingest_at =
        |client: usize, i: usize| client == 0 && i.is_multiple_of(shape.ingest_every) && i > 0;
    let mut queries = Vec::new();
    let mut clients = Vec::new();
    let warmup;
    match workload {
        Workload::DashboardRepeat => {
            // Finest panel first, so a warm cache could answer the coarser
            // two by Theorem 4.5 roll-up.
            for keys in [vec!["cust", "prod"], vec!["cust"], vec!["prod"]] {
                queries.push(Query::new(Kind::Grouped(keys), Pred::default()));
            }
            warmup = vec![0, 1, 2];
            for c in 0..shape.clients {
                // Each panel once per cycle of three, in a seeded order.
                let mut cycle = [0, 1, 2];
                let mut next = 0;
                let ops = (0..ops)
                    .map(|i| {
                        if ingest_at(c, i) {
                            return Op::Ingest;
                        }
                        let slot = next % cycle.len();
                        if slot == 0 {
                            rng.shuffle(&mut cycle);
                        }
                        next += 1;
                        Op::Query(cycle[slot])
                    })
                    .collect();
                clients.push(ops);
            }
        }
        Workload::OlapScan | Workload::DiskScan => {
            let mut mix = Mix::new(if workload == Workload::OlapScan {
                olap_domains(&mut rng)
            } else {
                disk_domains(&mut rng)
            });
            warmup = (0..mix.domains.len()).collect();
            for d in mix.domains.iter_mut() {
                queries.push(d.draw());
            }
            for c in 0..shape.clients {
                let mut seq = Vec::with_capacity(ops);
                for i in 0..ops {
                    if ingest_at(c, i) {
                        seq.push(Op::Ingest);
                    } else {
                        seq.push(Op::Query(queries.len()));
                        queries.push(mix.draw(&mut rng));
                    }
                }
                clients.push(seq);
            }
        }
    }
    Script {
        queries,
        warmup,
        clients,
        prepared: workload == Workload::DashboardRepeat,
    }
}

/// `Sales` and `Payments` for `seed`, `rows` each.
pub fn tables(seed: u64, rows: usize) -> (Relation, Relation) {
    let sales = mdj_datagen::sales(&SalesConfig::default().with_rows(rows).with_seed(seed));
    let payments = mdj_datagen::payments(
        &PaymentsConfig::default()
            .with_rows(rows)
            .with_seed(seed.wrapping_add(1)),
    );
    (sales, payments)
}

/// `count` ingest batches for `table`, drawn from the same generator as the
/// table under a derived seed.
pub fn batches(seed: u64, table: &str, count: usize) -> Vec<Vec<Row>> {
    let rows = count * BATCH_ROWS;
    let seed = seed.wrapping_mul(31).wrapping_add(7);
    let rel = if table == "Sales" {
        mdj_datagen::sales(&SalesConfig::default().with_rows(rows).with_seed(seed))
    } else {
        mdj_datagen::payments(&PaymentsConfig::default().with_rows(rows).with_seed(seed))
    };
    rel.rows().chunks(BATCH_ROWS).map(<[Row]>::to_vec).collect()
}
