//! The answer checker: every response is compared with a reference computed
//! by a different evaluator than the one that answered it.
//!
//! * group-bys and the range count: `mdj_naive::groupby::group_by_agg`;
//! * the cube: `mdj_cube::naive::cube_per_cuboid` (one hash-probed MD-join
//!   per cuboid, where the server takes the Theorem 4.5 roll-up chain);
//! * the two-variable EMF query: naive per-state `avg` group-bys joined onto
//!   the customer list;
//! * Example 2.5: the multi-block plan `mdj_naive::plans::example_2_5`.
//!
//! References are computed once, from the table as set up (version 0).
//! After `k` ingest batches a group-by's reference is the version-0
//! accumulators folded forward over the batches' matching rows in arrival
//! order, which is also the order a serial scan of the grown table sees
//! them, so a serial answer matches to the bit.
//!
//! Integers and strings must match exactly and floats to 1e-9 relative.
//! Floats that match only within the tolerance are counted separately
//! (`float_bit_diffs`): they are reported, never failed, because the
//! morsel executor merges partial sums in scheduling order.

use crate::workload::{Kind, Query, Script, CUST, SALE, STATE, YEAR};
use mdj_agg::{AggSpec, Registry};
use mdj_server::json::{parse, Json};
use mdj_storage::{Relation, Row, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const FLOAT_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    All,
}

impl Cell {
    fn of_value(v: &Value) -> Cell {
        match v {
            Value::Null => Cell::Null,
            Value::All => Cell::All,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s.to_string()),
        }
    }

    fn of_json(j: &Json) -> Option<Cell> {
        Some(match j {
            Json::Null => Cell::Null,
            Json::Bool(b) => Cell::Bool(*b),
            Json::Int(i) => Cell::Int(*i),
            Json::Float(f) => Cell::Float(*f),
            Json::Str(s) => Cell::Str(s.clone()),
            Json::Obj(_) if j.get("all") == Some(&Json::Bool(true)) => Cell::All,
            _ => return None,
        })
    }
}

type Rows = Vec<Vec<Cell>>;

fn rows_of(rel: &Relation) -> Rows {
    rel.iter()
        .map(|r| r.values().iter().map(Cell::of_value).collect())
        .collect()
}

fn key_of(row: &[Cell], keys: usize) -> String {
    format!("{:?}", &row[..keys])
}

/// A group's `sum(sale), count(*), max(sale)` state, folded the way the
/// engine's serial aggregators fold.
#[derive(Debug, Clone, Default)]
struct Acc {
    sum: f64,
    count: i64,
    max: Option<f64>,
}

impl Acc {
    fn add(&mut self, sale: f64) {
        self.sum += sale;
        self.count += 1;
        self.max = Some(self.max.map_or(sale, |m| m.max(sale)));
    }

    fn cells(&self) -> [Cell; 3] {
        if self.count == 0 {
            [Cell::Null, Cell::Int(0), Cell::Null]
        } else {
            [
                Cell::Float(self.sum),
                Cell::Int(self.count),
                Cell::Float(self.max.expect("non-empty group has a max")),
            ]
        }
    }
}

/// Version-0 group-by state, keyed by the group's key cells.
#[derive(Debug, Clone)]
struct Groups {
    keys: Vec<usize>,
    groups: HashMap<String, (Vec<Cell>, Acc)>,
}

impl Groups {
    fn fold(&mut self, row: &Row) {
        let key: Vec<Cell> = self.keys.iter().map(|&i| Cell::of_value(&row[i])).collect();
        let sale = row[SALE].as_float().expect("sale is a float");
        self.groups
            .entry(format!("{key:?}"))
            .or_insert_with(|| (key, Acc::default()))
            .1
            .add(sale);
    }

    fn rows(&self) -> Rows {
        let mut rows: Rows = self
            .groups
            .values()
            .map(|(key, acc)| key.iter().cloned().chain(acc.cells()).collect())
            .collect();
        if rows.is_empty() && self.keys.is_empty() {
            // A global aggregate over no rows still answers one row.
            rows.push(Acc::default().cells().to_vec());
        }
        rows
    }
}

enum Reference {
    Fixed(Arc<Rows>),
    Grouped(Groups),
}

/// What the checker concluded about one response.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub ok: bool,
    pub float_bit_diffs: u64,
    pub rows: u64,
    pub tuples_scanned: u64,
    pub updates: u64,
    pub pages_read: u64,
    pub pool_evictions: u64,
    pub problem: Option<String>,
}

impl Verdict {
    pub fn failed(problem: String) -> Verdict {
        Verdict {
            problem: Some(problem),
            ..Verdict::default()
        }
    }
}

pub struct Checker {
    queries: Vec<Query>,
    refs: Vec<Reference>,
    /// `Sales` ingest batches in arrival order (empty when ingest goes to
    /// another table).
    batches: Arc<Vec<Vec<Row>>>,
    /// Expected rows per `(query, version)`, folded on first use.
    memo: Mutex<HashMap<(usize, usize), Arc<Rows>>>,
    /// Smoke-test switch: answer this query with a deliberately wrong
    /// reference.
    corrupt: Option<usize>,
}

impl Checker {
    /// Compute every query's reference from the version-0 `sales`.
    pub fn build(
        script: &Script,
        sales: &Relation,
        batches: Arc<Vec<Vec<Row>>>,
        corrupt: bool,
    ) -> Result<Checker, String> {
        let registry = Registry::standard();
        let mut by_year: HashMap<i64, Relation> = HashMap::new();
        let mut refs = Vec::with_capacity(script.queries.len());
        for q in &script.queries {
            let source = match q.pred.year {
                Some(y) => by_year
                    .entry(y)
                    .or_insert_with(|| sales.filter(|r| r[YEAR] == Value::Int(y))),
                None => sales,
            };
            let sel = source.filter(|r| q.pred.admits(r));
            refs.push(reference(q, &sel, &registry)?);
        }
        Ok(Checker {
            queries: script.queries.clone(),
            refs,
            batches,
            memo: Mutex::new(HashMap::new()),
            corrupt: corrupt.then(|| script.warmup[0]),
        })
    }

    fn expected(&self, q: usize, version: usize) -> Arc<Rows> {
        let rows = match &self.refs[q] {
            Reference::Fixed(rows) => rows.clone(),
            Reference::Grouped(base) => {
                let mut memo = self.memo.lock().expect("checker memo lock poisoned");
                // Readers trail the writer by at most a version or two; keep
                // the memo from growing with the length of the run.
                memo.retain(|&(_, v), _| v + 2 >= version);
                memo.entry((q, version))
                    .or_insert_with(|| {
                        let mut groups = base.clone();
                        for k in 0..version {
                            let batch = &self.batches[k % self.batches.len()];
                            for row in batch.iter().filter(|r| self.queries[q].pred.admits(r)) {
                                groups.fold(row);
                            }
                        }
                        Arc::new(groups.rows())
                    })
                    .clone()
            }
        };
        if self.corrupt != Some(q) {
            return rows;
        }
        let mut rows = (*rows).clone();
        match rows.first_mut().and_then(|r| r.last_mut()) {
            Some(cell) => {
                *cell = match cell {
                    Cell::Int(i) => Cell::Int(*i + 1),
                    Cell::Float(f) => Cell::Float(*f * 2.0 + 1.0),
                    _ => Cell::Int(1),
                }
            }
            None => rows.push(vec![Cell::Int(-1)]),
        }
        Arc::new(rows)
    }

    /// Check a query response that was received once per entry of
    /// `ranges`, each time while the table was somewhere between versions
    /// `lo` and `hi` (inclusive) of the ingest stream. One verdict per
    /// receipt.
    pub fn check(&self, q: usize, response: &str, ranges: &[(usize, usize)]) -> Vec<Verdict> {
        let (got, counters) = match parse_answer(response) {
            Ok(x) => x,
            Err(problem) => {
                let v = Verdict::failed(format!("query {q}: {problem}"));
                return vec![v; ranges.len()];
            }
        };
        let grouped = self.queries[q].is_grouped() && !self.batches.is_empty();
        let mut outcomes: HashMap<usize, Result<u64, String>> = HashMap::new();
        ranges
            .iter()
            .map(|&(lo, hi)| {
                let versions = if grouped { lo..=hi } else { 0..=0 };
                let mut v = counters.clone();
                let mut last = String::new();
                for version in versions {
                    let outcome = outcomes.entry(version).or_insert_with(|| {
                        compare(&self.expected(q, version), &got, self.queries[q].key_cols())
                    });
                    match outcome {
                        Ok(bit_diffs) => {
                            v.ok = true;
                            v.float_bit_diffs = *bit_diffs;
                            return v;
                        }
                        Err(problem) => last = problem.clone(),
                    }
                }
                v.problem = Some(format!("query {q} ({}): {last}", self.queries[q].sql));
                v
            })
            .collect()
    }

    /// Check a response against rows computed from scratch on the final
    /// table (the dashboard panels, which have no predicate).
    pub fn check_final(&self, q: usize, response: &str, table: &Relation) -> Verdict {
        let (got, mut v) = match parse_answer(response) {
            Ok(x) => x,
            Err(problem) => return Verdict::failed(format!("final query {q}: {problem}")),
        };
        let expected = match reference(&self.queries[q], table, &Registry::standard()) {
            Ok(Reference::Fixed(rows)) => (*rows).clone(),
            Ok(Reference::Grouped(groups)) => groups.rows(),
            Err(e) => return Verdict::failed(format!("final query {q}: reference: {e}")),
        };
        match compare(&expected, &got, self.queries[q].key_cols()) {
            Ok(bit_diffs) => {
                v.ok = true;
                v.float_bit_diffs = bit_diffs;
            }
            Err(problem) => v.problem = Some(format!("final query {q}: {problem}")),
        }
        v
    }
}

/// Check an `ingest` response for `rows` appended rows.
pub fn check_ingest(response: &str, rows: usize) -> Verdict {
    match parse(response) {
        Ok(j)
            if j.get("ok") == Some(&Json::Bool(true))
                && j.get("rows").and_then(Json::as_int) == Some(rows as i64) =>
        {
            Verdict {
                ok: true,
                ..Verdict::default()
            }
        }
        _ => Verdict::failed(format!("ingest: {}", snippet(response))),
    }
}

fn snippet(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// Decode a query response into rows plus its per-query counters.
fn parse_answer(response: &str) -> Result<(Rows, Verdict), String> {
    let json = parse(response).map_err(|e| format!("unparsable response: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error response: {}", snippet(response)));
    }
    let rows = json
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("response without rows")?
        .iter()
        .map(|r| {
            r.as_arr()
                .ok_or("row is not an array")?
                .iter()
                .map(|c| Cell::of_json(c).ok_or("cell is not a value"))
                .collect::<Result<Vec<Cell>, _>>()
        })
        .collect::<Result<Rows, _>>()?;
    let stat = |k: &str| {
        json.get("stats")
            .and_then(|s| s.get(k))
            .and_then(Json::as_int)
            .unwrap_or(0) as u64
    };
    let verdict = Verdict {
        rows: rows.len() as u64,
        tuples_scanned: stat("tuples_scanned"),
        updates: stat("updates"),
        pages_read: stat("pages_read"),
        pool_evictions: stat("pool_evictions"),
        ..Verdict::default()
    };
    Ok((rows, verdict))
}

/// Compare two answers as sets keyed by their leading `keys` cells;
/// returns the count of floats that agree only within the tolerance.
fn compare(expected: &Rows, got: &Rows, keys: usize) -> Result<u64, String> {
    if expected.len() != got.len() {
        return Err(format!("{} rows, expected {}", got.len(), expected.len()));
    }
    let want: HashMap<String, &Vec<Cell>> = expected.iter().map(|r| (key_of(r, keys), r)).collect();
    let mut seen = std::collections::HashSet::new();
    let mut bit_diffs = 0;
    for row in got {
        if row.len() < keys {
            return Err(format!("short row {row:?}"));
        }
        let key = key_of(row, keys);
        let exp = want
            .get(&key)
            .ok_or_else(|| format!("unexpected group {key}"))?;
        if !seen.insert(key.clone()) || exp.len() != row.len() {
            return Err(format!("group {key}: duplicate or wrong width"));
        }
        for (e, g) in exp.iter().zip(row) {
            match (e, g) {
                (Cell::Float(a), Cell::Float(b)) if a.to_bits() == b.to_bits() => {}
                (Cell::Float(a), Cell::Float(b))
                    if (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()) =>
                {
                    bit_diffs += 1
                }
                (e, g) if e == g && !matches!(e, Cell::Float(_)) => {}
                _ => return Err(format!("group {key}: got {g:?}, expected {e:?}")),
            }
        }
    }
    Ok(bit_diffs)
}

fn agg(function: &str) -> AggSpec {
    if function == "count" {
        AggSpec::count_star()
    } else {
        AggSpec::on_column(function, "sale")
    }
}

/// Reference answer for `q` over `sel`, the rows its predicate admits.
fn reference(q: &Query, sel: &Relation, registry: &Registry) -> Result<Reference, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match &q.kind {
        Kind::Grouped(keys) => {
            let out = mdj_naive::groupby::group_by_agg(
                sel,
                keys,
                &[agg("sum"), agg("count"), agg("max")],
                registry,
            )
            .map_err(|e| err(&e))?;
            let key_idx = sel.schema().indices_of(keys).map_err(|e| err(&e))?;
            let mut groups = Groups {
                keys: key_idx,
                groups: HashMap::new(),
            };
            for row in rows_of(&out) {
                let (key, vals) = row.split_at(keys.len());
                let acc = match vals {
                    [Cell::Float(sum), Cell::Int(count), Cell::Float(max)] => Acc {
                        sum: *sum,
                        count: *count,
                        max: Some(*max),
                    },
                    other => return Err(format!("unexpected naive aggregate row {other:?}")),
                };
                groups
                    .groups
                    .insert(format!("{key:?}"), (key.to_vec(), acc));
            }
            Reference::Grouped(groups)
        }
        Kind::Cube => {
            let spec = mdj_cube::CubeSpec::new(&["prod", "state"], vec![agg("sum"), agg("count")]);
            let out = mdj_cube::naive::cube_per_cuboid(sel, &spec, &mdj_core::ExecContext::new())
                .map_err(|e| err(&e))?;
            Reference::Fixed(Arc::new(rows_of(&out)))
        }
        Kind::Emf2 { x, y } => {
            let avg_in = |state: &str| -> Result<HashMap<i64, Cell>, String> {
                let part = sel.filter(|r| r[STATE] == Value::str(state));
                let out =
                    mdj_naive::groupby::group_by_agg(&part, &["cust"], &[agg("avg")], registry)
                        .map_err(|e| err(&e))?;
                Ok(out
                    .iter()
                    .map(|r| {
                        (
                            r[0].as_int().expect("cust is an integer"),
                            Cell::of_value(&r[1]),
                        )
                    })
                    .collect())
            };
            let (ax, ay) = (avg_in(x)?, avg_in(y)?);
            let mut seen = std::collections::HashSet::new();
            let rows = sel
                .iter()
                .filter_map(|r| {
                    let c = r[CUST].as_int().expect("cust is an integer");
                    seen.insert(c).then(|| {
                        vec![
                            Cell::Int(c),
                            ax.get(&c).cloned().unwrap_or(Cell::Null),
                            ay.get(&c).cloned().unwrap_or(Cell::Null),
                        ]
                    })
                })
                .collect();
            Reference::Fixed(Arc::new(rows))
        }
        Kind::Ex25 => {
            let year = q.pred.year.ok_or("Example 2.5 needs a year")?;
            let out = mdj_naive::plans::example_2_5(sel, year, registry).map_err(|e| err(&e))?;
            Reference::Fixed(Arc::new(rows_of(&out)))
        }
    })
}
