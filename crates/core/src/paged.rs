//! Disk-resident MD-join execution over the paged table store.
//!
//! [`PagedScan`] turns a [`PagedTable`] + [`BufferPool`] pair into a detail
//! source the evaluators can consume, and [`paged_md_join`] maps every
//! [`ExecStrategy`] onto it:
//!
//! * **Theorem 4.2 as page pruning** — θ's detail-only conjuncts on the
//!   clustered key become [`KeyBounds`] ([`key_bounds_from_theta`]), and
//!   because pages are sealed in clustered-key order with min/max keys in
//!   the manifest, the prefilter is answered *before any I/O*: pages whose
//!   key range cannot satisfy θ are never read. Observation 4.1's clustered
//!   index scan is exactly the surviving contiguous page range.
//! * **Serial** ([`paged_serial`]) — Algorithm 3.1 streaming one pinned page
//!   at a time: memory is one page plus aggregate state, never the table.
//! * **Vectorized** ([`paged_vectorized`]) — each page decodes straight into
//!   a [`ColumnarChunk`] (the page is the batch) and replays the existing
//!   [`BatchProbe`] machinery; output is row-identical to serial.
//! * **Morsel** ([`paged_morsel`]) — a morsel is a *pinned page run*:
//!   workers claim runs of consecutive admitted pages sized to
//!   `ctx.morsel_size` rows from a shared counter, keep full-`B` partial
//!   states per run, and the runs merge back in run order, so the result is
//!   deterministic regardless of which worker processed which run.
//! * Strategies that split `B` rather than the detail stream
//!   (`MorselBase`, `ChunkBase`, `ChunkDetail`, `Partitioned`) materialize
//!   the admitted pages once through the pool and delegate to the in-memory
//!   executor — the page store feeds them, the plan shape is unchanged.
//! * **Auto** prices the choice with the same coverage rule as the
//!   in-memory planner plus the paged I/O terms in [`crate::cost`].
//!
//! All paths record `pages_read` / `bytes_read` / `pool_evictions` through
//! [`ScanStats`](mdj_storage::ScanStats), so `EXPLAIN ANALYZE` shows the
//! Theorem 4.2 pushdown cutting physical I/O.

use crate::builder::{ExecStrategy, MdJoin};
use crate::context::{ExecContext, CANCEL_CHECK_INTERVAL};
use crate::error::{CoreError, Result};
use crate::governor::{self, panic_message, GrowthMeter, MemCharge, MemoryPool};
use crate::mdjoin::{bind_aggs, check_no_duplicates, metered_flags, BoundAgg};
use crate::probe::ProbePlan;
use crate::vectorized::{batch_coverage, BatchProbe};
use mdj_agg::{AggSpec, AggState};
use mdj_expr::analysis::{conjuncts, extract_range};
use mdj_expr::{Expr, Side};
use mdj_storage::{
    BufferPool, ColumnarChunk, KeyBounds, PagedTable, PinnedPage, PoolChargeFailed, PoolChargeHook,
    Relation, Row, Schema, Value, WorkerStats,
};
use std::any::Any;
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Bridges the storage crate's [`PoolChargeHook`] to the engine's shared
/// [`MemoryPool`]: every byte a [`BufferPool`] holds resident is reserved
/// from the same admission-control pool queries draw their budgets from, so
/// cached pages and query state compete for one limit instead of two.
#[derive(Debug)]
pub struct PoolChargeAdapter {
    pool: Arc<MemoryPool>,
}

impl PoolChargeAdapter {
    pub fn new(pool: Arc<MemoryPool>) -> Arc<Self> {
        Arc::new(PoolChargeAdapter { pool })
    }

    /// A buffer pool of `budget` bytes whose residency is charged to `mem`.
    pub fn hooked_pool(mem: Arc<MemoryPool>, budget: u64) -> Arc<BufferPool> {
        BufferPool::with_charge_hook(budget, Some(Self::new(mem)))
    }
}

impl PoolChargeHook for PoolChargeAdapter {
    fn reserve(&self, bytes: u64) -> std::result::Result<Box<dyn Any + Send>, PoolChargeFailed> {
        match self.pool.try_reserve(bytes) {
            Ok(grant) => Ok(Box::new(grant)),
            Err(CoreError::PoolExhausted {
                needed,
                available,
                capacity,
            }) => Err(PoolChargeFailed {
                needed,
                available,
                capacity,
            }),
            // try_reserve only fails with PoolExhausted today; map anything
            // new conservatively rather than panicking in the storage layer.
            Err(_) => Err(PoolChargeFailed {
                needed: bytes,
                available: self.pool.available(),
                capacity: self.pool.capacity(),
            }),
        }
    }
}

/// The Theorem 4.2 prefilter, restricted to what the clustered index can
/// answer: the tightest bounds on `key` implied by θ's *detail-only*
/// conjuncts (`R.key (op) literal` and mirrored forms). Conjuncts that
/// mention `B` depend on the base row and cannot prune pages; everything
/// else θ checks is still evaluated per tuple, so the bounds are a sound
/// superset filter, never a replacement for θ.
pub fn key_bounds_from_theta(theta: &Expr, key: &str) -> KeyBounds {
    let detail_only: Vec<Expr> = conjuncts(theta)
        .into_iter()
        .filter(|c| !c.uses_side(Side::Base))
        .collect();
    let (range, _rest) = extract_range(&detail_only, key);
    let mut kb = KeyBounds::default();
    if let Some(r) = range {
        match r.lower {
            Bound::Included(v) => kb.and_lo(v, true),
            Bound::Excluded(v) => kb.and_lo(v, false),
            Bound::Unbounded => {}
        }
        match r.upper {
            Bound::Included(v) => kb.and_hi(v, true),
            Bound::Excluded(v) => kb.and_hi(v, false),
            Bound::Unbounded => {}
        }
    }
    kb
}

/// A disk-resident detail source: one paged table read through a buffer
/// pool, optionally restricted to a clustered-key range.
#[derive(Debug, Clone)]
pub struct PagedScan {
    table: Arc<PagedTable>,
    pool: Arc<BufferPool>,
    bounds: KeyBounds,
}

impl PagedScan {
    /// A full-table scan of `table` through `pool`.
    pub fn new(table: Arc<PagedTable>, pool: Arc<BufferPool>) -> Self {
        PagedScan {
            table,
            pool,
            bounds: KeyBounds::default(),
        }
    }

    /// Restrict the scan to an explicit clustered-key range.
    pub fn with_bounds(mut self, bounds: KeyBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Tighten the scan with the key range θ implies (Theorem 4.2 pushdown).
    pub fn prefiltered(mut self, theta: &Expr) -> Self {
        let extra = key_bounds_from_theta(theta, self.table.key_name());
        if let Some((v, incl)) = extra.lo {
            self.bounds.and_lo(v, incl);
        }
        if let Some((v, incl)) = extra.hi {
            self.bounds.and_hi(v, incl);
        }
        self
    }

    pub fn table(&self) -> &Arc<PagedTable> {
        &self.table
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn bounds(&self) -> &KeyBounds {
        &self.bounds
    }

    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Pages admitted by the bounds, in clustered order. Answered from the
    /// manifest's per-page min/max keys — zero I/O.
    pub fn admitted_pages(&self) -> Vec<usize> {
        self.table.pruned_pages(&self.bounds)
    }

    /// Total rows across the admitted pages (manifest metadata, zero I/O).
    pub fn admitted_rows(&self) -> u64 {
        self.admitted_pages()
            .iter()
            .filter_map(|&p| self.table.page_meta(p).ok())
            .map(|m| m.rows as u64)
            .sum()
    }

    /// Pin one page through the pool, recording I/O to the context's stats.
    pub fn fetch(&self, page_no: usize, ctx: &ExecContext) -> Result<PinnedPage> {
        self.pool
            .fetch(&self.table, page_no, ctx.stats().map(|s| s.as_ref()))
            .map_err(CoreError::from)
    }

    /// Read the admitted pages into an in-memory [`Relation`] (clustered
    /// order), each page fetched — and cached — through the pool. Records
    /// one scan of the admitted rows.
    pub fn materialize(&self, ctx: &ExecContext) -> Result<Relation> {
        let mut rows = Vec::new();
        for pno in self.admitted_pages() {
            ctx.check_interrupt()?;
            let page = self.fetch(pno, ctx)?;
            rows.extend(page.iter().cloned());
        }
        ctx.record_scan(rows.len() as u64);
        Ok(Relation::from_rows(self.table.schema().clone(), rows))
    }
}

/// Evaluate `MD(B, scan, l, θ)` with `strategy` over the paged detail
/// source. Every strategy produces output bit-identical to the in-memory
/// evaluator over [`PagedScan::materialize`]'s relation; see the module docs
/// for how each strategy maps onto pages.
pub fn paged_md_join(
    b: &Relation,
    scan: &PagedScan,
    l: &[AggSpec],
    theta: &Expr,
    strategy: ExecStrategy,
    threads: Option<usize>,
    ctx: &ExecContext,
) -> Result<Relation> {
    let scan = scan.clone().prefiltered(theta);
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    match strategy {
        ExecStrategy::Serial => paged_serial(b, &scan, l, theta, ctx),
        ExecStrategy::Vectorized => paged_vectorized(b, &scan, l, theta, ctx),
        ExecStrategy::Morsel | ExecStrategy::MorselDetail => {
            paged_morsel(b, &scan, l, theta, threads, ctx)
        }
        ExecStrategy::Partitioned { .. }
        | ExecStrategy::ChunkBase
        | ExecStrategy::ChunkDetail
        | ExecStrategy::MorselBase => {
            // These plans split B (or re-scan R per fragment): feed them the
            // admitted pages once, then run the unchanged in-memory plan.
            let r = scan.materialize(ctx)?;
            MdJoin::new(b, &r)
                .theta(theta.clone())
                .aggs(l)
                .strategy(strategy)
                .threads(threads)
                .run(ctx)
        }
        ExecStrategy::Auto => {
            let coverage = batch_coverage(b, theta, l, ctx);
            let vectorized = coverage.choose_vectorized();
            ctx.record_auto_decision(coverage.permille(), vectorized);
            let rows = scan.admitted_rows() as usize;
            if threads > 1 && rows > ctx.morsel_size() {
                paged_morsel(b, &scan, l, theta, threads, ctx)
            } else if vectorized {
                paged_vectorized(b, &scan, l, theta, ctx)
            } else {
                paged_serial(b, &scan, l, theta, ctx)
            }
        }
    }
}

type States = Vec<Vec<Box<dyn AggState>>>;

fn init_states(b: &Relation, bound: &[BoundAgg]) -> States {
    b.iter()
        .map(|_| bound.iter().map(|ba| ba.agg.init()).collect())
        .collect()
}

fn finalize(b: &Relation, bound: &[BoundAgg], states: States) -> Relation {
    let mut fields = b.schema().fields().to_vec();
    fields.extend(bound.iter().map(|ba| ba.output.clone()));
    let mut out = Relation::empty(Schema::new(fields));
    for (row, row_states) in b.iter().zip(states) {
        let mut vals = row.values().to_vec();
        vals.extend(row_states.iter().map(|s| s.finalize()));
        out.push_unchecked(Row::new(vals));
    }
    out
}

/// Algorithm 3.1 streaming the admitted pages one pinned page at a time.
/// Peak memory is one page plus aggregate state — the table itself is never
/// resident beyond what the pool caches.
pub(crate) fn paged_serial(
    b: &Relation,
    scan: &PagedScan,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> Result<Relation> {
    ctx.check_interrupt()?;
    let r_schema = scan.table().schema();
    let bound = bind_aggs(l, r_schema, ctx.registry())?;
    check_no_duplicates(b.schema(), &bound)?;
    let _state_charge = MemCharge::try_new(ctx, governor::state_bytes(b.len(), bound.len()))?;
    let (plan, _index_charge) = ProbePlan::build_charged(b, r_schema, theta, ctx)?;
    let mut states = init_states(b, &bound);
    let mut meter = GrowthMeter::new(ctx);
    let metered = metered_flags(&bound, &meter);

    let pages = scan.admitted_pages();
    ctx.record_scan(scan.admitted_rows());
    let mut matches: Vec<usize> = Vec::new();
    let mut key_scratch: Vec<Value> = Vec::new();
    let mut ti = 0usize;
    for &pno in &pages {
        let page = scan.fetch(pno, ctx)?;
        for t in page.iter() {
            if ti.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                ctx.check_interrupt()?;
            }
            ti += 1;
            plan.matches(b, t.values(), ctx, &mut matches, &mut key_scratch)?;
            if matches.is_empty() {
                continue;
            }
            ctx.record_updates((matches.len() * bound.len()) as u64);
            for &bi in &matches {
                let row_states = &mut states[bi];
                for (j, ba) in bound.iter().enumerate() {
                    let v = match ba.input_col {
                        Some(c) => &t[c],
                        None => &Value::Null,
                    };
                    if metered[j] {
                        let before = row_states[j].heap_bytes();
                        row_states[j].update(v)?;
                        meter.charge(row_states[j].heap_bytes().saturating_sub(before))?;
                    } else {
                        row_states[j].update(v)?;
                    }
                }
            }
        }
    }
    Ok(finalize(b, &bound, states))
}

/// Vectorized paged execution: each pinned page decodes straight into a
/// [`ColumnarChunk`] (the page is the batch) and replays the shared
/// [`BatchProbe`]. Updates are applied in tuple order within each page and
/// pages stream in clustered order, so output is row-identical to
/// [`paged_serial`] — including `f64` accumulation order.
pub(crate) fn paged_vectorized(
    b: &Relation,
    scan: &PagedScan,
    l: &[AggSpec],
    theta: &Expr,
    ctx: &ExecContext,
) -> Result<Relation> {
    ctx.check_interrupt()?;
    let r_schema = scan.table().schema();
    let bound = bind_aggs(l, r_schema, ctx.registry())?;
    check_no_duplicates(b.schema(), &bound)?;
    let _state_charge = MemCharge::try_new(ctx, governor::state_bytes(b.len(), bound.len()))?;
    let (plan, _index_charge) = ProbePlan::build_charged(b, r_schema, theta, ctx)?;
    let bp = BatchProbe::new(&plan, b);
    let mut needed = vec![false; r_schema.fields().len()];
    bp.collect_needed(&mut needed);
    let mut states = init_states(b, &bound);
    let mut meter = GrowthMeter::new(ctx);
    let metered = metered_flags(&bound, &meter);

    let pages = scan.admitted_pages();
    ctx.record_scan(scan.admitted_rows());
    let mut bpairs: Vec<(u32, usize)> = Vec::new();
    for &pno in &pages {
        ctx.check_interrupt()?;
        let page = scan.fetch(pno, ctx)?;
        let rows: &[Row] = &page;
        if rows.is_empty() {
            continue;
        }
        let chunk = ColumnarChunk::from_rows(rows, 0, rows.len(), &needed);
        bpairs.clear();
        let fell_back = bp.matches_batch(&chunk, rows, ctx, &mut bpairs)?;
        ctx.record_batch();
        if fell_back {
            ctx.record_batch_fallback();
        }
        ctx.record_updates((bpairs.len() * bound.len()) as u64);
        for &(i, row_id) in &bpairs {
            let t = &rows[i as usize];
            let row_states = &mut states[row_id];
            for (j, ba) in bound.iter().enumerate() {
                let v = match ba.input_col {
                    Some(c) => &t[c],
                    None => &Value::Null,
                };
                if metered[j] {
                    let before = row_states[j].heap_bytes();
                    row_states[j].update(v)?;
                    meter.charge(row_states[j].heap_bytes().saturating_sub(before))?;
                } else {
                    row_states[j].update(v)?;
                }
            }
        }
    }
    Ok(finalize(b, &bound, states))
}

/// Cut the admitted pages into runs of consecutive pages totalling at least
/// `morsel_rows` rows (always ≥ 1 page per run).
fn page_runs(scan: &PagedScan, pages: &[usize], morsel_rows: usize) -> Vec<Vec<usize>> {
    let mut runs: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut rows = 0usize;
    for &pno in pages {
        let n = scan
            .table()
            .page_meta(pno)
            .map(|m| m.rows as usize)
            .unwrap_or(0);
        cur.push(pno);
        rows += n;
        if rows >= morsel_rows.max(1) {
            runs.push(std::mem::take(&mut cur));
            rows = 0;
        }
    }
    if !cur.is_empty() {
        runs.push(cur);
    }
    runs
}

/// Morsel-parallel paged execution. A morsel is a *pinned page run*: workers
/// claim runs of consecutive admitted pages from a shared counter, evaluate
/// each run against full-`B` partial states, and deposit the run's states
/// under its run index. The deposits merge in run order — i.e. page order —
/// so the merged result is deterministic and identical to [`paged_serial`]
/// whenever each aggregate's merge is exact (every built-in is; `f64` sums
/// are exact for the dyadic inputs the differential suite uses).
pub(crate) fn paged_morsel(
    b: &Relation,
    scan: &PagedScan,
    l: &[AggSpec],
    theta: &Expr,
    threads: usize,
    ctx: &ExecContext,
) -> Result<Relation> {
    if threads == 0 {
        return Err(CoreError::BadConfig("thread count must be ≥ 1".into()));
    }
    ctx.check_interrupt()?;
    let r_schema = scan.table().schema();
    let bound = bind_aggs(l, r_schema, ctx.registry())?;
    check_no_duplicates(b.schema(), &bound)?;
    let (plan, _index_charge) = ProbePlan::build_charged(b, r_schema, theta, ctx)?;

    let pages = scan.admitted_pages();
    let runs = page_runs(scan, &pages, ctx.morsel_size());
    ctx.record_scan(scan.admitted_rows());
    if runs.is_empty() {
        return Ok(finalize(b, &bound, init_states(b, &bound)));
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, States)>> = Mutex::new(Vec::with_capacity(runs.len()));
    let bound_ref = &bound;
    let plan_ref = &plan;
    let runs_ref = &runs;

    let worker = |me: usize| -> Result<()> {
        // Each worker holds full-B state for the run it is computing.
        let _state_charge =
            MemCharge::try_new(ctx, governor::state_bytes(b.len(), bound_ref.len()))?;
        let mut ws = WorkerStats::new(me);
        let mut meter = GrowthMeter::new(ctx);
        let metered = metered_flags(bound_ref, &meter);
        let mut matches: Vec<usize> = Vec::new();
        let mut key_scratch: Vec<Value> = Vec::new();
        loop {
            let run_idx = next.fetch_add(1, Ordering::Relaxed);
            if run_idx >= runs_ref.len() {
                break;
            }
            ctx.check_interrupt()?;
            ws.morsels += 1;
            let mut states = init_states(b, bound_ref);
            for &pno in &runs_ref[run_idx] {
                let page = scan.fetch(pno, ctx)?;
                ws.tuples += page.len() as u64;
                for t in page.iter() {
                    plan_ref.matches(b, t.values(), ctx, &mut matches, &mut key_scratch)?;
                    if matches.is_empty() {
                        continue;
                    }
                    let n = (matches.len() * bound_ref.len()) as u64;
                    ctx.record_updates(n);
                    ws.updates += n;
                    for &bi in &matches {
                        let row_states = &mut states[bi];
                        for (j, ba) in bound_ref.iter().enumerate() {
                            let v = match ba.input_col {
                                Some(c) => &t[c],
                                None => &Value::Null,
                            };
                            if metered[j] {
                                let before = row_states[j].heap_bytes();
                                row_states[j].update(v)?;
                                meter.charge(row_states[j].heap_bytes().saturating_sub(before))?;
                            } else {
                                row_states[j].update(v)?;
                            }
                        }
                    }
                }
            }
            slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((run_idx, states));
        }
        ctx.record_worker(ws);
        Ok(())
    };

    let workers = threads.min(runs.len());
    let results: Vec<Result<()>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let worker = &worker;
                scope.spawn(move |_| worker(me))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(worker, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(CoreError::WorkerPanicked {
                        worker,
                        message: panic_message(payload.as_ref()),
                    })
                })
            })
            .collect()
    })
    .map_err(|payload| {
        CoreError::Internal(format!(
            "crossbeam scope failed: {}",
            panic_message(payload.as_ref())
        ))
    })?;
    results.into_iter().collect::<Result<Vec<()>>>()?;

    let mut deposits = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    deposits.sort_by_key(|(run_idx, _)| *run_idx);
    let mut it = deposits.into_iter();
    let (_, mut total) = it
        .next()
        .ok_or_else(|| CoreError::Internal("paged morsel run produced no state sets".into()))?;
    for (_, states) in it {
        for (row_states, other_states) in total.iter_mut().zip(states) {
            for (s, o) in row_states.iter_mut().zip(other_states) {
                s.merge(o.as_ref())?;
            }
        }
    }
    Ok(finalize(b, &bound, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, PagedStore, ScanStats};
    use std::sync::atomic::AtomicU64;

    fn sales(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("cust", DataType::Int),
            ("sale", DataType::Float),
        ]);
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    Row::from_values(vec![
                        Value::Int(i % 37),
                        Value::Int(i % 7),
                        // Dyadic: every partial-sum order is bit-exact.
                        Value::Float(i as f64 * 0.5),
                    ])
                })
                .collect(),
        )
    }

    fn store_with(rel: &Relation, page_bytes: u64) -> (tempdir::Dir, PagedScan) {
        let dir = tempdir::Dir::new("mdj-core-paged");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", rel, "k", page_bytes).unwrap();
        let pool = BufferPool::new(64 * 1024);
        (dir, PagedScan::new(table, pool))
    }

    /// Minimal tempdir (no external crates): unique path under the target
    /// tmpdir, removed on drop.
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT: AtomicU64 = AtomicU64::new(0);

        pub struct Dir(PathBuf);

        impl Dir {
            pub fn new(prefix: &str) -> Dir {
                let n = NEXT.fetch_add(1, Ordering::Relaxed);
                let path =
                    std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&path).unwrap();
                Dir(path)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn key_bounds_extraction_covers_shapes_and_sides() {
        // Detail-only range on the key, both orientations.
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            and(ge(col_r("k"), lit(5i64)), gt(lit(20i64), col_r("k"))),
        );
        let kb = key_bounds_from_theta(&theta, "k");
        assert_eq!(kb.lo, Some((Value::Int(5), true)));
        assert_eq!(kb.hi, Some((Value::Int(20), false)));
        // Equality pins both ends.
        let kb = key_bounds_from_theta(&eq(col_r("k"), lit(7i64)), "k");
        assert_eq!(kb.lo, Some((Value::Int(7), true)));
        assert_eq!(kb.hi, Some((Value::Int(7), true)));
        // A bound involving B cannot prune (depends on the base row).
        let kb = key_bounds_from_theta(&ge(col_r("k"), col_b("cust")), "k");
        assert!(kb.is_unbounded());
        // Ranges on non-key columns do not leak onto the key.
        let kb = key_bounds_from_theta(&ge(col_r("cust"), lit(3i64)), "k");
        assert!(kb.is_unbounded());
    }

    #[test]
    fn every_paged_strategy_is_bit_identical_to_in_memory_serial() {
        let rel = sales(400);
        let (_dir, scan) = store_with(&rel, 512);
        // The paged store re-sorts by the clustered key: the in-memory
        // reference must scan in the same order for bit-identical floats
        // (dyadic values make every order exact, but probe/update counts are
        // only comparable on the same tuple order too).
        let sorted = scan
            .materialize(&ExecContext::new())
            .expect("materialize clustered order");
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = and(
            eq(col_b("cust"), col_r("cust")),
            and(ge(col_r("k"), lit(4i64)), le(col_r("k"), lit(30i64))),
        );
        let l = [
            AggSpec::on_column("sum", "sale"),
            AggSpec::on_column("avg", "sale"),
            AggSpec::count_star(),
        ];
        let reference = MdJoin::new(&b, &sorted)
            .theta(theta.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        let strategies = [
            ExecStrategy::Auto,
            ExecStrategy::Serial,
            ExecStrategy::Partitioned { partitions: 3 },
            ExecStrategy::ChunkBase,
            ExecStrategy::ChunkDetail,
            ExecStrategy::Morsel,
            ExecStrategy::MorselBase,
            ExecStrategy::MorselDetail,
            ExecStrategy::Vectorized,
        ];
        for strategy in strategies {
            let ctx = ExecContext::new().with_morsel_size(32);
            let out = paged_md_join(&b, &scan, &l, &theta, strategy, Some(4), &ctx).unwrap();
            assert_eq!(reference.schema(), out.schema(), "{strategy:?}");
            assert_eq!(reference.len(), out.len(), "{strategy:?}");
            for (a, c) in reference.rows().iter().zip(out.rows()) {
                for (x, y) in a.values().iter().zip(c.values()) {
                    match (x, y) {
                        (Value::Float(f), Value::Float(g)) => {
                            assert_eq!(f.to_bits(), g.to_bits(), "{strategy:?}");
                        }
                        _ => assert_eq!(x, y, "{strategy:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn theorem_4_2_pushdown_cuts_pages_read() {
        let rel = sales(600);
        let (_dir, scan) = store_with(&rel, 256);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let l = [AggSpec::on_column("sum", "sale")];
        let run = |theta: &Expr| {
            let stats = Arc::new(ScanStats::new());
            let ctx = ExecContext::new().with_stats(stats.clone());
            scan.pool().clear();
            paged_md_join(&b, &scan, &l, theta, ExecStrategy::Serial, Some(1), &ctx).unwrap();
            (stats.pages_read(), stats.bytes_read())
        };
        let full = eq(col_b("cust"), col_r("cust"));
        let pruned = and(
            eq(col_b("cust"), col_r("cust")),
            and(ge(col_r("k"), lit(10i64)), le(col_r("k"), lit(12i64))),
        );
        let (full_pages, full_bytes) = run(&full);
        let (pruned_pages, pruned_bytes) = run(&pruned);
        assert!(full_pages > 0 && full_bytes > 0);
        assert!(
            pruned_pages < full_pages,
            "pushdown must cut pages: {pruned_pages} vs {full_pages}"
        );
        assert!(pruned_bytes < full_bytes);
        // Pruning is sound: the pruned run equals filtering in memory.
        let sorted = scan.materialize(&ExecContext::new()).unwrap();
        let reference = MdJoin::new(&b, &sorted)
            .theta(pruned.clone())
            .aggs(&l)
            .strategy(ExecStrategy::Serial)
            .run(&ExecContext::new())
            .unwrap();
        let out = paged_md_join(
            &b,
            &scan,
            &l,
            &pruned,
            ExecStrategy::Serial,
            Some(1),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(reference.rows(), out.rows());
    }

    #[test]
    fn pool_charge_adapter_reserves_and_releases_engine_memory() {
        let mem = Arc::new(MemoryPool::new(16 * 1024));
        let hook = PoolChargeAdapter::new(Arc::clone(&mem));
        let grant = hook.reserve(4096).expect("reserve within capacity");
        assert_eq!(mem.reserved(), 4096);
        drop(grant);
        assert_eq!(mem.reserved(), 0);
        // Starvation surfaces typed, with real numbers.
        let _held = hook.reserve(12 * 1024).unwrap();
        let err = hook.reserve(8 * 1024).unwrap_err();
        assert_eq!(err.needed, 8 * 1024);
        assert_eq!(err.capacity, 16 * 1024);
        assert_eq!(err.available, 4 * 1024);
    }

    #[test]
    fn hooked_buffer_pool_charges_resident_pages_to_the_engine_pool() {
        let rel = sales(300);
        let dir = tempdir::Dir::new("mdj-core-paged-hooked");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", &rel, "k", 512).unwrap();
        let mem = Arc::new(MemoryPool::new(1024 * 1024));
        let pool = PoolChargeAdapter::hooked_pool(Arc::clone(&mem), 64 * 1024);
        let scan = PagedScan::new(table, pool);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::count_star()];
        paged_md_join(
            &b,
            &scan,
            &l,
            &theta,
            ExecStrategy::Serial,
            Some(1),
            &ExecContext::new(),
        )
        .unwrap();
        assert!(
            mem.reserved() > 0,
            "cached pages must hold engine-pool reservations"
        );
        scan.pool().clear();
        assert_eq!(mem.reserved(), 0, "clearing the pool releases every grant");
    }

    #[test]
    fn paged_morsel_reports_workers_and_uses_page_runs() {
        let rel = sales(1000);
        let (_dir, scan) = store_with(&rel, 256);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("sum", "sale")];
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        paged_md_join(&b, &scan, &l, &theta, ExecStrategy::Morsel, Some(4), &ctx).unwrap();
        let workers = stats.workers();
        assert!(!workers.is_empty() && workers.len() <= 4);
        let tuples: u64 = workers.iter().map(|w| w.tuples).sum();
        assert_eq!(tuples, 1000);
        assert_eq!(stats.scans(), 1);
        assert!(stats.pages_read() > 0);
    }

    #[test]
    fn auto_records_its_decision_and_matches_serial() {
        let rel = sales(500);
        let (_dir, scan) = store_with(&rel, 512);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let theta = eq(col_b("cust"), col_r("cust"));
        let l = [AggSpec::on_column("sum", "sale")];
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new()
            .with_morsel_size(64)
            .with_stats(stats.clone());
        let auto = paged_md_join(&b, &scan, &l, &theta, ExecStrategy::Auto, Some(2), &ctx).unwrap();
        let serial = paged_md_join(
            &b,
            &scan,
            &l,
            &theta,
            ExecStrategy::Serial,
            Some(1),
            &ExecContext::new(),
        )
        .unwrap();
        assert_eq!(auto.rows(), serial.rows());
        assert_eq!(stats.auto_decisions(), 1);
    }

    #[test]
    fn starved_pool_surfaces_pool_exhausted_not_wrong_rows() {
        let rel = sales(400);
        let dir = tempdir::Dir::new("mdj-core-paged-starved");
        let (store, _) = PagedStore::open(dir.path()).unwrap();
        let table = store.create_table("sales", &rel, "k", 512).unwrap();
        // Budget smaller than a single frame: the first fetch must fail.
        let pool = BufferPool::new(16);
        let scan = PagedScan::new(table, pool);
        let b = rel.distinct_on(&["cust"]).unwrap();
        let err = paged_md_join(
            &b,
            &scan,
            &[AggSpec::count_star()],
            &eq(col_b("cust"), col_r("cust")),
            ExecStrategy::Serial,
            Some(1),
            &ExecContext::new(),
        );
        assert!(
            matches!(err, Err(CoreError::PoolExhausted { .. })),
            "{err:?}"
        );
    }

    // Silence an unused-import lint when the tempdir helper shadows it.
    #[allow(dead_code)]
    fn _unused(_: &AtomicU64) {}
}
