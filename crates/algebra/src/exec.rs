//! Plan execution.

use crate::error::{AlgebraError, Result};
use crate::plan::{BaseShape, Plan};
use mdj_core::basevalues;
use mdj_core::{Block, ExecContext, ExecStrategy, MdJoin};
use mdj_storage::{Catalog, Relation, Row};

/// Execute a logical plan against a catalog.
///
/// MD-join nodes run Algorithm 3.1 with the context's probe strategy;
/// generalized MD-join nodes evaluate all blocks in one scan.
///
/// Every distinct `Table` and `Select` subplan is evaluated once per call:
/// `MD(γ(σₚ T), σₚ T)`, generalized MD-joins and Example 2.5 chains scan
/// `σₚ T` once, and every leg naming `T` reads the same catalog snapshot
/// even when an ingest lands mid-query. A result is held only while later
/// occurrences of its subplan remain.
pub fn execute(plan: &Plan, catalog: &Catalog, ctx: &ExecContext) -> Result<Relation> {
    let mut scans = Vec::new();
    count_scans(plan, &mut scans);
    Executor {
        catalog,
        ctx,
        scans,
    }
    .run(plan)
}

/// Count the occurrences of each `Table` and `Select` subplan that will
/// run. A repeat reuses the first occurrence's result, so its inputs never
/// run and are not counted.
fn count_scans<'p>(plan: &'p Plan, scans: &mut Vec<Scan<'p>>) {
    if matches!(plan, Plan::Table(_) | Plan::Select { .. }) {
        if let Some(scan) = scans.iter_mut().find(|s| s.plan == plan) {
            scan.uses += 1;
            return;
        }
        scans.push(Scan {
            plan,
            uses: 1,
            result: None,
        });
    }
    for input in plan.inputs() {
        count_scans(input, scans);
    }
}

/// A `Table` or `Select` subplan, matched by structural `==`.
struct Scan<'p> {
    plan: &'p Plan,
    /// Occurrences in the plan not yet executed.
    uses: usize,
    /// The result, held while `uses` is nonzero.
    result: Option<Relation>,
}

/// One top-level [`execute`] call.
struct Executor<'p, 'c> {
    catalog: &'c Catalog,
    ctx: &'c ExecContext,
    scans: Vec<Scan<'p>>,
}

impl<'p> Executor<'p, '_> {
    fn run(&mut self, plan: &'p Plan) -> Result<Relation> {
        let (catalog, ctx) = (self.catalog, self.ctx);
        // Governor poll per plan node: a cancelled or timed-out query stops
        // between operators even when an individual operator's own polls are
        // far apart (e.g. a cheap Select feeding an expensive MD-join).
        ctx.check_interrupt()?;
        // Fault-injection site per plan node (constant false unless armed): a
        // typed failure here exercises the same error path a planner bug
        // would.
        if ctx.fault_should_fail_planner() {
            return Err(AlgebraError::Core(mdj_core::CoreError::Internal(
                "injected fault: plan execution".into(),
            )));
        }
        match plan {
            Plan::Table(name) => self.scan(plan, |_| Ok(catalog.get(name)?.as_ref().clone())),
            Plan::Inline(rel) => Ok(rel.as_ref().clone()),
            Plan::Select { input, pred } => self.scan(plan, |ex| select(&ex.run(input)?, pred)),
            Plan::Project { input, cols } => {
                let rel = self.run(input)?;
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                Ok(rel.project(&names)?)
            }
            Plan::Base { input, shape } => {
                let rel = self.run(input)?;
                let dims: Vec<&str> = shape.dims().iter().map(String::as_str).collect();
                let out = match shape {
                    BaseShape::GroupBy(_) => basevalues::group_by(&rel, &dims)?,
                    BaseShape::Cube(_) => basevalues::cube(&rel, &dims)?,
                    BaseShape::Rollup(_) => basevalues::rollup(&rel, &dims)?,
                    BaseShape::GroupingSets(_, sets) => {
                        let sets: Vec<Vec<&str>> = sets
                            .iter()
                            .map(|s| s.iter().map(String::as_str).collect())
                            .collect();
                        basevalues::grouping_sets(&rel, &dims, &sets)?
                    }
                    BaseShape::Unpivot(_) => basevalues::unpivot(&rel, &dims)?,
                };
                Ok(out)
            }
            Plan::Union(parts) => {
                let mut iter = parts.iter();
                let first = iter
                    .next()
                    .ok_or_else(|| AlgebraError::InvalidPlan("union of zero plans".into()))?;
                let mut acc = self.run(first)?;
                for p in iter {
                    let next = self.run(p)?;
                    acc = acc.union(&next)?;
                }
                Ok(acc)
            }
            Plan::MdJoin {
                base,
                detail,
                aggs,
                theta,
            } => {
                if let Some(out) = self.try_cached_cuboid(base, detail, aggs, theta)? {
                    return Ok(out);
                }
                self.md_join(base, detail, aggs, theta, ExecStrategy::Serial, None)
            }
            Plan::GenMdJoin {
                base,
                detail,
                blocks,
            } => {
                let b = self.run(base)?;
                let r = self.run(detail)?;
                let core_blocks: Vec<Block> = blocks
                    .iter()
                    .map(|blk| Block::new(blk.theta.clone(), blk.aggs.clone()))
                    .collect();
                Ok(MdJoin::new(&b, &r).blocks(core_blocks).run(ctx)?)
            }
            Plan::Parallel { input, threads } => match input.as_ref() {
                Plan::MdJoin {
                    base,
                    detail,
                    aggs,
                    theta,
                } => {
                    let threads = if *threads > 0 { Some(*threads) } else { None };
                    self.md_join(base, detail, aggs, theta, ExecStrategy::Morsel, threads)
                }
                other => Err(AlgebraError::InvalidPlan(format!(
                    "Parallel may only wrap an MD-join node, got {other:?}"
                ))),
            },
            Plan::Join {
                left,
                right,
                left_keys,
                right_keys,
                keep_right,
            } => {
                let l = self.run(left)?;
                let r = self.run(right)?;
                let lk: Vec<&str> = left_keys.iter().map(String::as_str).collect();
                let rk: Vec<&str> = right_keys.iter().map(String::as_str).collect();
                let joined = mdj_naive::join::hash_join(&l, &r, &lk, &rk)?;
                // Keep left columns + the requested right columns.
                let keep_idx: Vec<usize> = {
                    let mut idx: Vec<usize> = (0..l.schema().len()).collect();
                    for name in keep_right {
                        let i = r.schema().index_of(name)?;
                        idx.push(l.schema().len() + i);
                    }
                    idx
                };
                let schema = joined.schema().project(&keep_idx);
                let rows = joined
                    .iter()
                    .map(|row| Row::new(row.key(&keep_idx)))
                    .collect();
                Ok(Relation::from_rows(schema, rows))
            }
        }
    }

    /// The memoized evaluation of a `Table` or `Select` node; the last
    /// occurrence takes the held result.
    fn scan(
        &mut self,
        plan: &'p Plan,
        eval: impl FnOnce(&mut Self) -> Result<Relation>,
    ) -> Result<Relation> {
        let Some(i) = self.scans.iter().position(|s| s.plan == plan) else {
            return eval(self);
        };
        let rel = match self.scans[i].result.take() {
            Some(rel) => rel,
            None => eval(self)?,
        };
        let scan = &mut self.scans[i];
        scan.uses = scan.uses.saturating_sub(1);
        if scan.uses > 0 {
            scan.result = Some(rel.clone());
        }
        Ok(rel)
    }

    /// An in-memory or page-backed MD-join node with the given strategy.
    fn md_join(
        &mut self,
        base: &'p Plan,
        detail: &'p Plan,
        aggs: &[mdj_agg::AggSpec],
        theta: &mdj_expr::Expr,
        strategy: ExecStrategy,
        threads: Option<usize>,
    ) -> Result<Relation> {
        if let Some(out) = self.try_paged_md_join(base, detail, aggs, theta, strategy, threads)? {
            return Ok(out);
        }
        let b = self.run(base)?;
        let r = self.run(detail)?;
        let mut join = MdJoin::new(&b, &r)
            .aggs(aggs)
            .theta(theta.clone())
            .strategy(strategy);
        if let Some(t) = threads {
            join = join.threads(t);
        }
        Ok(join.run(self.ctx)?)
    }

    /// The disk-resident fast path: when the MD-join's detail input is a
    /// catalog table backed by a page store (and the engine has a buffer
    /// pool attached), evaluate with [`mdj_core::paged_md_join`] instead of
    /// handing the executor the resident relation. Theorem 4.2's prefilter
    /// then becomes clustered-key page pruning — skipped pages are never
    /// read — and the query's `ScanStats` pick up `pages_read` /
    /// `bytes_read`.
    ///
    /// A detail-side σ directly under the MD-join participates too:
    /// `MD(B, σ_p(R), l, θ) = MD(B, R, l, θ ∧ p)` (the range over `b` is
    /// `{r | p(r) ∧ θ(b, r)}` either way), and folding `p` into θ is exactly
    /// what lets a key predicate prune pages instead of filtering rows after
    /// a full read.
    fn try_paged_md_join(
        &mut self,
        base: &'p Plan,
        detail: &Plan,
        aggs: &[mdj_agg::AggSpec],
        theta: &mdj_expr::Expr,
        strategy: ExecStrategy,
        threads: Option<usize>,
    ) -> Result<Option<Relation>> {
        let Some(pool) = self.ctx.buffer_pool() else {
            return Ok(None);
        };
        // Unwrap an optional detail-side σ; base-side predicates (Observation
        // 4.1 base inputs) cannot be folded into θ, so those fall through.
        let (table_plan, folded_theta) = match detail {
            Plan::Select { input, pred } if !pred.uses_side(mdj_expr::Side::Base) => (
                input.as_ref(),
                mdj_expr::builder::and(theta.clone(), pred.clone()),
            ),
            other => (other, theta.clone()),
        };
        let Plan::Table(name) = table_plan else {
            return Ok(None);
        };
        let Some(paged) = self.catalog.paged(name) else {
            return Ok(None);
        };
        let b = self.run(base)?;
        let scan = mdj_core::PagedScan::new(paged, pool);
        Ok(Some(mdj_core::paged_md_join(
            &b,
            &scan,
            aggs,
            &folded_theta,
            strategy,
            threads,
            self.ctx,
        )?))
    }

    /// The cuboid-cache fast path for the canonical group-by shape
    /// `MD(γ_dims(T), T, l, θ_dims)`: exact repeats are answered from the
    /// cached result, coarser queries roll up from a finer cached cuboid
    /// (Theorem 4.5), and misses execute once and become resident. Returns
    /// `None` (fall through to ordinary execution) when no cache is
    /// configured or the plan is not in canonical form.
    fn try_cached_cuboid(
        &mut self,
        base: &Plan,
        detail: &Plan,
        aggs: &[mdj_agg::AggSpec],
        theta: &mdj_expr::Expr,
    ) -> Result<Option<Relation>> {
        use mdj_core::cache::{cuboid_theta, CacheAnswer, CuboidRequest};
        let ctx = self.ctx;
        let Some(cache) = ctx.cuboid_cache() else {
            return Ok(None);
        };
        let (
            Plan::Table(detail_name),
            Plan::Base {
                input,
                shape: crate::plan::BaseShape::GroupBy(dims),
            },
        ) = (detail, base)
        else {
            return Ok(None);
        };
        let Plan::Table(base_name) = input.as_ref() else {
            return Ok(None);
        };
        if base_name != detail_name || *theta != cuboid_theta(dims) {
            return Ok(None);
        }
        // Resolve the *shared* Arc so the cache's pointer-identity validity
        // test sees the same allocation on every repeat of the query.
        let detail_rel = self.catalog.get(detail_name)?;
        let req = CuboidRequest::new(detail_name.clone(), dims.clone(), aggs.to_vec());
        match cache.lookup(&req, &detail_rel, ctx)? {
            CacheAnswer::Exact(rel) => {
                if let Some(stats) = ctx.stats() {
                    stats.record_cache_hit();
                }
                Ok(Some(rel.as_ref().clone()))
            }
            CacheAnswer::Rollup(rel) => {
                if let Some(stats) = ctx.stats() {
                    stats.record_cache_rollup_hit();
                }
                Ok(Some(rel.as_ref().clone()))
            }
            CacheAnswer::Miss => {
                if let Some(stats) = ctx.stats() {
                    stats.record_cache_miss();
                }
                let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
                let b = basevalues::group_by(&detail_rel, &dim_refs)?;
                let out = MdJoin::new(&b, &detail_rel)
                    .aggs(aggs)
                    .theta(theta.clone())
                    .strategy(ExecStrategy::Serial)
                    .run(ctx)?;
                let shared = std::sync::Arc::new(out);
                cache.insert(&req, &detail_rel, shared.clone());
                Ok(Some(shared.as_ref().clone()))
            }
        }
    }
}

/// σ over one relation. σ predicates are usually written over the detail
/// side, but predicates produced for *base* plans (Observation 4.1 inputs)
/// use base-side references; the input binds as whichever side the
/// predicate reads. [`mdj_naive::ops::select`] remains the reference
/// evaluator.
pub fn select(rel: &Relation, pred: &mdj_expr::Expr) -> Result<Relation> {
    let on_base = pred.uses_side(mdj_expr::Side::Base);
    let schema = Some(rel.schema());
    let bound = if on_base {
        pred.bind(schema, None)?
    } else {
        pred.bind(None, schema)?
    };
    let mut rows = Vec::new();
    for row in rel.iter() {
        let (b, r) = if on_base {
            (row.values(), &[][..])
        } else {
            (&[][..], row.values())
        };
        if bound.eval_bool(b, r)? {
            rows.push(row.clone());
        }
    }
    Ok(Relation::from_rows(rel.schema().clone(), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_agg::AggSpec;
    use mdj_expr::builder::*;
    use mdj_storage::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let mk = |c: i64, m: i64, st: &str, s: f64| {
            Row::from_values(vec![
                Value::Int(c),
                Value::Int(m),
                Value::str(st),
                Value::Float(s),
            ])
        };
        let rel = Relation::from_rows(
            schema,
            vec![
                mk(1, 1, "NY", 10.0),
                mk(1, 2, "NY", 20.0),
                mk(2, 1, "NJ", 30.0),
                mk(2, 2, "CT", 40.0),
            ],
        );
        let mut c = Catalog::new();
        c.register("Sales", rel);
        c
    }

    #[test]
    fn end_to_end_group_by_md_join() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        assert_eq!(out.len(), 2);
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(30.0));
    }

    #[test]
    fn select_pushes_into_detail() {
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales").select(eq(col_r("state"), lit("NY"))),
            vec![AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        let c2 = out.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(c2[1], Value::Int(0)); // outer semantics
    }

    #[test]
    fn cube_base_execution() {
        let plan = Plan::table("Sales").cube_base(&["cust", "month"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            mdj_core::basevalues::cube_match_theta(&["cust", "month"]),
        );
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        // distinct pairs 4 + custs 2 + months 2 + apex 1 = 9
        assert_eq!(out.len(), 9);
        let apex = out
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all())
            .unwrap();
        assert_eq!(apex[2], Value::Float(100.0));
    }

    #[test]
    fn union_and_project() {
        let p = Plan::Union(vec![
            Plan::table("Sales").select(eq(col_r("cust"), lit(1i64))),
            Plan::table("Sales").select(eq(col_r("cust"), lit(2i64))),
        ])
        .project(&["cust", "sale"]);
        let out = execute(&p, &catalog(), &ExecContext::new()).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.schema().names(), vec!["cust", "sale"]);
    }

    #[test]
    fn gen_md_join_node() {
        let blocks = vec![
            crate::plan::PlanBlock::new(
                vec![AggSpec::on_column("sum", "sale").with_alias("s1")],
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_r("month"), lit(1i64)),
                ),
            ),
            crate::plan::PlanBlock::new(
                vec![AggSpec::on_column("sum", "sale").with_alias("s2")],
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_r("month"), lit(2i64)),
                ),
            ),
        ];
        let plan = Plan::GenMdJoin {
            base: Box::new(Plan::table("Sales").group_by_base(&["cust"])),
            detail: Box::new(Plan::table("Sales")),
            blocks,
        };
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(10.0));
        assert_eq!(c1[2], Value::Float(20.0));
    }

    #[test]
    fn join_node_keeps_selected_right_columns() {
        let left = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale").with_alias("total")],
            eq(col_b("cust"), col_r("cust")),
        );
        let right = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star().with_alias("n")],
            eq(col_b("cust"), col_r("cust")),
        );
        let plan = Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec!["cust".into()],
            right_keys: vec!["cust".into()],
            keep_right: vec!["n".into()],
        };
        let out = execute(&plan, &catalog(), &ExecContext::new()).unwrap();
        assert_eq!(out.schema().names(), vec!["cust", "total", "n"]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let plan = Plan::table("Nope");
        assert!(execute(&plan, &catalog(), &ExecContext::new()).is_err());
    }

    #[test]
    fn parallel_node_runs_morsel_executor() {
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let md = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let serial = execute(&md, &catalog(), &ExecContext::new()).unwrap();
        let stats = Arc::new(ScanStats::new());
        let ctx = ExecContext::new().with_stats(stats.clone());
        let par = execute(&md.parallel(2), &catalog(), &ctx).unwrap();
        assert!(serial.same_multiset(&par));
        // The morsel executor reported per-worker counters.
        assert_eq!(stats.workers().len(), 2);
    }

    #[test]
    fn cuboid_cache_serves_repeats_and_rollups() {
        use mdj_core::EngineConfig;
        use mdj_storage::ScanStats;
        use std::sync::Arc;
        let cat = catalog();
        let engine = EngineConfig::new().with_cuboid_cache(1 << 20).build();
        let stats = Arc::new(ScanStats::new());
        let ctx = mdj_core::ExecContext::from_parts(
            engine,
            mdj_core::QueryCtx::new().with_stats(stats.clone()),
        );
        let fine = Plan::table("Sales")
            .group_by_base(&["cust", "month"])
            .md_join(
                Plan::table("Sales"),
                vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
                and(
                    eq(col_b("cust"), col_r("cust")),
                    eq(col_b("month"), col_r("month")),
                ),
            );
        let cold = execute(&fine, &cat, &ctx).unwrap();
        assert_eq!(stats.cache_misses(), 1);
        let warm = execute(&fine, &cat, &ctx).unwrap();
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(cold.rows(), warm.rows());
        // A coarser query rolls up from the cached finer cuboid.
        let coarse = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::on_column("sum", "sale"), AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let rolled = execute(&coarse, &cat, &ctx).unwrap();
        assert_eq!(stats.cache_rollup_hits(), 1);
        let direct = execute(&coarse, &cat, &mdj_core::ExecContext::new()).unwrap();
        assert!(direct.same_multiset(&rolled));
        // Non-canonical θ (extra predicate) bypasses the cache entirely.
        let filtered = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            and(
                eq(col_b("cust"), col_r("cust")),
                eq(col_r("state"), lit("NY")),
            ),
        );
        let (h, rh, m) = (
            stats.cache_hits(),
            stats.cache_rollup_hits(),
            stats.cache_misses(),
        );
        execute(&filtered, &cat, &ctx).unwrap();
        assert_eq!(
            (
                stats.cache_hits(),
                stats.cache_rollup_hits(),
                stats.cache_misses()
            ),
            (h, rh, m)
        );
    }

    #[test]
    fn paged_detail_runs_from_disk_and_prunes_with_theta() {
        use mdj_core::{EngineConfig, PagedScan, QueryCtx};
        use mdj_storage::{BufferPool, PagedStore, ScanStats};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("mdj-algebra-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("sale", DataType::Float),
        ]);
        let rel = Relation::from_rows(
            schema,
            (0..240)
                .map(|i: i64| {
                    Row::from_values(vec![
                        Value::Int(i % 5),
                        Value::Int(1 + i % 12),
                        Value::Float(i as f64 * 0.5),
                    ])
                })
                .collect(),
        );
        cat.register("Sales", rel.clone());
        let rel = std::sync::Arc::new(rel);
        let (store, _) = PagedStore::open(&dir).unwrap();
        let table = store.create_table("Sales", &rel, "month", 256).unwrap();
        // Re-register in clustered order so the in-memory reference scans
        // rows exactly as the page store serves them.
        let clustered = table.read_all(None).unwrap();
        cat.register("Sales", clustered);
        cat.attach_paged("Sales", table.clone()).unwrap();
        let engine = EngineConfig::new().build();
        engine.attach_buffer_pool(BufferPool::new(64 * 1024));
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales").select(ge(col_r("month"), lit(2i64))),
            vec![AggSpec::on_column("sum", "sale")],
            eq(col_b("cust"), col_r("cust")),
        );
        let stats = Arc::new(ScanStats::new());
        let ctx = mdj_core::ExecContext::from_parts(
            engine.clone(),
            QueryCtx::new().with_stats(stats.clone()),
        );
        let paged_out = execute(&plan, &cat, &ctx).unwrap();
        assert!(stats.pages_read() > 0, "detail must stream from disk");
        // The σ on the clustered key pruned at least one page: fewer pages
        // than the table holds were ever read.
        assert!(
            (stats.pages_read() as usize) < table.page_count(),
            "{} pages read of {}",
            stats.pages_read(),
            table.page_count()
        );
        // Identical rows to the pure in-memory path (no buffer pool → the
        // paged fast path never engages).
        let plain =
            mdj_core::ExecContext::from_parts(EngineConfig::new().build(), QueryCtx::default());
        let mem_out = execute(&plan, &cat, &plain).unwrap();
        assert_eq!(mem_out.rows(), paged_out.rows());
        // Materialized pruning is sound for strategies that delegate.
        let scan = PagedScan::new(table, engine.buffer_pool().unwrap());
        assert_eq!(scan.materialize(&ctx).unwrap().len(), rel.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_results_are_released_at_their_last_use() {
        // Base and detail carry different σ, and each σ feeds two MD-joins.
        let ny = Plan::table("Sales").select(eq(col_r("state"), lit("NY")));
        let nj = Plan::table("Sales").select(eq(col_r("state"), lit("NJ")));
        let md = |base: &Plan, detail: &Plan| {
            base.clone().group_by_base(&["cust"]).md_join(
                detail.clone(),
                vec![AggSpec::count_star()],
                eq(col_b("cust"), col_r("cust")),
            )
        };
        let plan = Plan::Union(vec![md(&ny, &nj), md(&nj, &ny)]);
        let mut scans = Vec::new();
        count_scans(&plan, &mut scans);
        let uses: Vec<(&Plan, usize)> = scans.iter().map(|s| (s.plan, s.uses)).collect();
        // Sales runs once under each σ; the repeats reuse the σ results.
        let sales = Plan::table("Sales");
        assert_eq!(uses, [(&ny, 2), (&sales, 2), (&nj, 2)]);
        let (cat, ctx) = (catalog(), ExecContext::new());
        let mut ex = Executor {
            catalog: &cat,
            ctx: &ctx,
            scans,
        };
        let out = ex.run(&plan).unwrap();
        assert_eq!(out.len(), 2);
        assert!(ex.scans.iter().all(|s| s.uses == 0 && s.result.is_none()));
    }

    #[test]
    fn both_legs_read_one_snapshot_under_concurrent_ingest() {
        // Every batch adds one row for an existing customer and one for a
        // new customer, so within one snapshot Σ count(*) = 2 · groups.
        // A base from one version joined with a detail from a later one
        // counts the existing customer's new row without its new group.
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("month", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let row = |c: i64| {
            Row::from_values(vec![
                Value::Int(c),
                Value::Int(1),
                Value::str("NY"),
                Value::Float(1.0),
            ])
        };
        let mut cat = Catalog::new();
        cat.register(
            "Sales",
            Relation::from_rows(schema, (0..4000).map(|i| row(i / 2)).collect()),
        );
        let plan = Plan::table("Sales").group_by_base(&["cust"]).md_join(
            Plan::table("Sales"),
            vec![AggSpec::count_star()],
            eq(col_b("cust"), col_r("cust")),
        );
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..200 {
                    cat.ingest("Sales", vec![row(0), row(10_000 + k)]).unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let out = execute(&plan, &cat, &ExecContext::new()).unwrap();
                let total: i64 = out
                    .iter()
                    .map(|r| match r[1] {
                        Value::Int(n) => n,
                        ref v => panic!("count is {v:?}"),
                    })
                    .sum();
                assert_eq!(total, 2 * out.len() as i64, "legs read different versions");
            }
        });
    }

    #[test]
    fn parallel_over_non_md_join_is_rejected() {
        let plan = Plan::table("Sales").parallel(4);
        let err = execute(&plan, &catalog(), &ExecContext::new());
        assert!(matches!(err, Err(AlgebraError::InvalidPlan(_))));
    }
}
