//! The traced breakdown: per-layer self times measured from outside the
//! program, by timing calls into each module's public functions.
//!
//! A traced request is first run once untimed through `wire::handle_line`,
//! so that every timed call after it starts from the state that request
//! leaves behind (buffer-pool pages, cuboid-cache entries). Then it is sent
//! over TCP and replayed one layer down at a time: `wire::handle_line`,
//! then `QueryService`, then a `SqlEngine` built the way the service builds
//! one, then the engine's steps (parse, compile, optimize, execute) one by
//! one, and finally the execution itself split into table materialization,
//! base-values construction, cache lookup, and the MD-join run on
//! already-built inputs.
//!
//! A layer's self time is its call's time minus the time of its child
//! calls. The leaves (parse, compile, optimize, cube, materialize, base
//! values, MD-join, cache lookup) are timed directly; the other layers are
//! remainders of two separate invocations. Both are checked: the leaves of
//! a request must add up to no more than its round trip, and every
//! remainder must be non-negative up to its noise margin (see
//! [`NOISE_SE`], [`NOISE_SHARE`]). A failed check is a violation: it is
//! reported, and the run is not correct.
//!
//! Ingest is traced the same way from `PagedStore::append` and
//! `EngineConfig::ingest`, on the next batch of the stream.

use crate::workload::Script;
use mdj_algebra::{execute, optimize, BaseShape, Plan};
use mdj_core::basevalues;
use mdj_core::cache::{cuboid_theta, CacheAnswer, CuboidRequest};
use mdj_core::{Block, ExecContext, ExecStrategy, MdJoin, PagedScan, QueryCtx};
use mdj_server::json::{parse, Json};
use mdj_server::{wire, ExecOptions, QueryService};
use mdj_sql::{compile::compile, parser, PreparedStatement, SqlEngine};
use mdj_storage::{Catalog, PagedStore, Relation, Row, ScanStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Pages decoded per traced query to sample the page codec.
const DECODE_SAMPLE_PAGES: usize = 16;
/// Noise margin of a check, in standard errors of the mean per-request
/// difference it tests...
const NOISE_SE: f64 = 4.0;
/// ...plus this share of the mean round trip.
const NOISE_SHARE: f64 = 0.01;

/// One traced query's call times in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
struct Rungs {
    rtt: f64,
    handle_line: f64,
    service: f64,
    sql: f64,
    parse: f64,
    compile: f64,
    optimize: f64,
    execute: f64,
    cube: f64,
    materialize: f64,
    basevalues: f64,
    mdjoin: f64,
    cache_lookup: f64,
}

impl Rungs {
    /// Time spent in calls below `execute`.
    fn below_execute(&self) -> f64 {
        self.materialize + self.basevalues + self.mdjoin + self.cache_lookup
    }

    /// The directly timed leaves.
    fn leaves(&self) -> f64 {
        self.parse + self.compile + self.optimize + self.cube + self.below_execute()
    }
}

/// A layer's name, its per-request self time, and whether that time is a
/// remainder of two separate invocations (and so is checked).
type Layer = (&'static str, fn(&Rungs) -> f64, bool);

/// Every layer, in the order the layers nest.
const LAYERS: [Layer; 13] = [
    ("net.self_ms", |r| r.rtt - r.handle_line, true),
    ("wire.self_ms", |r| r.handle_line - r.service, true),
    ("service.self_ms", |r| r.service - r.sql, true),
    ("sql.parse_ms", |r| r.parse, false),
    ("sql.compile_ms", |r| r.compile, false),
    ("algebra.optimize_ms", |r| r.optimize, false),
    (
        "sql.present_ms",
        |r| r.sql - r.parse - r.compile - r.optimize - r.execute - r.cube,
        true,
    ),
    ("cube.exec_ms", |r| r.cube, false),
    (
        "algebra.execute_self_ms",
        |r| r.execute - r.below_execute(),
        true,
    ),
    ("storage.materialize_ms", |r| r.materialize, false),
    ("core.basevalues_ms", |r| r.basevalues, false),
    ("core.mdjoin_ms", |r| r.mdjoin, false),
    ("cache.lookup_ms", |r| r.cache_lookup, false),
];

/// Mean and standard error of the mean.
fn mean_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, f64::INFINITY);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// What a phase's traced requests measured: each query's call times, and
/// codec and ingest totals with the counts they divide by.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    queries: Vec<Rungs>,
    pub mdjoin_tuples: u64,
    pub encode: f64,
    pub encode_bytes: u64,
    pub ingests: u64,
    pub append: f64,
    pub maintain: f64,
    pub decode: f64,
    pub decode_bytes: u64,
    next_page: usize,
}

/// The traced per-layer times of a phase, and the checks they failed.
pub struct Breakdown {
    pub metrics: Vec<(&'static str, f64)>,
    pub violations: Vec<String>,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        self.queries.extend_from_slice(&o.queries);
        self.mdjoin_tuples += o.mdjoin_tuples;
        self.encode += o.encode;
        self.encode_bytes += o.encode_bytes;
        self.ingests += o.ingests;
        self.append += o.append;
        self.maintain += o.maintain;
        self.decode += o.decode;
        self.decode_bytes += o.decode_bytes;
    }

    /// Total directly timed MD-join milliseconds.
    pub fn mdjoin_ms(&self) -> f64 {
        self.queries.iter().map(|r| r.mdjoin).sum()
    }

    /// Mean per-query self time of every layer, the mean round trip
    /// (`trace.e2e_ms`) and leaf sum (`trace.leaf_sum_ms`), and the checks
    /// those times fail.
    pub fn breakdown(&self) -> Breakdown {
        let mut metrics = Vec::new();
        let mut violations = Vec::new();
        if self.queries.is_empty() {
            metrics.extend(LAYERS.iter().map(|(name, _, _)| (*name, 0.0)));
            metrics.extend([("trace.e2e_ms", 0.0), ("trace.leaf_sum_ms", 0.0)]);
            return Breakdown {
                metrics,
                violations,
            };
        }
        let per_query =
            |f: &dyn Fn(&Rungs) -> f64| -> Vec<f64> { self.queries.iter().map(f).collect() };
        let (e2e, _) = mean_se(&per_query(&|r| r.rtt));
        let margin = |se: f64| NOISE_SE * se + NOISE_SHARE * e2e;
        for (name, f, remainder) in LAYERS {
            let (mean, se) = mean_se(&per_query(&f));
            if remainder && mean < -margin(se) {
                violations.push(format!(
                    "trace: {name} is {mean:.3} ms (standard error {se:.3} ms): \
                     the replays took longer than the call they replay"
                ));
            }
            metrics.push((name, mean));
        }
        let (leaves, _) = mean_se(&per_query(&Rungs::leaves));
        let (slack, se) = mean_se(&per_query(&|r| r.rtt - r.leaves()));
        if slack < -margin(se) {
            violations.push(format!(
                "trace: the timed leaves add up to {leaves:.3} ms, more than the \
                 {e2e:.3} ms round trip (standard error {se:.3} ms)"
            ));
        }
        metrics.extend([("trace.e2e_ms", e2e), ("trace.leaf_sum_ms", leaves)]);
        Breakdown {
            metrics,
            violations,
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn time<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    *acc += ms_since(t);
    out
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub struct Tracer<'a> {
    service: &'a Arc<QueryService>,
    script: &'a Script,
    /// Parsed statements mirroring the clients' prepared ones.
    prepared: Vec<PreparedStatement>,
    store: Option<Arc<PagedStore>>,
    table: &'static str,
}

impl<'a> Tracer<'a> {
    pub fn new(
        service: &'a Arc<QueryService>,
        script: &'a Script,
        store: Option<Arc<PagedStore>>,
        table: &'static str,
    ) -> Result<Tracer<'a>, String> {
        let prepared = if script.prepared {
            script
                .queries
                .iter()
                .map(|q| PreparedStatement::parse(&q.sql).map_err(err))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Tracer {
            service,
            script,
            prepared,
            store,
            table,
        })
    }

    fn catalog(&self) -> &Catalog {
        self.service.engine().catalog()
    }

    fn ctx(&self, stats: Option<Arc<ScanStats>>) -> ExecContext {
        let mut q = QueryCtx::new();
        if let Some(s) = stats {
            q = q.with_stats(s);
        }
        ExecContext::from_parts(self.service.engine().clone(), q)
    }

    /// Run a request once, untimed, so that its timed calls start from the
    /// state it leaves behind.
    pub fn prime(&self, line: &str) {
        black_box(wire::handle_line(self.service, line));
    }

    /// Trace query `q`, whose round trip over TCP took `rtt` ms and
    /// answered `response`.
    #[allow(clippy::too_many_arguments)]
    pub fn query(
        &self,
        session: u64,
        stmt: Option<u64>,
        q: usize,
        line: &str,
        response: &str,
        rtt: f64,
        l: &mut Layers,
    ) -> Result<(), String> {
        let sql = &self.script.queries[q].sql;
        let prepared = self.prepared.get(q);
        let mut r = Rungs {
            rtt,
            ..Rungs::default()
        };

        let resp = time(&mut r.handle_line, || wire::handle_line(self.service, line));
        if parse(&resp)?.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("handle_line: {}", &resp[..resp.len().min(200)]));
        }
        let json = parse(response)?;
        let encoded = time(&mut l.encode, || json.encode());
        l.encode_bytes += encoded.len() as u64;

        let opts = ExecOptions::default();
        time(&mut r.service, || match stmt {
            Some(s) => self.service.execute(session, s, &[], opts),
            None => self.service.query(session, sql, opts),
        })
        .map_err(err)?;

        let engine = SqlEngine::with_context(self.catalog().clone(), self.ctx(None));
        time(&mut r.sql, || match prepared {
            Some(p) => engine.execute_prepared(p, &[]),
            None => engine.query(sql),
        })
        .map_err(err)?;

        // The engine's steps, one call each.
        let ctx = self.ctx(None);
        let ast = time(&mut r.parse, || match prepared {
            Some(p) => p.bind(&[]),
            None => parser::parse(sql),
        })
        .map_err(err)?;
        let compiled = time(&mut r.compile, || {
            compile(&ast, self.catalog(), ctx.registry())
        })
        .map_err(err)?;
        let stats = Arc::new(ScanStats::new());
        let bctx = self.ctx(Some(stats.clone()));
        if let Some(fast) = &compiled.fast_cube {
            let source = time(&mut r.execute, || {
                execute(&fast.source, self.catalog(), &ctx)
            })
            .map_err(err)?;
            let dims: Vec<&str> = fast.dims.iter().map(String::as_str).collect();
            let spec = mdj_cube::CubeSpec::new(&dims, fast.aggs.clone());
            let chain = fast.shape == mdj_cube::sets::SetShape::Cube
                && mdj_agg::rollup::is_rollupable(&fast.aggs, ctx.registry());
            time(&mut r.cube, || {
                if chain {
                    mdj_cube::rollup_chain::cube_rollup_chain(&source, &spec, &ctx)
                } else {
                    let masks = mdj_cube::sets::shape_masks(dims.len(), &fast.shape);
                    mdj_cube::sets::sets_agg(&source, &spec, &masks, &ctx)
                }
            })
            .map_err(err)?;
            self.breakdown(&fast.source, &bctx, &mut r)?;
        } else {
            let plan = time(&mut r.optimize, || {
                optimize(compiled.plan.clone(), self.catalog(), ctx.registry())
            })
            .map_err(err)?;
            time(&mut r.execute, || execute(&plan, self.catalog(), &ctx)).map_err(err)?;
            self.breakdown(&plan, &bctx, &mut r)?;
        }
        l.mdjoin_tuples += stats.tuples_scanned();
        self.sample_decode(l)?;
        l.queries.push(r);
        Ok(())
    }

    /// Decode a rotating run of `Sales` pages straight from the page file.
    fn sample_decode(&self, l: &mut Layers) -> Result<(), String> {
        let Some(table) = self.store.as_ref().and_then(|s| s.table("Sales")) else {
            return Ok(());
        };
        let pages = table.page_count();
        for _ in 0..DECODE_SAMPLE_PAGES.min(pages) {
            let page = l.next_page % pages;
            l.next_page += 1;
            let (_, bytes) = time(&mut l.decode, || table.read_page(page)).map_err(err)?;
            l.decode_bytes += bytes;
        }
        Ok(())
    }

    /// Append `rows` through the store (when the table is paged) and the
    /// engine, as `QueryService::ingest` does.
    pub fn ingest(&self, rows: Vec<Row>, l: &mut Layers) -> Result<(), String> {
        let durable = self
            .store
            .as_ref()
            .filter(|s| s.table(self.table).is_some());
        if let Some(s) = durable {
            time(&mut l.append, || s.append(self.table, &rows)).map_err(err)?;
        }
        let engine = self.service.engine();
        time(&mut l.maintain, || engine.ingest(self.table, rows)).map_err(err)?;
        if let Some(t) = durable.and_then(|s| s.table(self.table)) {
            self.catalog().attach_paged(self.table, t).map_err(err)?;
        }
        l.ingests += 1;
        Ok(())
    }

    /// Evaluate `plan` the way `mdj_algebra::execute` does, timing the
    /// table materializations, base-values builds, cache lookups, and
    /// MD-join runs it is made of.
    fn breakdown(&self, plan: &Plan, ctx: &ExecContext, l: &mut Rungs) -> Result<Relation, String> {
        let cat = self.catalog();
        match plan {
            Plan::Table(name) => time(&mut l.materialize, || {
                cat.get(name).map(|r| r.as_ref().clone())
            })
            .map_err(err),
            Plan::Select { input, pred } => {
                let rel = self.breakdown(input, ctx, l)?;
                let p = Plan::inline(rel).select(pred.clone());
                execute(&p, cat, ctx).map_err(err)
            }
            Plan::Project { input, cols } => {
                let rel = self.breakdown(input, ctx, l)?;
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                rel.project(&names).map_err(err)
            }
            Plan::Base { input, shape } => {
                let rel = self.breakdown(input, ctx, l)?;
                let dims: Vec<&str> = shape.dims().iter().map(String::as_str).collect();
                time(&mut l.basevalues, || match shape {
                    BaseShape::GroupBy(_) => basevalues::group_by(&rel, &dims),
                    BaseShape::Cube(_) => basevalues::cube(&rel, &dims),
                    BaseShape::Rollup(_) => basevalues::rollup(&rel, &dims),
                    BaseShape::GroupingSets(_, sets) => {
                        let sets: Vec<Vec<&str>> = sets
                            .iter()
                            .map(|s| s.iter().map(String::as_str).collect())
                            .collect();
                        basevalues::grouping_sets(&rel, &dims, &sets)
                    }
                    BaseShape::Unpivot(_) => basevalues::unpivot(&rel, &dims),
                })
                .map_err(err)
            }
            Plan::MdJoin {
                base,
                detail,
                aggs,
                theta,
            } => {
                if let Some(hit) = self.cached(base, detail, aggs, theta, ctx, l)? {
                    return Ok(hit);
                }
                self.md_join(
                    base,
                    detail,
                    aggs,
                    theta,
                    ExecStrategy::Serial,
                    None,
                    ctx,
                    l,
                )
            }
            Plan::Parallel { input, threads } => match input.as_ref() {
                Plan::MdJoin {
                    base,
                    detail,
                    aggs,
                    theta,
                } => {
                    let threads = (*threads > 0).then_some(*threads);
                    self.md_join(
                        base,
                        detail,
                        aggs,
                        theta,
                        ExecStrategy::Morsel,
                        threads,
                        ctx,
                        l,
                    )
                }
                _ => execute(plan, cat, ctx).map_err(err),
            },
            Plan::GenMdJoin {
                base,
                detail,
                blocks,
            } => {
                let b = self.breakdown(base, ctx, l)?;
                let r = self.breakdown(detail, ctx, l)?;
                let blocks: Vec<Block> = blocks
                    .iter()
                    .map(|blk| Block::new(blk.theta.clone(), blk.aggs.clone()))
                    .collect();
                time(&mut l.mdjoin, || {
                    MdJoin::new(&b, &r).blocks(blocks).run(ctx)
                })
                .map_err(err)
            }
            Plan::Inline(_) | Plan::Union(_) | Plan::Join { .. } => {
                execute(plan, cat, ctx).map_err(err)
            }
        }
    }

    /// The cuboid-cache probe `execute` makes for a canonical group-by
    /// MD-join; `Some` on a hit.
    fn cached(
        &self,
        base: &Plan,
        detail: &Plan,
        aggs: &[mdj_agg::AggSpec],
        theta: &mdj_expr::Expr,
        ctx: &ExecContext,
        l: &mut Rungs,
    ) -> Result<Option<Relation>, String> {
        let Some(cache) = ctx.cuboid_cache() else {
            return Ok(None);
        };
        let (
            Plan::Table(name),
            Plan::Base {
                input,
                shape: BaseShape::GroupBy(dims),
            },
        ) = (detail, base)
        else {
            return Ok(None);
        };
        if !matches!(input.as_ref(), Plan::Table(b) if b == name) || *theta != cuboid_theta(dims) {
            return Ok(None);
        }
        let rel = self.catalog().get(name).map_err(err)?;
        let req = CuboidRequest::new(name.clone(), dims.clone(), aggs.to_vec());
        let answer = time(&mut l.cache_lookup, || cache.lookup(&req, &rel, ctx)).map_err(err)?;
        Ok(match answer {
            CacheAnswer::Exact(r) | CacheAnswer::Rollup(r) => Some(r.as_ref().clone()),
            CacheAnswer::Miss => None,
        })
    }

    /// An MD-join node: the paged path when the detail is a page-backed
    /// table (optionally under a detail-side σ folded into θ), else the
    /// in-memory executor on materialized inputs.
    #[allow(clippy::too_many_arguments)]
    fn md_join(
        &self,
        base: &Plan,
        detail: &Plan,
        aggs: &[mdj_agg::AggSpec],
        theta: &mdj_expr::Expr,
        strategy: ExecStrategy,
        threads: Option<usize>,
        ctx: &ExecContext,
        l: &mut Rungs,
    ) -> Result<Relation, String> {
        if let Some(pool) = ctx.buffer_pool() {
            let (table, folded) = match detail {
                Plan::Select { input, pred } if !pred.uses_side(mdj_expr::Side::Base) => (
                    input.as_ref(),
                    mdj_expr::builder::and(theta.clone(), pred.clone()),
                ),
                other => (other, theta.clone()),
            };
            if let Plan::Table(name) = table {
                if let Some(paged) = self.catalog().paged(name) {
                    let b = self.breakdown(base, ctx, l)?;
                    let scan = PagedScan::new(paged, pool);
                    return time(&mut l.mdjoin, || {
                        mdj_core::paged_md_join(&b, &scan, aggs, &folded, strategy, threads, ctx)
                    })
                    .map_err(err);
                }
            }
        }
        let b = self.breakdown(base, ctx, l)?;
        let r = self.breakdown(detail, ctx, l)?;
        time(&mut l.mdjoin, || {
            let mut join = MdJoin::new(&b, &r)
                .aggs(aggs)
                .theta(theta.clone())
                .strategy(strategy);
            if let Some(t) = threads {
                join = join.threads(t);
            }
            join.run(ctx)
        })
        .map_err(err)
    }
}
