//! The end-to-end engine: parse → compile → optimize → execute → project.

use crate::ast::Query;
use crate::compile::{compile, CompiledQuery};
use crate::error::Result;
use crate::parser::parse;
use crate::prepare::PreparedStatement;
use mdj_algebra::{execute, explain::explain, optimize, select, Plan};
use mdj_core::ExecContext;
use mdj_storage::{Catalog, Relation, Value};

/// A SQL engine bound to a catalog and an execution context.
#[derive(Debug, Default)]
pub struct SqlEngine {
    pub catalog: Catalog,
    pub ctx: ExecContext,
}

impl SqlEngine {
    pub fn new(catalog: Catalog) -> Self {
        SqlEngine {
            catalog,
            ctx: ExecContext::new(),
        }
    }

    pub fn with_context(catalog: Catalog, ctx: ExecContext) -> Self {
        SqlEngine { catalog, ctx }
    }

    /// Register a relation under `name`.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) {
        self.catalog.register(name, relation);
    }

    /// Compile a query without executing it (for EXPLAIN-style inspection).
    pub fn compile(&self, sql: &str) -> Result<CompiledQuery> {
        let q = parse(sql)?;
        self.compile_ast(&q)
    }

    fn compile_ast(&self, q: &Query) -> Result<CompiledQuery> {
        if self.ctx.fault_should_fail_planner() {
            return Err(crate::error::SqlError::Compile(
                "injected fault: compile".into(),
            ));
        }
        compile(q, &self.catalog, self.ctx.registry())
    }

    /// Injected planner fault at the parse site: fails with a typed parse
    /// error before the lexer runs. Constant-false without an armed
    /// fault injector.
    fn fault_parse(&self) -> Result<()> {
        if self.ctx.fault_should_fail_planner() {
            return Err(crate::error::SqlError::Parse {
                near: "<fault-injection>".into(),
                message: "injected fault: parse".into(),
            });
        }
        Ok(())
    }

    /// Parse `sql` (which may contain positional `?` placeholders) into a
    /// reusable prepared statement. Parsing happens once; each
    /// [`execute_prepared`](Self::execute_prepared) call binds values and
    /// re-plans against the current catalog.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        PreparedStatement::parse(sql)
    }

    /// Bind `params` to a prepared statement and run it end to end.
    pub fn execute_prepared(&self, stmt: &PreparedStatement, params: &[Value]) -> Result<Relation> {
        self.fault_parse()?;
        let q = stmt.bind(params)?;
        self.run_query(&q)
    }

    /// Compile, optimize, and return the physical plan text.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let compiled = self.compile(sql)?;
        let optimized = optimize(compiled.plan, &self.catalog, self.ctx.registry())?;
        Ok(explain(&optimized))
    }

    /// Run a query end to end. `ANALYZE BY` cuboid-family queries take the
    /// fast physical path (per-cuboid hash probes, or Theorem 4.5 roll-up
    /// chains when every aggregate is distributive) instead of the generic
    /// wildcard-θ plan.
    pub fn query(&self, sql: &str) -> Result<Relation> {
        self.fault_parse()?;
        let q = parse(sql)?;
        self.run_query(&q)
    }

    /// Shared execution path: compile an AST, pick the fast cuboid path or
    /// the generic optimized plan, and present the result.
    fn run_query(&self, q: &Query) -> Result<Relation> {
        let compiled = self.compile_ast(q)?;
        if let Some(fast) = &compiled.fast_cube {
            let source = execute(&fast.source, &self.catalog, &self.ctx)?;
            let dims: Vec<&str> = fast.dims.iter().map(String::as_str).collect();
            let spec = mdj_cube::CubeSpec::new(&dims, fast.aggs.clone());
            let use_rollup_chain = fast.shape == mdj_cube::sets::SetShape::Cube
                && mdj_agg::rollup::is_rollupable(&fast.aggs, self.ctx.registry());
            let out = if use_rollup_chain {
                mdj_cube::rollup_chain::cube_rollup_chain(&source, &spec, &self.ctx)
                    .map_err(mdj_algebra::AlgebraError::from)?
            } else {
                let masks = mdj_cube::sets::shape_masks(dims.len(), &fast.shape);
                mdj_cube::sets::sets_agg(&source, &spec, &masks, &self.ctx)
                    .map_err(mdj_algebra::AlgebraError::from)?
            };
            return self.present(out, &compiled);
        }
        if self.ctx.fault_should_fail_planner() {
            return Err(
                mdj_algebra::AlgebraError::Core(mdj_core::CoreError::Internal(
                    "injected fault: optimize".into(),
                ))
                .into(),
            );
        }
        let optimized = optimize(compiled.plan.clone(), &self.catalog, self.ctx.registry())?;
        self.finish(optimized, &compiled)
    }

    /// Run a query *without* the optimizer (ablation / debugging).
    pub fn query_unoptimized(&self, sql: &str) -> Result<Relation> {
        let compiled = self.compile(sql)?;
        let plan = compiled.plan.clone();
        self.finish(plan, &compiled)
    }

    fn finish(&self, plan: Plan, compiled: &CompiledQuery) -> Result<Relation> {
        let out = execute(&plan, &self.catalog, &self.ctx)?;
        self.present(out, compiled)
    }

    /// Apply HAVING, the select-list projection, ORDER BY, and LIMIT.
    fn present(&self, mut out: Relation, compiled: &CompiledQuery) -> Result<Relation> {
        if let Some(having) = &compiled.having {
            out = select(&out, having)?;
        }
        let names: Vec<&str> = compiled.output_cols.iter().map(String::as_str).collect();
        let mut out = out
            .project(&names)
            .map_err(mdj_algebra::AlgebraError::from)?;
        if !compiled.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = compiled
                .order_by
                .iter()
                .map(|k| {
                    out.schema()
                        .index_of(&k.column)
                        .map(|i| (i, k.descending))
                        .map_err(|e| crate::SqlError::from(mdj_algebra::AlgebraError::from(e)))
                })
                .collect::<Result<_>>()?;
            out.rows_mut().sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = compiled.limit {
            out.rows_mut().truncate(n);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdj_storage::{DataType, Row, Schema, Value};

    fn engine() -> SqlEngine {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("prod", DataType::Int),
            ("month", DataType::Int),
            ("year", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        let mk = |c: i64, p: i64, m: i64, y: i64, st: &str, s: f64| {
            Row::from_values(vec![
                Value::Int(c),
                Value::Int(p),
                Value::Int(m),
                Value::Int(y),
                Value::str(st),
                Value::Float(s),
            ])
        };
        let sales = Relation::from_rows(
            schema,
            vec![
                mk(1, 10, 1, 1997, "NY", 10.0),
                mk(1, 10, 2, 1997, "NY", 30.0),
                mk(1, 10, 3, 1997, "NJ", 20.0),
                mk(2, 10, 2, 1997, "CT", 50.0),
                mk(2, 20, 2, 1997, "NY", 40.0),
            ],
        );
        let mut e = SqlEngine::new(Catalog::new());
        e.register("Sales", sales);
        e
    }

    #[test]
    fn group_by_query() {
        let out = engine()
            .query("select cust, sum(sale), count(*) from Sales group by cust")
            .unwrap();
        assert_eq!(out.schema().names(), vec!["cust", "sum_sale", "count_star"]);
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Float(60.0));
        assert_eq!(c1[2], Value::Int(3));
    }

    #[test]
    fn where_filters_detail() {
        let out = engine()
            .query("select cust, count(*) from Sales where state = 'NY' group by cust")
            .unwrap();
        // Base table is built from the filtered source: only customers with
        // NY purchases appear.
        assert_eq!(out.len(), 2);
        let c1 = out.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(c1[1], Value::Int(2));
    }

    #[test]
    fn analyze_by_cube_query() {
        let out = engine()
            .query("select prod, month, sum(sale) from Sales analyze by cube(prod, month)")
            .unwrap();
        let apex = out
            .rows()
            .iter()
            .find(|r| r[0].is_all() && r[1].is_all())
            .unwrap();
        assert_eq!(apex[2], Value::Float(150.0));
    }

    #[test]
    fn analyze_by_grouping_sets_marginals() {
        let out = engine()
            .query(
                "select prod, month, sum(sale) from Sales \
                 analyze by grouping sets ((prod), (month))",
            )
            .unwrap();
        // Marginals only: 2 prods + 3 months = 5 rows.
        assert_eq!(out.len(), 5);
        for row in out.iter() {
            let all_count = row.values()[..2].iter().filter(|v| v.is_all()).count();
            assert_eq!(all_count, 1);
        }
    }

    #[test]
    fn tri_state_grouping_variables() {
        let out = engine()
            .query(
                "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct \
                 from Sales group by cust ; X, Y, Z \
                 such that X.cust = cust and X.state = 'NY', \
                           Y.cust = cust and Y.state = 'NJ', \
                           Z.cust = cust and Z.state = 'CT'",
            )
            .unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["cust", "avg_ny", "avg_nj", "avg_ct"]
        );
        let c2 = out.rows().iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(c2[1], Value::Float(40.0));
        assert_eq!(c2[2], Value::Null); // outer-join semantics
        assert_eq!(c2[3], Value::Float(50.0));
    }

    #[test]
    fn count_above_group_average() {
        let out = engine()
            .query(
                "select cust, count(Z.*) from Sales group by cust ; Z \
                 such that Z.cust = cust and Z.sale > avg(sale)",
            )
            .unwrap();
        // cust 1: avg 20, above: 30 → 1. cust 2: avg 45, above: 50 → 1.
        for row in out.iter() {
            assert_eq!(row[1], Value::Int(1));
        }
    }

    #[test]
    fn having_filters_groups() {
        let out = engine()
            .query("select cust, sum(sale) from Sales group by cust having sum(sale) > 80")
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn global_aggregate() {
        let out = engine()
            .query("select count(*), max(sale) from Sales")
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(5));
        assert_eq!(out.rows()[0][1], Value::Float(50.0));
    }

    #[test]
    fn external_base_table_example_2_4() {
        let mut e = engine();
        // Representative cube points supplied externally.
        let schema = Schema::from_pairs(&[("prod", DataType::Int), ("month", DataType::Int)]);
        let t = Relation::from_rows(
            schema,
            vec![
                Row::new(vec![Value::Int(10), Value::All]),
                Row::new(vec![Value::All, Value::Int(2)]),
            ],
        );
        e.register("T", t);
        let out = e
            .query("select prod, month, sum(sale) from Sales analyze by T(prod, month)")
            .unwrap();
        assert_eq!(out.len(), 2);
        let p10 = out.rows().iter().find(|r| r[0] == Value::Int(10)).unwrap();
        assert_eq!(p10[2], Value::Float(110.0));
        let m2 = out.rows().iter().find(|r| r[1] == Value::Int(2)).unwrap();
        assert_eq!(m2[2], Value::Float(120.0));
    }

    #[test]
    fn explain_returns_plan_text() {
        let s = engine()
            .explain("select cust, avg(sale) from Sales group by cust")
            .unwrap();
        assert!(s.contains("MDJoin"));
    }

    #[test]
    fn optimized_equals_unoptimized() {
        let e = engine();
        let sql = "select cust, avg(X.sale) as a, avg(Y.sale) as b from Sales \
                   group by cust ; X, Y \
                   such that X.cust = cust and X.state = 'NY', \
                             Y.cust = cust and Y.state = 'NJ'";
        let a = e.query(sql).unwrap();
        let b = e.query_unoptimized(sql).unwrap();
        assert!(a.same_multiset(&b));
    }

    #[test]
    fn fast_cube_path_matches_generic_plan() {
        let e = engine();
        for sql in [
            "select prod, month, sum(sale), count(*) from Sales analyze by cube(prod, month)",
            "select prod, month, sum(sale) from Sales analyze by rollup(prod, month)",
            "select prod, month, sum(sale) from Sales analyze by unpivot(prod, month)",
            "select prod, month, sum(sale) from Sales analyze by grouping sets ((prod), (month))",
            // Holistic aggregate: rollup-chain is inapplicable, per-cuboid
            // expansion must kick in.
            "select prod, month, median(sale) from Sales analyze by cube(prod, month)",
            // WHERE must filter the fast path's source too.
            "select prod, month, sum(sale) from Sales where state = 'NY' analyze by cube(prod, month)",
        ] {
            let fast = e.query(sql).unwrap();
            let generic = e.query_unoptimized(sql).unwrap();
            assert!(fast.same_multiset(&generic), "{sql}\n{fast}\nvs\n{generic}");
        }
    }

    #[test]
    fn fast_cube_not_used_for_external_tables() {
        let e = engine();
        let compiled = e
            .compile("select prod, sum(sale) from Sales analyze by cube(prod, month)")
            .unwrap();
        assert!(compiled.fast_cube.is_some());
        let compiled = e
            .compile("select cust, sum(sale) from Sales group by cust")
            .unwrap();
        assert!(compiled.fast_cube.is_none());
    }

    #[test]
    fn order_by_and_limit() {
        let out = engine()
            .query("select cust, sum(sale) from Sales group by cust order by sum_sale desc")
            .unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(2)); // 90 > 60
        let out = engine()
            .query(
                "select prod, month, sum(sale) from Sales analyze by cube(prod, month) \
                 order by sum_sale desc limit 1",
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][2], Value::Float(150.0)); // the apex
    }

    #[test]
    fn order_by_multiple_keys_and_asc() {
        let out = engine()
            .query(
                "select cust, month, count(*) from Sales group by cust, month \
                    order by cust asc, month desc",
            )
            .unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(1));
        assert_eq!(out.rows()[0][1], Value::Int(3)); // cust 1's months desc
    }

    #[test]
    fn order_by_unknown_column_rejected() {
        let err = engine().query("select cust, sum(sale) from Sales group by cust order by bogus");
        assert!(err.is_err());
    }

    #[test]
    fn unknown_table_is_an_error() {
        let e = engine();
        assert!(e.query("select count(*) from Nope").is_err());
    }

    #[test]
    fn prepared_statement_rebinds_per_execution() {
        let e = engine();
        let stmt = e
            .prepare("select cust, sum(sale) from Sales where month = ? group by cust")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);
        let feb = e.execute_prepared(&stmt, &[Value::Int(2)]).unwrap();
        let inline = e
            .query("select cust, sum(sale) from Sales where month = 2 group by cust")
            .unwrap();
        assert!(feb.same_multiset(&inline));
        let mar = e.execute_prepared(&stmt, &[Value::Int(3)]).unwrap();
        assert_eq!(mar.len(), 1);
        assert_eq!(mar.rows()[0][1], Value::Float(20.0));
    }

    #[test]
    fn prepared_statement_params_reach_grouping_variables() {
        let e = engine();
        let stmt = e
            .prepare(
                "select cust, count(Z.*) from Sales group by cust ; Z \
                 such that Z.cust = cust and Z.sale > ?",
            )
            .unwrap();
        let out = e.execute_prepared(&stmt, &[Value::Float(25.0)]).unwrap();
        let inline = e
            .query(
                "select cust, count(Z.*) from Sales group by cust ; Z \
                 such that Z.cust = cust and Z.sale > 25.0",
            )
            .unwrap();
        assert!(out.same_multiset(&inline));
    }

    #[test]
    fn unbound_placeholder_rejected_by_direct_query() {
        let e = engine();
        let err = e
            .query("select count(*) from Sales where sale > ?")
            .unwrap_err();
        assert!(matches!(err, crate::SqlError::Bind(_)), "{err}");
    }

    #[test]
    fn wrong_bind_arity_rejected() {
        let e = engine();
        let stmt = e
            .prepare("select count(*) from Sales where sale > ?")
            .unwrap();
        assert!(e.execute_prepared(&stmt, &[]).is_err());
    }
}
