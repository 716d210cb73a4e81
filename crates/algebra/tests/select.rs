//! σ and the predicate tree walk against a reference evaluator: same
//! answer on every row, over leaf-comparison conjunctions and over the
//! shapes around them (`Or`, `Not`, arithmetic, division, bare leaves).

use mdj_expr::builder::*;
use mdj_expr::{BinOp, Expr, ExprError, Side};
use mdj_storage::{DataType, Relation, Row, Schema, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

const COLS: [&str; 3] = ["a", "b", "c"];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("a", DataType::Any),
        ("b", DataType::Any),
        ("c", DataType::Any),
    ])
}

/// The tree walk's meaning, computed the slow way: every operand becomes
/// an owned `Value` first. A comparison with NULL or between incomparable
/// types is false, except `≠` between non-null values; `And` and `Or`
/// stop at the first operand that decides them; only `Bool(true)` is true.
fn reference(e: &Expr, b: &[Value], r: &[Value]) -> Result<Value, ExprError> {
    let truth = |e: &Expr| Ok::<_, ExprError>(reference(e, b, r)? == Value::Bool(true));
    match e {
        Expr::Col(c) => {
            let row = if c.side == Side::Base { b } else { r };
            Ok(row[COLS.iter().position(|n| *n == c.name).unwrap()].clone())
        }
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Not(x) => Ok(Value::Bool(!truth(x)?)),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And => Ok(Value::Bool(truth(lhs)? && truth(rhs)?)),
            BinOp::Or => Ok(Value::Bool(truth(lhs)? || truth(rhs)?)),
            op if op.is_comparison() => {
                let (l, rv) = (reference(lhs, b, r)?, reference(rhs, b, r)?);
                Ok(Value::Bool(match l.sql_cmp(&rv) {
                    Some(ord) => match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        _ => ord != Ordering::Less,
                    },
                    None => *op == BinOp::Ne && !l.is_null() && !rv.is_null(),
                }))
            }
            // Arithmetic is not what is under test: its operands here are
            // leaves, evaluated by the engine.
            _ => e.bind(Some(&schema()), Some(&schema()))?.eval(b, r),
        },
    }
}

/// Values across every comparison class: NULL, ALL, Int and Float that
/// collide across types (2 vs 2.0), strings, and booleans.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::All),
        (-2i64..3).prop_map(Value::Int),
        (-4i64..5).prop_map(|h| Value::Float(h as f64 / 2.0)),
        prop_oneof![Just("NY"), Just("NJ")].prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// A column of the given side, or a literal.
fn leaf(side: Option<Side>) -> BoxedStrategy<Expr> {
    let col = (0usize..3, any::<bool>()).prop_map(move |(i, base)| {
        match side.unwrap_or(if base { Side::Base } else { Side::Detail }) {
            Side::Base => col_b(COLS[i]),
            Side::Detail => col_r(COLS[i]),
        }
    });
    prop_oneof![col, value().prop_map(lit)].boxed()
}

fn comparison(side: Option<Side>) -> impl Strategy<Value = Expr> {
    let op = prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ];
    (op, leaf(side), leaf(side)).prop_map(|(op, lhs, rhs)| Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    })
}

/// 1–5 leaf comparisons joined by `And`, left- or right-nested.
fn conjunction(side: Option<Side>) -> impl Strategy<Value = Expr> {
    (
        proptest::collection::vec(comparison(side), 1..6),
        any::<bool>(),
    )
        .prop_map(|(terms, right_nested)| {
            if right_nested {
                let mut it = terms.into_iter().rev();
                let last = it.next().unwrap();
                it.fold(last, |acc, t| and(t, acc))
            } else {
                and_all(terms)
            }
        })
}

/// A leaf conjunction, or a shape around one: another connective, a
/// negation, arithmetic or division in an operand, or a bare leaf.
fn predicate(side: Option<Side>) -> impl Strategy<Value = Expr> {
    let (cmp, conj, leaf) = (
        || comparison(side),
        || conjunction(side),
        move || leaf(side),
    );
    prop_oneof![
        conj(),
        (cmp(), cmp()).prop_map(|(x, y)| or(x, y)),
        cmp().prop_map(not),
        (conj(), cmp()).prop_map(|(c, x)| and(c, not(x))),
        (leaf(), leaf(), leaf()).prop_map(|(x, y, z)| eq(add(x, y), z)),
        (leaf(), leaf(), leaf()).prop_map(|(x, y, z)| lt(x, div(y, z))),
        (conj(), leaf(), leaf()).prop_map(|(c, x, y)| and(c, ge(x, mul(y, lit(2i64))))),
        leaf(),
    ]
}

fn row() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value(), 3..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tree_walk_matches_the_reference(expr in predicate(None), b in row(), r in row()) {
        let bound = expr.bind(Some(&schema()), Some(&schema())).unwrap();
        let want = reference(&expr, &b, &r);
        // Errors (type errors, division by zero) surface the same way.
        prop_assert_eq!(bound.eval(&b, &r), want.clone());
        prop_assert_eq!(bound.eval_bool(&b, &r), want.map(|v| v == Value::Bool(true)));
    }

    #[test]
    fn sigma_matches_the_naive_reference(
        expr in predicate(Some(Side::Detail)),
        rows in proptest::collection::vec(row(), 0..24),
    ) {
        let rel = Relation::from_rows(schema(), rows.into_iter().map(Row::from_values).collect());
        let naive = mdj_naive::ops::select(&rel, &expr);
        let sigma = mdj_algebra::select(&rel, &expr);
        match naive {
            Ok(want) => {
                let kept = rel
                    .iter()
                    .filter(|t| reference(&expr, &[], t.values()) == Ok(Value::Bool(true)));
                prop_assert!(want.iter().eq(kept));
                let sigma = sigma.unwrap();
                prop_assert_eq!(sigma.rows(), want.rows());
            }
            Err(_) => prop_assert!(sigma.is_err()),
        }
    }
}
