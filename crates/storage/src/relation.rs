//! In-memory relations (multisets of rows with a schema).

use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// An in-memory relation: a schema plus a multiset of rows.
///
/// Relations are the single exchange format between every operator in the
/// reproduction: base-values tables `B`, detail tables `R`, and MD-join outputs
/// are all `Relation`s, exactly as in the paper ("the base values table B as
/// well as the relation R can be the result of a relational algebra
/// expression").
///
/// The rows are copy-on-write: `Clone` shares them behind an `Arc`, so
/// handing a catalog table, an inline plan leaf, or a cached cuboid to an
/// operator costs a refcount bump. The first mutation through `push`,
/// `push_unchecked`, `rows_mut` or `sort_by` copies the rows if another
/// clone still shares them, so no clone ever observes another's writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    rows: Arc<Vec<Row>>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && (Arc::ptr_eq(&self.rows, &other.rows) || self.rows == other.rows)
    }
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation::from_rows(schema, Vec::new())
    }

    /// Build from parts without validation (rows are trusted).
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Self {
        Relation {
            schema,
            rows: Arc::new(rows),
        }
    }

    /// Build from parts, validating every row's arity and column types.
    pub fn try_new(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for row in &rows {
            Self::validate_row(&schema, row)?;
        }
        Ok(Relation::from_rows(schema, rows))
    }

    fn validate_row(schema: &Schema, row: &Row) -> Result<()> {
        if row.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                got: row.len(),
            });
        }
        for (i, v) in row.values().iter().enumerate() {
            let field = schema.field(i);
            if !field.dtype.admits(v) {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.to_string(),
                    got: v.type_name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Append a row, validating it against the schema.
    pub fn push(&mut self, row: Row) -> Result<()> {
        Self::validate_row(&self.schema, &row)?;
        self.rows_mut().push(row);
        Ok(())
    }

    /// Append a row without validation.
    pub fn push_unchecked(&mut self, row: Row) {
        self.rows_mut().push(row);
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Mutable rows; copies them first if another clone shares them.
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        Arc::make_mut(&mut self.rows)
    }

    /// The rows, moved out when this relation is their only owner and
    /// copied when a clone still shares them.
    pub fn into_rows(self) -> Vec<Row> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Column index lookup, delegated to the schema.
    pub fn col(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Project to the named columns (duplicates allowed, order preserved).
    pub fn project(&self, names: &[&str]) -> Result<Relation> {
        let idx = self.schema.indices_of(names)?;
        let schema = self.schema.project(&idx);
        let rows = self.rows.iter().map(|r| Row::new(r.key(&idx))).collect();
        Ok(Relation::from_rows(schema, rows))
    }

    /// `SELECT DISTINCT` over the named columns — the paper's canonical way of
    /// building a group-by base-values table (`select distinct cust from Sales`).
    pub fn distinct_on(&self, names: &[&str]) -> Result<Relation> {
        let idx = self.schema.indices_of(names)?;
        let schema = self.schema.project(&idx);
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut rows = Vec::new();
        for r in self.rows.iter() {
            let key = r.key(&idx);
            if seen.insert(key.clone()) {
                rows.push(Row::new(key));
            }
        }
        Ok(Relation::from_rows(schema, rows))
    }

    /// Remove duplicate rows (full-row distinct).
    pub fn distinct(&self) -> Relation {
        let mut seen: HashSet<Row> = HashSet::new();
        let mut rows = Vec::new();
        for r in self.rows.iter() {
            if seen.insert(r.clone()) {
                rows.push(r.clone());
            }
        }
        Relation::from_rows(self.schema.clone(), rows)
    }

    /// Filter by a row predicate.
    pub fn filter(&self, mut pred: impl FnMut(&Row) -> bool) -> Relation {
        Relation::from_rows(
            self.schema.clone(),
            self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        )
    }

    /// Multiset union with an identically-shaped relation (Theorem 4.1 glue).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        if self.schema.len() != other.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                got: other.schema.len(),
            });
        }
        let mut rows = Vec::with_capacity(self.len() + other.len());
        rows.extend(self.rows.iter().cloned());
        rows.extend(other.rows.iter().cloned());
        Ok(Relation::from_rows(self.schema.clone(), rows))
    }

    /// In-place stable sort by the named columns (ascending, total order).
    pub fn sort_by(&mut self, names: &[&str]) -> Result<()> {
        let idx = self.schema.indices_of(names)?;
        self.rows_mut().sort_by_key(|row| row.key(&idx));
        Ok(())
    }

    /// Copy with a qualified schema (`alias.column` names).
    pub fn with_alias(&self, alias: &str) -> Relation {
        Relation {
            schema: self.schema.qualify(alias),
            rows: self.rows.clone(),
        }
    }

    /// Replace the schema (must have the same arity). Used by renaming steps.
    pub fn with_schema(&self, schema: Schema) -> Result<Relation> {
        if schema.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                got: schema.len(),
            });
        }
        Ok(Relation {
            schema,
            rows: self.rows.clone(),
        })
    }

    /// Compare as unordered multisets (test helper: operator outputs are
    /// order-insensitive).
    pub fn same_multiset(&self, other: &Relation) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a = self.rows.as_ref().clone();
        let mut b = other.rows.as_ref().clone();
        a.sort();
        b.sort();
        a == b
    }

    /// Multiset comparison with relative float tolerance. Needed when the
    /// same aggregate is computed by plans that sum floats in different
    /// orders (e.g. a roll-up chain vs a direct scan): the results are
    /// mathematically equal but not bit-identical.
    pub fn approx_same_multiset(&self, other: &Relation, eps: f64) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a = self.rows.as_ref().clone();
        let mut b = other.rows.as_ref().clone();
        a.sort();
        b.sort();
        a.iter().zip(&b).all(|(x, y)| {
            x.len() == y.len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, w)| match (u, w) {
                        (Value::Float(p), Value::Float(q)) => {
                            let scale = p.abs().max(q.abs()).max(1.0);
                            (p - q).abs() <= eps * scale
                        }
                        _ => u == w,
                    })
        })
    }
}

impl fmt::Display for Relation {
    /// Render as an aligned ASCII table (used by the examples and the harness).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|fl| fl.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        write_sep(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:w$} |")?;
        }
        writeln!(f)?;
        write_sep(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)?;
        }
        write_sep(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::try_new(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(10.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("NJ"), Value::Float(20.0)]),
                Row::from_values(vec![Value::Int(2), Value::str("NY"), Value::Float(30.0)]),
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(40.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn try_new_validates_types() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let bad = Relation::try_new(schema.clone(), vec![Row::from_values(["oops"])]);
        assert!(matches!(bad, Err(StorageError::TypeMismatch { .. })));
        let ok = Relation::try_new(schema, vec![Row::from_values([1i64])]);
        assert!(ok.is_ok());
    }

    #[test]
    fn push_validates_arity() {
        let mut r = rel();
        let e = r.push(Row::from_values([1i64]));
        assert!(matches!(e, Err(StorageError::ArityMismatch { .. })));
    }

    #[test]
    fn distinct_on_builds_base_values() {
        let b = rel().distinct_on(&["cust"]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.schema().names(), vec!["cust"]);
    }

    #[test]
    fn distinct_on_two_columns() {
        let b = rel().distinct_on(&["cust", "state"]).unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn project_allows_duplicates_and_reorder() {
        let p = rel().project(&["sale", "cust", "sale"]).unwrap();
        assert_eq!(p.schema().names(), vec!["sale", "cust", "sale"]);
        assert_eq!(p.rows()[0][0], Value::Float(10.0));
        assert_eq!(p.rows()[0][2], Value::Float(10.0));
    }

    #[test]
    fn union_concatenates_multisets() {
        let r = rel();
        let u = r.union(&r).unwrap();
        assert_eq!(u.len(), 8);
    }

    #[test]
    fn sort_by_orders_rows() {
        let mut r = rel();
        r.sort_by(&["state", "sale"]).unwrap();
        assert_eq!(r.rows()[0][1], Value::str("NJ"));
        assert_eq!(r.rows()[1][2], Value::Float(10.0));
    }

    #[test]
    fn same_multiset_ignores_order() {
        let mut r2 = rel();
        r2.rows_mut().reverse();
        assert!(rel().same_multiset(&r2));
        let mut r3 = rel();
        r3.rows_mut().pop();
        assert!(!rel().same_multiset(&r3));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let f = rel().filter(|r| r[1] == Value::str("NY"));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn display_renders_table() {
        let s = rel().to_string();
        assert!(s.contains("cust"));
        assert!(s.contains("NY"));
        assert!(s.starts_with('+'));
    }

    #[test]
    fn clone_shares_rows_until_a_write() {
        let original = rel();
        let snapshot = original.rows().to_vec();

        let mut pushed = original.clone();
        assert_eq!(pushed.rows().as_ptr(), original.rows().as_ptr());
        pushed
            .push(Row::from_values(vec![
                Value::Int(3),
                Value::str("CT"),
                Value::Float(1.0),
            ]))
            .unwrap();
        assert_ne!(pushed.rows().as_ptr(), original.rows().as_ptr());
        assert_eq!(pushed.len(), 5);

        let mut mutated = original.clone();
        mutated.rows_mut()[0] =
            Row::from_values(vec![Value::Int(9), Value::str("TX"), Value::Float(0.0)]);
        mutated.push_unchecked(Row::from_values(vec![
            Value::Int(4),
            Value::str("NY"),
            Value::Float(2.0),
        ]));

        let mut sorted = original.clone();
        sorted.sort_by(&["sale"]).unwrap();
        sorted.rows_mut().reverse();

        assert_eq!(original.rows(), &snapshot[..]);
        assert_eq!(mutated.rows()[0][0], Value::Int(9));
        assert_eq!(sorted.rows()[0][2], Value::Float(40.0));
        // Relations derived without a write keep sharing.
        assert_eq!(
            original.with_alias("S").rows().as_ptr(),
            original.rows().as_ptr()
        );
    }

    #[test]
    fn into_rows_moves_when_unique_and_copies_when_shared() {
        let unique = rel();
        let at = unique.rows().as_ptr();
        let moved = unique.into_rows();
        assert_eq!(moved.as_ptr(), at);

        let shared = rel();
        let other = shared.clone();
        let at = shared.rows().as_ptr();
        let rows = shared.into_rows();
        assert_ne!(rows.as_ptr(), at);
        assert_eq!(rows, other.rows());
        // The remaining owner is now unique again.
        assert_eq!(other.rows().as_ptr(), at);
        let moved = other.into_rows();
        assert_eq!(moved.as_ptr(), at);
    }

    #[test]
    fn with_alias_qualifies_names() {
        let r = rel().with_alias("Sales");
        assert_eq!(r.schema().field(0).name, "Sales.cust");
        assert_eq!(r.col("sale").unwrap(), 2);
    }
}
