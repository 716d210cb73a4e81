//! A named-relation catalog with versioned entries and an append path.
//!
//! Relations are stored behind `Arc` so plans, base-value builders, and
//! parallel evaluators can hold references without copying data. Each entry
//! also carries a monotonically increasing **version** and catalog-resident
//! [`TableStats`] (min/max/NDV, refreshed incrementally), and the catalog is
//! internally synchronized so [`ingest`](Catalog::ingest) can fold new detail
//! batches in through a shared `&Catalog` — e.g. through the engine's shared
//! `Arc<EngineConfig>` — without disturbing in-flight readers: an append
//! produces a *new* `Arc<Relation>` (copy-on-write at whole-relation
//! granularity), so queries that already resolved a table keep scanning the
//! snapshot they started with.

use crate::error::{Result, StorageError};
use crate::pager::PagedTable;
use crate::relation::Relation;
use crate::row::Row;
use crate::stats::TableStats;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

#[derive(Debug, Clone)]
struct TableEntry {
    rel: Arc<Relation>,
    version: u64,
    stats: Arc<TableStats>,
    /// Disk-resident backing for this table, when it was opened from (or
    /// persisted to) a paged store. Executors that see this can run
    /// Theorem 4.2 scans as page-range reads instead of slice scans.
    paged: Option<Arc<PagedTable>>,
}

/// The result of one [`Catalog::ingest`] batch: the relation snapshots before
/// and after the append (pointer-distinct, so caches keyed by relation
/// identity can invalidate precisely), the new version, and the refreshed
/// statistics.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Table name the batch was folded into.
    pub table: String,
    /// The snapshot readers saw before the append.
    pub old: Arc<Relation>,
    /// The snapshot readers see after the append (old rows + batch rows).
    pub new: Arc<Relation>,
    /// The rows appended, post string-interning (exactly the tail of `new`).
    pub appended: Vec<Row>,
    /// Entry version after the append (bumps by 1 per batch).
    pub version: u64,
    /// Statistics folded forward over the batch.
    pub stats: Arc<TableStats>,
}

/// Maps relation names to shared, immutable relation snapshots.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, TableEntry>>,
}

impl Clone for Catalog {
    /// Snapshot clone: the map is copied (cheap `Arc` bumps), so the clone's
    /// view is frozen at clone time and later `ingest` calls against the
    /// original do not leak into it — per-query catalog snapshots stay
    /// isolated.
    fn clone(&self) -> Self {
        Catalog {
            tables: RwLock::new(self.read().clone()),
        }
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, TableEntry>> {
        self.tables.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, TableEntry>> {
        self.tables.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Register (or replace) a relation under `name`. Statistics are computed
    /// in one pass; replacing bumps the entry version so staleness is
    /// observable.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) {
        self.register_arc(name, Arc::new(relation));
    }

    /// Register an already-shared relation.
    pub fn register_arc(&mut self, name: impl Into<String>, relation: Arc<Relation>) {
        let name = name.into();
        let stats = Arc::new(TableStats::compute(&relation));
        let mut tables = self.write();
        let version = tables.get(&name).map_or(1, |e| e.version + 1);
        tables.insert(
            name,
            TableEntry {
                rel: relation,
                version,
                stats,
                paged: None,
            },
        );
    }

    /// Attach a disk-resident [`PagedTable`] as the backing store of an
    /// already-registered table. The in-memory snapshot remains the source
    /// of truth for row order; the paged handle lets executors stream the
    /// same rows from disk and lets ingest persist appends.
    pub fn attach_paged(&self, name: &str, paged: Arc<PagedTable>) -> Result<()> {
        let mut tables = self.write();
        let entry = tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))?;
        entry.paged = Some(paged);
        Ok(())
    }

    /// The disk-resident backing of `name`, if attached.
    pub fn paged(&self, name: &str) -> Option<Arc<PagedTable>> {
        self.read().get(name).and_then(|e| e.paged.clone())
    }

    /// Fold a batch of new rows into `name` (Algorithm 3.1's append path).
    ///
    /// Rows are validated against the table schema, string values are
    /// interned against the table dictionary (growing it for unseen strings),
    /// statistics are folded forward, and a new relation snapshot replaces
    /// the entry under a bumped version. Readers holding the old `Arc` are
    /// untouched. Takes `&self`: ingest is a runtime operation on a shared
    /// catalog, not a setup-time one.
    pub fn ingest(&self, name: &str, rows: Vec<Row>) -> Result<IngestOutcome> {
        let mut tables = self.write();
        let entry = tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))?;
        // Validate the whole batch before touching any state: a bad row
        // rejects the batch atomically.
        let mut staged = Relation::empty(entry.rel.schema().clone());
        for row in rows {
            staged.push(row)?;
        }
        let mut batch = staged.into_rows();
        let mut stats = (*entry.stats).clone();
        stats.fold_rows(&mut batch);
        let mut rows = Vec::with_capacity(entry.rel.len() + batch.len());
        rows.extend(entry.rel.iter().cloned());
        rows.extend(batch.iter().cloned());
        let grown = Relation::from_rows(entry.rel.schema().clone(), rows);
        let old = std::mem::replace(&mut entry.rel, Arc::new(grown));
        entry.version += 1;
        entry.stats = Arc::new(stats);
        Ok(IngestOutcome {
            table: name.to_string(),
            old,
            new: entry.rel.clone(),
            appended: batch,
            version: entry.version,
            stats: entry.stats.clone(),
        })
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Result<Arc<Relation>> {
        self.read()
            .get(name)
            .map(|e| e.rel.clone())
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Current version of the named entry (1 at first registration, +1 per
    /// replace or ingest batch).
    pub fn version(&self, name: &str) -> Result<u64> {
        self.read()
            .get(name)
            .map(|e| e.version)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Catalog-resident statistics for the named table.
    pub fn table_stats(&self, name: &str) -> Result<Arc<TableStats>> {
        self.read()
            .get(name)
            .map(|e| e.stats.clone())
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Remove a relation, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Relation>> {
        self.write().remove(name).map(|e| e.rel)
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn rel() -> Relation {
        Relation::empty(Schema::from_pairs(&[("x", DataType::Int)]))
    }

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        c.register("Sales", rel());
        assert!(c.contains("Sales"));
        assert_eq!(c.get("Sales").unwrap().schema().names(), vec!["x"]);
        assert!(matches!(
            c.get("Payments"),
            Err(StorageError::UnknownRelation(_))
        ));
    }

    #[test]
    fn replace_overwrites() {
        let mut c = Catalog::new();
        c.register("T", rel());
        let other = Relation::empty(Schema::from_pairs(&[("y", DataType::Str)]));
        c.register("T", other);
        assert_eq!(c.get("T").unwrap().schema().names(), vec!["y"]);
        assert_eq!(c.len(), 1);
        // Replacing is a version bump, not a fresh entry.
        assert_eq!(c.version("T").unwrap(), 2);
    }

    #[test]
    fn names_are_sorted() {
        let mut c = Catalog::new();
        c.register("b", rel());
        c.register("a", rel());
        assert_eq!(c.names(), vec!["a", "b"]);
    }

    #[test]
    fn shared_arcs_avoid_copies() {
        let mut c = Catalog::new();
        c.register("T", rel());
        let a = c.get("T").unwrap();
        let b = c.get("T").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    fn sales() -> Relation {
        let schema = Schema::from_pairs(&[
            ("cust", DataType::Int),
            ("state", DataType::Str),
            ("sale", DataType::Float),
        ]);
        Relation::try_new(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::str("NY"), Value::Float(10.0)]),
                Row::from_values(vec![Value::Int(2), Value::str("CA"), Value::Float(20.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ingest_appends_under_a_new_version() {
        let mut c = Catalog::new();
        c.register("Sales", sales());
        let before = c.get("Sales").unwrap();
        let out = c
            .ingest(
                "Sales",
                vec![Row::from_values(vec![
                    Value::Int(3),
                    Value::str("NY"),
                    Value::Float(30.0),
                ])],
            )
            .unwrap();
        assert_eq!(out.version, 2);
        assert_eq!(out.new.len(), 3);
        assert!(Arc::ptr_eq(&out.old, &before));
        assert!(!Arc::ptr_eq(&out.old, &out.new));
        // The reader's snapshot is untouched; the catalog now serves the new one.
        assert_eq!(before.len(), 2);
        assert!(Arc::ptr_eq(&c.get("Sales").unwrap(), &out.new));
        assert_eq!(c.version("Sales").unwrap(), 2);
    }

    #[test]
    fn ingest_rejects_bad_rows_atomically() {
        let mut c = Catalog::new();
        c.register("Sales", sales());
        let err = c.ingest(
            "Sales",
            vec![
                Row::from_values(vec![Value::Int(3), Value::str("NY"), Value::Float(30.0)]),
                Row::from_values(vec![Value::str("oops")]),
            ],
        );
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        // Nothing was appended, nothing was versioned.
        assert_eq!(c.get("Sales").unwrap().len(), 2);
        assert_eq!(c.version("Sales").unwrap(), 1);
        assert!(matches!(
            c.ingest("Nope", vec![]),
            Err(StorageError::UnknownRelation(_))
        ));
    }

    #[test]
    fn ingest_interns_strings_and_folds_stats() {
        let mut c = Catalog::new();
        c.register("Sales", sales());
        let s0 = c.table_stats("Sales").unwrap();
        assert_eq!(s0.rows(), 2);
        assert_eq!(s0.column("state").unwrap().dict_len(), Some(2));
        assert_eq!(s0.column("sale").unwrap().max, Some(Value::Float(20.0)));
        let out = c
            .ingest(
                "Sales",
                vec![
                    Row::from_values(vec![Value::Int(9), Value::str("NY"), Value::Float(90.0)]),
                    Row::from_values(vec![Value::Int(9), Value::str("TX"), Value::Null]),
                ],
            )
            .unwrap();
        // "NY" was interned against the resident dictionary entry...
        let resident = out.old.rows()[0][1].clone();
        let (Value::Str(a), Value::Str(b)) = (&resident, &out.appended[0][1]) else {
            panic!("state column must hold strings");
        };
        assert!(Arc::ptr_eq(a, b));
        // ...and "TX" grew it.
        let s1 = c.table_stats("Sales").unwrap();
        assert_eq!(s1.rows(), 4);
        assert_eq!(s1.column("state").unwrap().dict_len(), Some(3));
        assert_eq!(s1.column("sale").unwrap().max, Some(Value::Float(90.0)));
        assert_eq!(s1.column("sale").unwrap().null_count, 1);
        assert_eq!(s1.column("cust").unwrap().max, Some(Value::Int(9)));
        // Folding forward matches a from-scratch pass over the merged rows.
        assert_eq!(*s1, TableStats::compute(&out.new));
        // The register-time snapshot is unchanged.
        assert_eq!(s0.rows(), 2);
    }

    #[test]
    fn clone_is_an_isolated_snapshot() {
        let mut c = Catalog::new();
        c.register("Sales", sales());
        let snap = c.clone();
        // Snapshots share relation memory with the original...
        assert!(Arc::ptr_eq(
            &snap.get("Sales").unwrap(),
            &c.get("Sales").unwrap()
        ));
        // ...but ingest into the original does not leak into the snapshot.
        c.ingest(
            "Sales",
            vec![Row::from_values(vec![
                Value::Int(3),
                Value::str("NY"),
                Value::Float(30.0),
            ])],
        )
        .unwrap();
        assert_eq!(snap.get("Sales").unwrap().len(), 2);
        assert_eq!(c.get("Sales").unwrap().len(), 3);
    }

    #[test]
    fn query_snapshot_survives_concurrent_ingest() {
        let mut c = Catalog::new();
        c.register("Sales", sales());
        // What a plan's table leaf holds: a copy-on-write clone of the
        // catalog relation, sharing its rows.
        let leaf = c.get("Sales").unwrap().as_ref().clone();
        let before = leaf.rows().to_vec();
        std::thread::scope(|s| {
            for t in 0..2i64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..50 {
                        let row = Row::from_values(vec![
                            Value::Int(100 * t + i),
                            Value::str("NJ"),
                            Value::Float(1.0),
                        ]);
                        c.ingest("Sales", vec![row]).unwrap();
                    }
                });
            }
            // Read the leaf while the ingests run.
            for _ in 0..50 {
                assert_eq!(leaf.rows(), &before[..]);
            }
        });
        assert_eq!(leaf.rows(), &before[..]);
        assert_eq!(c.get("Sales").unwrap().len(), 102);
        assert_eq!(c.version("Sales").unwrap(), 101);
    }
}
