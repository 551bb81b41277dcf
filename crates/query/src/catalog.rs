//! Table catalogs: how plans resolve names to physical tables.

use crate::stats::{analyze_table, ColumnStats};
use backbone_storage::Table;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resolves table names for planning and execution.
pub trait Catalog: Send + Sync {
    /// Look up a table by name.
    fn table(&self, name: &str) -> Option<Arc<Table>>;

    /// Estimated row count for a table (used by the cost model). The default
    /// consults the table itself.
    fn row_count(&self, name: &str) -> Option<usize> {
        self.table(name).map(|t| t.num_rows())
    }

    /// `ANALYZE`-style statistics for a column, if the catalog maintains
    /// them. The default maintains none; [`MemCatalog`] computes lazily.
    fn column_stats(&self, _table: &str, _column: &str) -> Option<ColumnStats> {
        None
    }
}

/// A simple in-memory catalog.
#[derive(Default)]
pub struct MemCatalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    /// Lazily computed per-table column statistics. They are dropped only
    /// when a registration bumps `plan_version`, so stats stay exactly as
    /// fresh as the cached plans built from them and steady appends never
    /// re-ANALYZE.
    stats: RwLock<HashMap<String, Arc<Vec<ColumnStats>>>>,
    /// Monotonic version of everything a cached plan depends on: the set of
    /// tables, their schemas, and (coarsely) their sizes. Plan-cache keys
    /// include this, so a bump orphans every cached plan.
    plan_version: AtomicU64,
    /// Per-table row count at the last `plan_version` bump. Steady appends
    /// re-register the same table on every commit; re-planning each time
    /// would make the plan cache useless, and plans only change once stats
    /// move materially, so the version bumps on >=2x / <=1/2 drift instead.
    plan_rows: RwLock<HashMap<String, usize>>,
}

impl MemCatalog {
    /// An empty catalog.
    pub fn new() -> MemCatalog {
        MemCatalog::default()
    }

    /// Register (or replace) a bulk-loaded table. Its tail is sealed first,
    /// so a loaded table scans as row groups only.
    pub fn register(&self, name: impl Into<String>, mut table: Table) {
        table
            .flush()
            .expect("flush of consistent table cannot fail");
        self.register_arc(name, Arc::new(table));
    }

    /// Register a pre-shared table handle — how a commit publishes its
    /// snapshot (sealed groups, tail chunks and commit marks, all shared).
    pub fn register_arc(&self, name: impl Into<String>, table: Arc<Table>) {
        let name = name.into();
        if self.note_registration(&name, &table) {
            self.stats.write().remove(&name);
        }
        self.tables.write().insert(name, table);
    }

    /// The current plan version (see the field docs). Cached-plan keys must
    /// include this value.
    pub fn plan_version(&self) -> u64 {
        self.plan_version.load(Ordering::Acquire)
    }

    /// Bump the plan version when a registration changes what the optimizer
    /// would decide: a new or schema-changed table always does; a same-shape
    /// replacement only once its row count drifts past 2x (or under half)
    /// of the count at the previous bump. Returns whether it bumped.
    fn note_registration(&self, name: &str, table: &Arc<Table>) -> bool {
        let rows = table.num_rows();
        let schema_changed = match self.tables.read().get(name) {
            None => true,
            Some(old) => old.schema() != table.schema(),
        };
        let mut last = self.plan_rows.write();
        let drifted = match last.get(name) {
            None => true,
            Some(&prev) => {
                rows > prev.saturating_mul(2).saturating_add(16)
                    || rows.saturating_mul(2).saturating_add(16) < prev
            }
        };
        if schema_changed || drifted {
            last.insert(name.to_string(), rows);
            self.plan_version.fetch_add(1, Ordering::Release);
        }
        schema_changed || drifted
    }

    /// All column statistics of a table, computing and caching on first use.
    pub fn table_stats(&self, name: &str) -> Option<Arc<Vec<ColumnStats>>> {
        if let Some(cached) = self.stats.read().get(name) {
            return Some(cached.clone());
        }
        let version = self.plan_version();
        let table = self.table(name)?;
        let computed = Arc::new(analyze_table(&table));
        // A bump while analyzing means a newer registration already dropped
        // this table's stats; caching ours would resurrect stale ones.
        if self.plan_version() == version {
            self.stats
                .write()
                .insert(name.to_string(), computed.clone());
        }
        Some(computed)
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove a table, returning whether it existed.
    pub fn deregister(&self, name: &str) -> bool {
        let existed = self.tables.write().remove(name).is_some();
        if existed {
            self.plan_rows.write().remove(name);
            self.stats.write().remove(name);
            self.plan_version.fetch_add(1, Ordering::Release);
        }
        existed
    }
}

impl Catalog for MemCatalog {
    fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    fn column_stats(&self, table: &str, column: &str) -> Option<ColumnStats> {
        let idx = self.table(table)?.schema().index_of(column).ok()?;
        self.table_stats(table)?.get(idx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_storage::{DataType, Field, Schema, Value};

    fn make_table(rows: usize) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let mut t = Table::new(schema);
        for i in 0..rows {
            t.append_row(vec![Value::Int(i as i64)]).unwrap();
        }
        t
    }

    #[test]
    fn register_and_resolve() {
        let cat = MemCatalog::new();
        cat.register("t", make_table(5));
        assert!(cat.table("t").is_some());
        assert!(cat.table("missing").is_none());
        assert_eq!(cat.row_count("t"), Some(5));
    }

    #[test]
    fn register_flushes_pending_rows() {
        let cat = MemCatalog::new();
        cat.register("t", make_table(3));
        let t = cat.table("t").unwrap();
        // All rows must be visible through sealed groups.
        let total: usize = (0..t.num_groups()).map(|g| t.group_rows(g)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn plan_version_bumps_on_shape_not_on_every_append() {
        let cat = MemCatalog::new();
        let v0 = cat.plan_version();
        cat.register("t", make_table(100));
        let v1 = cat.plan_version();
        assert!(v1 > v0, "new table must bump");
        let s1 = cat.table_stats("t").unwrap();
        // Steady drip of appends: same schema, <2x growth -> no bump, and
        // the stats the cached plans were built from stay cached too.
        cat.register("t", make_table(120));
        cat.register("t", make_table(150));
        assert_eq!(cat.plan_version(), v1, "small drift must not bump");
        assert!(Arc::ptr_eq(&s1, &cat.table_stats("t").unwrap()));
        // Crossing 2x of the last-bumped count (100) re-plans and
        // re-analyzes.
        cat.register("t", make_table(400));
        let v2 = cat.plan_version();
        assert!(v2 > v1, "2x drift must bump");
        let s2 = cat.table_stats("t").unwrap();
        assert!(!Arc::ptr_eq(&s1, &s2), "2x drift must drop stats");
        assert_eq!(s2[0].row_count, 400);
        // Schema change always bumps, regardless of size.
        let schema = Schema::new(vec![Field::new("y", DataType::Int64)]);
        cat.register("t", Table::new(schema));
        let v3 = cat.plan_version();
        assert!(v3 > v2, "schema change must bump");
        let s3 = cat.table_stats("t").unwrap();
        assert!(!Arc::ptr_eq(&s2, &s3), "schema change must drop stats");
        assert_eq!(s3[0].row_count, 0);
        // Dropping a table bumps too.
        cat.deregister("t");
        assert!(cat.plan_version() > v3);
    }

    #[test]
    fn names_and_deregister() {
        let cat = MemCatalog::new();
        cat.register("b", make_table(1));
        cat.register("a", make_table(1));
        assert_eq!(cat.table_names(), vec!["a", "b"]);
        assert!(cat.deregister("a"));
        assert!(!cat.deregister("a"));
    }
}
