//! Catalog: table, column, and index statistics for the simulated
//! engines.
//!
//! Both simulated optimizers estimate costs from the same classic
//! statistics a 2008-era system kept: row counts, row widths, column
//! distinct-value counts (NDV), and single-column B-tree indexes with
//! derived height and leaf page counts.

use crate::{DbError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Database page size in bytes shared by both simulated engines
/// (PostgreSQL's 8 KiB, which the paper's calibration programs also
/// use).
pub const PAGE_BYTES: f64 = 8192.0;

/// Approximate number of index entries per B-tree leaf page.
const INDEX_ENTRIES_PER_LEAF: f64 = 256.0;

/// B-tree fanout used to derive index height.
const INDEX_FANOUT: f64 = 256.0;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (lower-cased on insertion).
    pub name: String,
    /// Number of distinct values.
    pub ndv: f64,
    /// Average stored width in bytes.
    pub avg_width: f64,
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name (lower-cased).
    pub name: String,
    /// Row count.
    pub rows: f64,
    /// Average row width in bytes.
    pub row_width: f64,
    /// Column statistics in declaration order.
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// Heap pages occupied by the table.
    pub fn pages(&self) -> f64 {
        (self.rows * self.row_width / PAGE_BYTES).max(1.0)
    }

    /// Look up a column by (lower-cased) name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A single-column B-tree index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Indexed table (lower-cased).
    pub table: String,
    /// Indexed column (lower-cased).
    pub column: String,
}

impl IndexDef {
    /// Leaf pages given the indexed table's row count.
    pub fn leaf_pages(&self, table_rows: f64) -> f64 {
        (table_rows / INDEX_ENTRIES_PER_LEAF).max(1.0)
    }

    /// Height of the B-tree (root-to-leaf internal page reads).
    pub fn height(&self, table_rows: f64) -> f64 {
        let leaves = self.leaf_pages(table_rows);
        (leaves.ln() / INDEX_FANOUT.ln()).ceil().max(1.0)
    }
}

/// The catalog of one simulated database instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
    indexes: Vec<IndexDef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table; names are lower-cased for case-insensitive SQL.
    pub fn add_table(&mut self, mut table: TableDef) -> &mut Self {
        table.name = table.name.to_ascii_lowercase();
        for c in &mut table.columns {
            c.name = c.name.to_ascii_lowercase();
        }
        self.tables.insert(table.name.clone(), table);
        self
    }

    /// Register a single-column index; fails if the table or column is
    /// unknown.
    pub fn add_index(&mut self, index: IndexDef) -> Result<&mut Self> {
        let mut index = index;
        index.table = index.table.to_ascii_lowercase();
        index.column = index.column.to_ascii_lowercase();
        let table = self
            .tables
            .get(&index.table)
            .ok_or_else(|| DbError::Catalog(format!("index over unknown table {}", index.table)))?;
        if table.column(&index.column).is_none() {
            return Err(DbError::Catalog(format!(
                "index over unknown column {}.{}",
                index.table, index.column
            )));
        }
        self.indexes.push(index);
        Ok(self)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// All registered tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// The index over `table.column`, if any.
    pub fn index_on(&self, table: &str, column: &str) -> Option<&IndexDef> {
        let t = table.to_ascii_lowercase();
        let c = column.to_ascii_lowercase();
        self.indexes.iter().find(|i| i.table == t && i.column == c)
    }

    /// All indexes over `table`.
    pub fn indexes_for(&self, table: &str) -> impl Iterator<Item = &IndexDef> {
        let t = table.to_ascii_lowercase();
        self.indexes.iter().filter(move |i| i.table == t)
    }

    /// Total heap pages over all tables — the working-set size used by
    /// cache modelling.
    pub fn total_pages(&self) -> f64 {
        self.tables.values().map(TableDef::pages).sum()
    }

    /// Stable identity of the catalog's statistics. Two catalogs with
    /// the same signature produce the same optimizer estimates, so the
    /// advisor's probe cache keys entries by it (through the tenant
    /// fingerprint). Tables live
    /// in a `BTreeMap`, making the `Debug` rendering deterministic.
    pub fn signature(&self) -> u64 {
        crate::hash::fnv1a(&format!("{:?}", self))
    }
}

/// Convenience builder for tests and workload catalogs.
pub fn table(name: &str, rows: f64, row_width: f64, columns: &[(&str, f64, f64)]) -> TableDef {
    TableDef {
        name: name.to_string(),
        rows,
        row_width,
        columns: columns
            .iter()
            .map(|&(n, ndv, w)| ColumnDef {
                name: n.to_string(),
                ndv,
                avg_width: w,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(table(
            "Orders",
            1_500_000.0,
            120.0,
            &[
                ("o_orderkey", 1_500_000.0, 8.0),
                ("o_custkey", 100_000.0, 8.0),
            ],
        ));
        cat.add_index(IndexDef {
            name: "orders_pk".into(),
            table: "orders".into(),
            column: "o_orderkey".into(),
        })
        .unwrap();
        cat
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let cat = sample();
        assert!(cat.table("ORDERS").is_some());
        assert!(cat.table("orders").is_some());
        assert!(cat.table("nope").is_none());
    }

    #[test]
    fn pages_derived_from_rows_and_width() {
        let cat = sample();
        let t = cat.table("orders").unwrap();
        let expect = 1_500_000.0 * 120.0 / PAGE_BYTES;
        assert!((t.pages() - expect).abs() < 1e-6);
    }

    #[test]
    fn index_registration_validates_target() {
        let mut cat = sample();
        let bad = IndexDef {
            name: "x".into(),
            table: "orders".into(),
            column: "missing".into(),
        };
        assert!(cat.add_index(bad).is_err());
        let worse = IndexDef {
            name: "y".into(),
            table: "missing".into(),
            column: "c".into(),
        };
        assert!(cat.add_index(worse).is_err());
    }

    #[test]
    fn index_geometry_is_positive_and_monotone() {
        let idx = IndexDef {
            name: "i".into(),
            table: "t".into(),
            column: "c".into(),
        };
        assert!(idx.leaf_pages(1000.0) >= 1.0);
        assert!(idx.leaf_pages(1e8) > idx.leaf_pages(1e4));
        assert!(idx.height(1e8) >= idx.height(1e4));
        assert!(idx.height(100.0) >= 1.0);
    }

    #[test]
    fn index_lookup_by_table_and_column() {
        let cat = sample();
        assert!(cat.index_on("orders", "o_orderkey").is_some());
        assert!(cat.index_on("orders", "o_custkey").is_none());
        assert_eq!(cat.indexes_for("orders").count(), 1);
    }

    #[test]
    fn total_pages_sums_tables() {
        let cat = sample();
        assert!((cat.total_pages() - cat.table("orders").unwrap().pages()).abs() < 1e-9);
    }
}
