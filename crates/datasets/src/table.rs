//! Table and column-pair types shared across the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A named table: a header of column names plus rows of string cells.
///
/// Cells are strings because the problem domain is textual formatting
/// mismatches; numeric columns are carried through verbatim.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table name (used in reports).
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Row-major cells; every row must have `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given name and columns.
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Creates a single-column table from a list of values.
    pub fn single_column(
        name: impl Into<String>,
        column: impl Into<String>,
        values: Vec<String>,
    ) -> Self {
        Self {
            name: name.into(),
            columns: vec![column.into()],
            rows: values.into_iter().map(|v| vec![v]).collect(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column with the given name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The values of column `idx` as a vector of string slices.
    #[cfg(test)]
    pub(crate) fn column(&self, idx: usize) -> Vec<&str> {
        self.rows.iter().map(|r| r[idx].as_str()).collect()
    }

    /// The values of column `idx` cloned into owned strings.
    pub fn column_owned(&self, idx: usize) -> Vec<String> {
        self.rows.iter().map(|r| r[idx].clone()).collect()
    }

    /// Appends a row; panics when the arity does not match.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} does not match {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} rows)", self.name, self.row_count())?;
        writeln!(f, "  {}", self.columns.join(" | "))?;
        for row in self.rows.iter().take(10) {
            writeln!(f, "  {}", row.join(" | "))?;
        }
        if self.row_count() > 10 {
            writeln!(f, "  ... {} more rows", self.row_count() - 10)?;
        }
        Ok(())
    }
}

/// A pair of tables to be joined, together with the join columns and the
/// golden (ground-truth) row mapping used for evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TablePair {
    /// A short identifier for the pair (e.g. "web-03-governors").
    pub name: String,
    /// The source table (the paper tags the more descriptive column's table
    /// as the source).
    pub source: Table,
    /// The target table.
    pub target: Table,
    /// Index of the join column in the source table.
    pub source_join_column: usize,
    /// Index of the join column in the target table.
    pub target_join_column: usize,
    /// Ground-truth joinable row pairs `(source_row, target_row)`.
    pub golden_pairs: Vec<(u32, u32)>,
}

impl TablePair {
    /// Extracts the join columns and golden mapping as a [`ColumnPair`].
    pub fn column_pair(&self) -> ColumnPair {
        ColumnPair {
            name: self.name.clone(),
            source: self.source.column_owned(self.source_join_column),
            target: self.target.column_owned(self.target_join_column),
            golden: self.golden_pairs.clone(),
        }
    }
}

/// Converts a row index from `usize` to the `u32` row-id space of every
/// `(source_row, target_row)` pair: [`ColumnPair`] golden mappings, matcher
/// candidates, Auto-FuzzyJoin's pairs and predicted join pairs.
///
/// Every cast site in the matcher, baseline and join layers routes through
/// this helper so that a column with more than `u32::MAX` rows panics with
/// a clear message instead of silently truncating the index (and, with it,
/// silently mis-joining rows). Columns that large are rejected up front by
/// [`ColumnPair::new`] / [`ColumnPair::assert_row_indexable`]; this is the
/// backstop at the individual cast.
#[inline]
pub fn row_id(index: usize) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| {
        panic!("row index {index} exceeds the u32 row-id space (max {})", u32::MAX)
    })
}

/// The join columns of a table pair plus the golden row mapping: the unit of
/// work for row matching, transformation discovery, and evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnPair {
    /// Identifier (usually inherited from the table pair).
    pub name: String,
    /// Source column values.
    pub source: Vec<String>,
    /// Target column values.
    pub target: Vec<String>,
    /// Ground-truth joinable row pairs `(source_row, target_row)`.
    pub golden: Vec<(u32, u32)>,
}

impl ColumnPair {
    /// Checked constructor: builds a column pair after verifying both
    /// columns fit the `u32` row-id space (golden mappings, matcher
    /// candidates and predicted join pairs all index rows as `u32`).
    /// Columns with more than `u32::MAX` rows panic here, up front, instead
    /// of silently truncating indices deep inside the matcher or join.
    pub fn new(
        name: impl Into<String>,
        source: Vec<String>,
        target: Vec<String>,
        golden: Vec<(u32, u32)>,
    ) -> Self {
        let pair = Self {
            name: name.into(),
            source,
            target,
            golden,
        };
        pair.assert_row_indexable();
        pair
    }

    /// Panics with a clear message when either column has more rows than
    /// the `u32` row-id space can address. Called by [`ColumnPair::new`]
    /// and by the matcher/join entry points (the fields are public, so a
    /// pair built with a struct literal bypasses the constructor check).
    pub fn assert_row_indexable(&self) {
        assert!(
            self.source.len() <= u32::MAX as usize,
            "source column of {:?} has {} rows, exceeding the u32 row-id space",
            self.name,
            self.source.len()
        );
        assert!(
            self.target.len() <= u32::MAX as usize,
            "target column of {:?} has {} rows, exceeding the u32 row-id space",
            self.name,
            self.target.len()
        );
    }

    /// Creates a column pair where row `i` of the source joins row `i` of the
    /// target (the common case for generated data).
    pub fn aligned(
        name: impl Into<String>,
        source: Vec<String>,
        target: Vec<String>,
    ) -> Self {
        assert_eq!(source.len(), target.len(), "aligned pair requires equal length");
        let golden = (0..source.len()).map(|i| (row_id(i), row_id(i))).collect();
        Self::new(name, source, target, golden)
    }

    /// Number of source rows.
    pub fn source_len(&self) -> usize {
        self.source.len()
    }

    /// Number of target rows.
    pub fn target_len(&self) -> usize {
        self.target.len()
    }

    /// Average character length across both columns.
    pub fn average_value_length(&self) -> f64 {
        let n = self.source.len() + self.target.len();
        if n == 0 {
            return 0.0;
        }
        let total: usize = self
            .source
            .iter()
            .chain(self.target.iter())
            .map(|v| v.chars().count())
            .sum();
        total as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("staff", vec!["Name".into(), "Dept".into()]);
        t.push_row(vec!["Rafiei, Davood".into(), "CS".into()]);
        t.push_row(vec!["Bowling, Michael".into(), "CS".into()]);
        t
    }

    #[test]
    fn table_accessors() {
        let t = sample_table();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.column_index("Dept"), Some(1));
        assert_eq!(t.column_index("Phone"), None);
        assert_eq!(t.column(0), vec!["Rafiei, Davood", "Bowling, Michael"]);
        assert_eq!(t.column_owned(1), vec!["CS".to_owned(), "CS".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn push_row_arity_checked() {
        let mut t = sample_table();
        t.push_row(vec!["only-one-cell".into()]);
    }

    #[test]
    fn single_column_constructor() {
        let t = Table::single_column("emails", "Email", vec!["a@x".into()]);
        assert_eq!(t.column_count(), 1);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn display_truncates() {
        let mut t = Table::new("big", vec!["c".into()]);
        for i in 0..15 {
            t.push_row(vec![format!("row{i}")]);
        }
        let s = t.to_string();
        assert!(s.contains("... 5 more rows"));
    }

    #[test]
    fn table_pair_column_extraction() {
        let source = sample_table();
        let target = Table::single_column(
            "phones",
            "Name",
            vec!["D Rafiei".into(), "M Bowling".into()],
        );
        let pair = TablePair {
            name: "staff-phones".into(),
            source,
            target,
            source_join_column: 0,
            target_join_column: 0,
            golden_pairs: vec![(0, 0), (1, 1)],
        };
        let cp = pair.column_pair();
        assert_eq!(cp.source_len(), 2);
        assert_eq!(cp.target_len(), 2);
        assert_eq!(cp.golden, vec![(0, 0), (1, 1)]);
        assert_eq!((cp.source[0].as_str(), cp.target[0].as_str()), ("Rafiei, Davood", "D Rafiei"));
        assert!(cp.average_value_length() > 0.0);
    }

    #[test]
    fn aligned_column_pair() {
        let cp = ColumnPair::aligned("x", vec!["a".into(), "b".into()], vec!["A".into(), "B".into()]);
        assert_eq!(cp.golden, vec![(0, 0), (1, 1)]);
        assert!((cp.average_value_length() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn aligned_requires_equal_length() {
        let _ = ColumnPair::aligned("x", vec!["a".into()], vec![]);
    }

    #[test]
    fn empty_column_pair_stats() {
        let cp = ColumnPair::default();
        assert_eq!(cp.average_value_length(), 0.0);
        assert_eq!(cp.source_len(), 0);
    }

    #[test]
    fn row_id_roundtrips_in_range() {
        assert_eq!(row_id(0), 0);
        assert_eq!(row_id(12_345), 12_345);
        assert_eq!(row_id(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 row-id space")]
    fn row_id_rejects_truncating_indices() {
        // No allocation needed: the helper takes the index, not a column.
        let _ = row_id(u32::MAX as usize + 1);
    }

    #[test]
    fn checked_constructor_accepts_normal_columns() {
        let cp = ColumnPair::new(
            "ok",
            vec!["a".into()],
            vec!["A".into(), "A2".into()],
            vec![(0, 0), (0, 1)],
        );
        cp.assert_row_indexable();
        assert_eq!(cp.target_len(), 2);
    }
}
