//! Columnar arena storage for column text.
//!
//! Every layer of the pipeline walks columns of cell strings. Storing them
//! as `Vec<String>` costs one heap allocation per cell and a pointer chase
//! per access; a [`ColumnArena`] flattens a column into **one contiguous
//! UTF-8 buffer plus a `u32` end-offset per cell**, so scans are linear
//! walks over adjacent bytes, workers share a single `&ColumnArena` instead
//! of cloned strings, and the layout is trivially serializable (plain byte
//! ranges) once an on-disk corpus format lands.
//!
//! # Layout invariants
//!
//! * `offsets.len() == cell_count + 1`; `offsets[0] == 0` and
//!   `offsets[cell_count] == text.len()`.
//! * Cell `i` is the byte range `offsets[i]..offsets[i + 1]` of `text` —
//!   offsets are non-decreasing, and every offset is a `char` boundary
//!   (each cell was appended as a complete `&str`).
//! * `text.len() <= u32::MAX` and `cell_count <= u32::MAX`: construction is
//!   checked, returning a typed [`ArenaError`] instead of wrapping an
//!   offset or a row id. This is the same guard the inverted index applies
//!   to row ids (see [`checked_row_count`]).
//!
//! Because the invariants are enforced by every constructor, [`cell`]
//! slicing is plain safe `&text[start..end]` indexing — no `unsafe`, no
//! re-validation.
//!
//! # Who builds arenas
//!
//! Normalization owns arena construction: the corpus builds one
//! *normalized* arena per interned column (the matcher reads every column
//! through a corpus), and the equi-join builds one per column it scans
//! ([`try_push_normalized`]
//! streams [`normalize_append`] straight into the buffer — no per-cell
//! scratch `String`). Raw cells stay in the dataset's `Vec<String>`
//! columns, which implement [`CellText`] too. Everything downstream — stats,
//! index, matcher scan, equi-join probes — borrows `&str` slices out of the
//! arena and never copies cell text.
//!
//! [`cell`]: ColumnArena::cell
//! [`try_push_normalized`]: ColumnArena::try_push_normalized
//! [`normalize_append`]: crate::normalize::normalize_append

use crate::normalize::{normalize_append, NormalizeOptions};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed capacity overflow detected while building a [`ColumnArena`] or an
/// arena-backed artifact: the column does not fit the `u32` row-id / byte-
/// offset space. Returned instead of silently wrapping a cast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// The column has more cells than the `u32` row-id space can address.
    RowCountOverflow {
        /// The offending cell count.
        rows: usize,
    },
    /// The column's concatenated text exceeds the `u32` byte-offset space.
    ByteOffsetOverflow {
        /// The byte length that overflowed (saturated at `usize::MAX`).
        bytes: usize,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::RowCountOverflow { rows } => write!(
                f,
                "column has {rows} rows, exceeding the u32 row-id space (max {})",
                u32::MAX
            ),
            ArenaError::ByteOffsetOverflow { bytes } => write!(
                f,
                "column text spans {bytes} bytes, exceeding the u32 offset space (max {})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for ArenaError {}

/// Checks that a cell count fits the `u32` row-id space, so `row as u32`
/// casts over `0..count` are provably lossless. The local `tjoin-text`
/// counterpart of `tjoin_datasets::row_id` (this crate must not depend on
/// `tjoin-datasets`), used by [`crate::index::NGramIndex::try_build_on`]
/// and every arena constructor.
#[inline]
pub fn checked_row_count(rows: usize) -> Result<u32, ArenaError> {
    u32::try_from(rows).map_err(|_| ArenaError::RowCountOverflow { rows })
}

/// Read-only, thread-shareable access to a column's cell text by row index.
///
/// The one abstraction the arena refactor needs: stats/index construction,
/// corpus interning, and the matcher scan are generic over `CellText`, so
/// the same code path serves a flattened [`ColumnArena`] and the retained
/// `Vec<String>` reference representation (`&[S]` where `S: AsRef<str>`) —
/// which is what the differential suites compare bit-for-bit.
pub trait CellText: Sync {
    /// Number of cells (rows) in the column.
    fn cell_count(&self) -> usize;

    /// The text of cell `row`; panics when `row >= cell_count()`.
    fn cell(&self, row: usize) -> &str;

    /// Iterator over the cells in row order.
    fn cells(&self) -> Cells<'_, Self> {
        Cells { column: self, next: 0 }
    }
}

/// Row-order iterator over a [`CellText`] column (see [`CellText::cells`]).
#[derive(Debug)]
pub struct Cells<'a, C: ?Sized> {
    column: &'a C,
    next: usize,
}

impl<'a, C: CellText + ?Sized> Iterator for Cells<'a, C> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.next >= self.column.cell_count() {
            return None;
        }
        let cell = self.column.cell(self.next);
        self.next += 1;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.column.cell_count() - self.next;
        (left, Some(left))
    }
}

impl<C: CellText + ?Sized> ExactSizeIterator for Cells<'_, C> {}

impl<S: AsRef<str> + Sync> CellText for [S] {
    fn cell_count(&self) -> usize {
        self.len()
    }

    fn cell(&self, row: usize) -> &str {
        self[row].as_ref()
    }
}

impl<S: AsRef<str> + Sync> CellText for Vec<S> {
    fn cell_count(&self) -> usize {
        self.len()
    }

    fn cell(&self, row: usize) -> &str {
        self[row].as_ref()
    }
}

/// A column's cells flattened into one contiguous UTF-8 buffer plus `u32`
/// end-offsets — the columnar storage behind the corpus, the matcher scan,
/// and the equi-join (see the module docs for the layout invariants).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnArena {
    /// Concatenated cell text. Kept as a `String` so cell extraction is
    /// safe slicing: construction only ever appends whole `&str`s, so every
    /// recorded offset is a char boundary.
    text: String,
    /// `offsets[i]..offsets[i + 1]` is cell `i`; `offsets[0] == 0`.
    offsets: Vec<u32>,
}

impl Default for ColumnArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnArena {
    /// An empty arena (zero cells).
    pub fn new() -> Self {
        Self { text: String::new(), offsets: vec![0] }
    }

    /// Appends one cell, checking both capacity invariants. On error the
    /// arena is unchanged.
    pub fn try_push(&mut self, cell: &str) -> Result<(), ArenaError> {
        self.reserve_cell_slot()?;
        let end = self
            .text
            .len()
            .checked_add(cell.len())
            .ok_or(ArenaError::ByteOffsetOverflow { bytes: usize::MAX })?;
        if u32::try_from(end).is_err() {
            return Err(ArenaError::ByteOffsetOverflow { bytes: end });
        }
        self.text.push_str(cell);
        self.offsets.push(end as u32);
        Ok(())
    }

    /// Appends `cell` *normalized* per `options`, streaming
    /// [`normalize_append`] directly into the arena buffer — no scratch
    /// `String` per cell. On overflow the partial append is rolled back and
    /// the arena is unchanged.
    pub fn try_push_normalized(
        &mut self,
        cell: &str,
        options: &NormalizeOptions,
    ) -> Result<(), ArenaError> {
        self.reserve_cell_slot()?;
        let start = self.text.len();
        normalize_append(cell, options, &mut self.text);
        let end = self.text.len();
        if u32::try_from(end).is_err() {
            self.text.truncate(start);
            return Err(ArenaError::ByteOffsetOverflow { bytes: end });
        }
        self.offsets.push(end as u32);
        Ok(())
    }

    fn reserve_cell_slot(&self) -> Result<(), ArenaError> {
        let cells = self.len();
        if cells >= u32::MAX as usize {
            return Err(ArenaError::RowCountOverflow { rows: cells + 1 });
        }
        Ok(())
    }

    /// Builds an arena from any [`CellText`] column (a `Vec<String>` slice,
    /// another arena, ...), verbatim. Capacity violations are detected
    /// *before* any copying: the cell count and the summed byte length are
    /// checked first, so an over-large column is rejected cheaply.
    pub fn try_from_cells<C: CellText + ?Sized>(cells: &C) -> Result<Self, ArenaError> {
        let rows = cells.cell_count();
        checked_row_count(rows)?;
        let mut total: usize = 0;
        for row in 0..rows {
            total = total
                .checked_add(cells.cell(row).len())
                .ok_or(ArenaError::ByteOffsetOverflow { bytes: usize::MAX })?;
        }
        if u32::try_from(total).is_err() {
            return Err(ArenaError::ByteOffsetOverflow { bytes: total });
        }
        let mut arena = Self { text: String::with_capacity(total), offsets: Vec::with_capacity(rows + 1) };
        arena.offsets.push(0);
        for row in 0..rows {
            arena.try_push(cells.cell(row))?;
        }
        Ok(arena)
    }

    /// Infallible [`Self::try_from_cells`] for columns known to fit; panics
    /// with the typed error's message otherwise.
    pub fn from_cells<C: CellText + ?Sized>(cells: &C) -> Self {
        Self::try_from_cells(cells).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the arena of `cells` normalized per `options` (the corpus's
    /// per-column ingest step): one streaming [`normalize_append`] pass per
    /// cell, no intermediate `String`s.
    pub fn try_normalized<C: CellText + ?Sized>(
        cells: &C,
        options: &NormalizeOptions,
    ) -> Result<Self, ArenaError> {
        let rows = cells.cell_count();
        checked_row_count(rows)?;
        let mut arena = Self::new();
        arena.offsets.reserve(rows);
        for row in 0..rows {
            arena.try_push_normalized(cells.cell(row), options)?;
        }
        Ok(arena)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The text of cell `row` as a slice into the shared buffer; panics
    /// when `row >= len()`.
    #[inline]
    pub fn cell(&self, row: usize) -> &str {
        let start = self.offsets[row] as usize;
        let end = self.offsets[row + 1] as usize;
        &self.text[start..end]
    }

    /// Estimated memory footprint (text buffer + offset array), used by
    /// scalability reporting.
    pub fn approximate_bytes(&self) -> usize {
        self.text.len() + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

impl CellText for ColumnArena {
    fn cell_count(&self) -> usize {
        self.len()
    }

    fn cell(&self, row: usize) -> &str {
        ColumnArena::cell(self, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::column_fingerprint;

    #[test]
    fn roundtrips_cells_verbatim() {
        let cells = vec!["Rafiei, Davood".to_string(), String::new(), "αβγ".to_string()];
        let arena = ColumnArena::from_cells(cells.as_slice());
        assert_eq!(arena.len(), 3);
        assert!(!arena.is_empty());
        assert_eq!(arena.cell(0), "Rafiei, Davood");
        assert_eq!(arena.cell(1), "");
        assert_eq!(arena.cell(2), "αβγ");
        let collected: Vec<&str> = arena.cells().collect();
        assert_eq!(collected, vec!["Rafiei, Davood", "", "αβγ"]);
        assert_eq!(arena.text.len(), "Rafiei, Davood".len() + "αβγ".len());
        assert_eq!(arena.offsets.first(), Some(&0));
        assert_eq!(*arena.offsets.last().unwrap() as usize, arena.text.len());
    }

    #[test]
    fn empty_column_and_empty_cells() {
        let empty = ColumnArena::new();
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.cells().count(), 0);
        assert_eq!(empty.text.len(), 0);

        // A column of only empty cells is NOT the empty column: it has
        // cells, they are all "".
        let blanks = ColumnArena::from_cells(vec![String::new(); 4].as_slice());
        assert_eq!(blanks.len(), 4);
        assert_eq!(blanks.text.len(), 0);
        for row in 0..4 {
            assert_eq!(blanks.cell(row), "");
        }
        assert_ne!(column_fingerprint(&empty), column_fingerprint(&blanks));
    }

    #[test]
    fn cell_ending_exactly_at_offset_word_seam() {
        // Arrange cells so boundaries land exactly on 4-byte (u32 word)
        // multiples of the flat buffer: off-by-one offset bookkeeping would
        // bleed a byte across the seam.
        let cells: Vec<String> =
            vec!["abcd".into(), "efgh".into(), "".into(), "ijkl".into(), "m".into()];
        let arena = ColumnArena::from_cells(cells.as_slice());
        assert_eq!(arena.offsets, &[0, 4, 8, 8, 12, 13]);
        for (row, cell) in cells.iter().enumerate() {
            assert_eq!(arena.cell(row), cell, "row {row}");
        }
        // Multi-byte variant: "αβ" is 4 bytes, so the seam is also a char
        // boundary exactly at a word multiple.
        let uni = ColumnArena::from_cells(vec!["αβ".to_string(), "γδ".to_string()].as_slice());
        assert_eq!(uni.offsets, &[0, 4, 8]);
        assert_eq!(uni.cell(0), "αβ");
        assert_eq!(uni.cell(1), "γδ");
    }

    #[test]
    fn huge_row_count_rejected_before_reading_cells() {
        // A mock column "containing" more cells than the u32 row-id space:
        // the typed guard must fire from the count alone, never touching a
        // cell (cell() would panic).
        struct Huge;
        impl CellText for Huge {
            fn cell_count(&self) -> usize {
                u32::MAX as usize + 1
            }
            fn cell(&self, _row: usize) -> &str {
                unreachable!("over-large column must be rejected before any cell read")
            }
        }
        assert_eq!(
            ColumnArena::try_from_cells(&Huge),
            Err(ArenaError::RowCountOverflow { rows: u32::MAX as usize + 1 })
        );
        assert_eq!(
            ColumnArena::try_normalized(&Huge, &NormalizeOptions::default()),
            Err(ArenaError::RowCountOverflow { rows: u32::MAX as usize + 1 })
        );
        assert!(checked_row_count(u32::MAX as usize).is_ok());
        assert!(checked_row_count(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn huge_byte_total_rejected_before_copying() {
        // 4097 cells of 1 MiB exceed the u32 offset space; the summed
        // pre-check rejects without building the 4 GiB buffer.
        let megabyte = "x".repeat(1 << 20);
        struct Wide<'a> {
            cell: &'a str,
        }
        impl CellText for Wide<'_> {
            fn cell_count(&self) -> usize {
                4097
            }
            fn cell(&self, _row: usize) -> &str {
                self.cell
            }
        }
        let column = Wide { cell: &megabyte };
        assert_eq!(
            ColumnArena::try_from_cells(&column),
            Err(ArenaError::ByteOffsetOverflow { bytes: 4097 << 20 })
        );
    }

    #[test]
    fn error_messages_are_typed_and_clear() {
        let row = ArenaError::RowCountOverflow { rows: 5_000_000_000 };
        assert!(row.to_string().contains("u32 row-id space"));
        let byte = ArenaError::ByteOffsetOverflow { bytes: usize::MAX };
        assert!(byte.to_string().contains("u32 offset space"));
    }

    #[test]
    fn normalized_arena_matches_reference_normalization() {
        use crate::normalize::normalize_for_matching;
        let cells = vec![
            "  Prus-Czarnecki,   Andrzej ".to_string(),
            "ΟΔΥΣΣΕΥΣ".to_string(), // final sigma: str::to_lowercase context case
            String::new(),
            "MiXeD\tWS\n here".to_string(),
        ];
        let options = NormalizeOptions::default();
        let arena = ColumnArena::try_normalized(cells.as_slice(), &options).unwrap();
        for (row, cell) in cells.iter().enumerate() {
            assert_eq!(arena.cell(row), normalize_for_matching(cell, &options), "row {row}");
        }
    }

    #[test]
    fn arena_of_arena_is_identical() {
        let cells = vec!["one".to_string(), "αβγδ".to_string(), String::new()];
        let first = ColumnArena::from_cells(cells.as_slice());
        let second = ColumnArena::from_cells(&first);
        assert_eq!(first, second);
        assert_eq!(column_fingerprint(&first), column_fingerprint(&second));
    }

    #[test]
    fn cells_iterator_is_exact_size() {
        let arena = ColumnArena::from_cells(vec!["a".to_string(), "b".to_string()].as_slice());
        let mut iter = arena.cells();
        assert_eq!(iter.len(), 2);
        let _ = iter.next();
        assert_eq!(iter.len(), 1);
    }
}
