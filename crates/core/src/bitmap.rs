//! Fixed-size row bitmaps.
//!
//! The coverage phase reports, per transformation, which input rows it
//! covers; selection repeatedly asks "how many of these rows are not yet
//! covered?". Both are word-wise bit operations on fixed-size bitmaps
//! (AND-NOT + popcount) instead of sorted-`Vec<u32>` set algebra, which is
//! what makes the greedy set cover cheap at large candidate counts.

/// A fixed-capacity bitset over row indices `0..rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBitmap {
    words: Vec<u64>,
    rows: usize,
}

impl RowBitmap {
    /// An empty bitmap with capacity for `rows` rows.
    pub fn new(rows: usize) -> Self {
        Self {
            words: vec![0; rows.div_ceil(64)],
            rows,
        }
    }

    /// Builds a bitmap from row indices (indices `>= rows` panic).
    pub fn from_rows(rows: usize, indices: &[u32]) -> Self {
        let mut bitmap = Self::new(rows);
        for &i in indices {
            bitmap.insert(i as usize);
        }
        bitmap
    }

    /// Densifies a *strictly sorted* sparse row list (the coverage phase's
    /// per-chunk collection format) into a bitmap.
    ///
    /// This is the sparse→dense bridge of the selection pipeline: coverage
    /// accumulates sorted `Vec<u32>` row lists (cheap for the mostly-empty
    /// candidate majority) and only the candidates surviving the
    /// non-empty/support filter are densified for the set-algebra selection
    /// phase. The bit-setting is the same as [`Self::from_rows`]; this
    /// entry point exists to state — and debug-assert — the sparse format's
    /// strict-sortedness contract at the boundary.
    pub fn from_sorted_rows(rows: usize, indices: &[u32]) -> Self {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "sparse row list must be strictly sorted"
        );
        Self::from_rows(rows, indices)
    }

    /// Sets the bit for `row`.
    #[inline]
    pub fn insert(&mut self, row: usize) {
        debug_assert!(row < self.rows, "row {row} out of range {}", self.rows);
        self.words[row / 64] |= 1u64 << (row % 64);
    }

    /// Whether `row`'s bit is set.
    #[cfg(test)]
    fn contains(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w & (1u64 << (row % 64)) != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether every row's bit is set.
    pub fn is_full(&self) -> bool {
        self.count_ones() == self.rows
    }

    /// `|self \ other|`: how many set rows of `self` are NOT set in `other`.
    /// This is the greedy set cover's marginal-gain kernel.
    pub fn and_not_count(&self, other: &RowBitmap) -> usize {
        debug_assert_eq!(self.rows, other.rows, "bitmap capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Sets every bit that is set in `other`.
    pub fn union_with(&mut self, other: &RowBitmap) {
        debug_assert_eq!(self.rows, other.rows, "bitmap capacity mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over set rows in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                // Invariant is local (audited): bitmaps are built over u32
                // row ids (`from_sorted_rows`), so the word index times 64
                // stays inside the u32 space the rows came from.
                Some(wi as u32 * 64 + bit)
            })
        })
    }

    /// The set rows as a sorted vector (the legacy `Vec<u32>` shape).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter_ones().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut b = RowBitmap::new(130);
        assert!(b.is_empty());
        for row in [0usize, 1, 63, 64, 65, 129] {
            b.insert(row);
            assert!(b.contains(row));
        }
        assert!(!b.contains(2));
        assert_eq!(b.count_ones(), 6);
        assert!(!b.is_empty());
        assert!(!b.is_full());
        assert_eq!(b.to_vec(), vec![0, 1, 63, 64, 65, 129]);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![3u32, 17, 64, 99];
        let b = RowBitmap::from_rows(100, &rows);
        assert_eq!(b.to_vec(), rows);
        assert_eq!(b.rows, 100);
    }

    #[test]
    fn and_not_count_is_set_difference_size() {
        let a = RowBitmap::from_rows(200, &[1, 2, 3, 100, 150]);
        let b = RowBitmap::from_rows(200, &[2, 100]);
        assert_eq!(a.and_not_count(&b), 3);
        assert_eq!(b.and_not_count(&a), 0);
    }

    #[test]
    fn union_accumulates() {
        let mut acc = RowBitmap::new(70);
        acc.union_with(&RowBitmap::from_rows(70, &[0, 69]));
        acc.union_with(&RowBitmap::from_rows(70, &[1, 69]));
        assert_eq!(acc.to_vec(), vec![0, 1, 69]);
    }

    #[test]
    fn full_detection() {
        let mut b = RowBitmap::new(65);
        for i in 0..65 {
            b.insert(i);
        }
        assert!(b.is_full());
        assert_eq!(b.count_ones(), 65);
    }

    #[test]
    fn zero_capacity() {
        let b = RowBitmap::new(0);
        assert!(b.is_empty());
        assert!(b.is_full());
        assert_eq!(b.to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn from_sorted_rows_matches_from_rows_at_word_boundaries() {
        // Capacities straddling the 64-bit word boundary, including the
        // empty bitmap and non-multiple-of-64 tails.
        for rows in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
            let indices: Vec<u32> = (0..rows as u32).filter(|i| i % 3 == 0).collect();
            let sparse = RowBitmap::from_sorted_rows(rows, &indices);
            let dense = RowBitmap::from_rows(rows, &indices);
            assert_eq!(sparse, dense, "rows={rows}");
            assert_eq!(sparse.to_vec(), indices, "rows={rows}");
            assert_eq!(sparse.rows, rows);
        }
    }

    #[test]
    fn from_sorted_rows_boundary_bits() {
        // The exact bits around a word seam land in the right words.
        let b = RowBitmap::from_sorted_rows(66, &[0, 63, 64, 65]);
        for row in [0usize, 63, 64, 65] {
            assert!(b.contains(row), "row {row}");
        }
        assert!(!b.contains(1));
        assert!(!b.contains(62));
        assert_eq!(b.count_ones(), 4);

        // Empty list, non-empty capacity.
        let empty = RowBitmap::from_sorted_rows(65, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.rows, 65);

        // Zero-capacity round trip.
        let zero = RowBitmap::from_sorted_rows(0, &[]);
        assert!(zero.is_full());
    }

    #[test]
    fn and_not_count_at_word_boundaries() {
        // Differences entirely within the last (partial) word of a
        // non-multiple-of-64 bitmap, and straddling the 63/64 seam.
        for rows in [63usize, 64, 65, 130] {
            let last = rows as u32 - 1;
            let a = RowBitmap::from_rows(rows, &[0, last]);
            let b = RowBitmap::from_rows(rows, &[0]);
            assert_eq!(a.and_not_count(&b), 1, "rows={rows}");
            assert_eq!(b.and_not_count(&a), 0, "rows={rows}");
            assert_eq!(a.and_not_count(&RowBitmap::new(rows)), 2, "rows={rows}");
        }
        let a = RowBitmap::from_rows(65, &[63, 64]);
        let b = RowBitmap::from_rows(65, &[63]);
        assert_eq!(a.and_not_count(&b), 1);
        let zero_a = RowBitmap::new(0);
        let zero_b = RowBitmap::new(0);
        assert_eq!(zero_a.and_not_count(&zero_b), 0);
    }

    #[test]
    fn union_with_at_word_boundaries() {
        for rows in [63usize, 64, 65] {
            let last = rows as u32 - 1;
            let mut acc = RowBitmap::from_rows(rows, &[0]);
            acc.union_with(&RowBitmap::from_rows(rows, &[last]));
            assert_eq!(acc.to_vec(), vec![0, last], "rows={rows}");
            assert!(!acc.is_full());
        }
        // Union across the seam fills both sides of the word boundary.
        let mut acc = RowBitmap::from_rows(65, &[63]);
        acc.union_with(&RowBitmap::from_rows(65, &[64]));
        assert_eq!(acc.to_vec(), vec![63, 64]);
        // Zero-capacity union is a no-op.
        let mut zero = RowBitmap::new(0);
        zero.union_with(&RowBitmap::new(0));
        assert!(zero.is_empty());
    }
}
