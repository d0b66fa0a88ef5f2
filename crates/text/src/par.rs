//! Deterministic chunked parallel mapping.
//!
//! Work that parallelizes across *items* — column pairs in the batch
//! runner's static-split oracle and in discovery's signature pass — splits
//! a slice into contiguous chunks across a worker budget, maps every item,
//! and concatenates the per-chunk results *in chunk order*, so the output
//! is exactly the serial `items.iter().map(f).collect()` regardless of the
//! worker count. This module holds that pattern once; the
//! in-order-concatenation invariant every differential oracle suite leans
//! on lives here instead of being re-rolled per call site. (The row matcher
//! and the equi-join are serial; coverage chunks its rows itself.)
//!
//! Worker panics re-raise in the caller via
//! [`std::panic::resume_unwind`] with the *original payload*, so a
//! `catch_unwind` above the map (the batch runner's per-pair containment)
//! observes exactly the message the worker panicked with.

/// Maps `f` over `items` using up to `workers` scoped threads (one
/// contiguous chunk of `items.len().div_ceil(workers)` items per worker),
/// returning results in item order.
///
/// A budget of 0 or 1 — or fewer than two items — runs serially with no
/// thread overhead. Output is identical at any budget; only wall-clock
/// changes. Panics in `f` propagate to the caller with their original
/// payload (via [`std::panic::resume_unwind`]).
pub fn chunk_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_at_any_budget() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for workers in [0usize, 1, 2, 3, 4, 16, 200] {
            assert_eq!(
                chunk_map(&items, workers, |&x| u64::from(x) * 3),
                expected,
                "diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn empty_and_single_item() {
        assert!(chunk_map(&Vec::<u8>::new(), 4, |&x| x).is_empty());
        assert_eq!(chunk_map(&[7u8], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            chunk_map(&[1u8, 2, 3, 4], 2, |&x| {
                assert!(x < 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_panic_payload_survives_verbatim() {
        // The original payload — not a generic `.expect` message — must
        // reach the caller's catch_unwind, at 1 worker and at many.
        for workers in [1usize, 2, 4] {
            let payload = std::panic::catch_unwind(|| {
                chunk_map(&[1u8, 2, 3, 4], workers, |&x| {
                    if x == 3 {
                        std::panic::panic_any(format!("poisoned cell {x}"));
                    }
                    x
                })
            })
            .unwrap_err();
            assert_eq!(
                crate::fault::panic_message(&*payload),
                "poisoned cell 3",
                "payload lost at {workers} workers"
            );
        }
    }

    #[test]
    fn row_core_matches_slice_form_at_any_budget() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        let rows: Vec<usize> = (0..items.len()).collect();
        for workers in [0usize, 1, 2, 3, 4, 16, 200] {
            assert_eq!(
                chunk_map(&rows, workers, |&i| u64::from(items[i]) * 3),
                expected,
                "rows form diverged at {workers} workers"
            );
        }
        assert!(chunk_map(&Vec::<usize>::new(), 4, |&i| i).is_empty());
    }

    #[test]
    fn arena_cells_scan_identically_across_chunk_boundaries() {
        // Multi-byte UTF-8 cells land on both sides of every worker-count
        // chunk seam; the arena-backed parallel scan must reproduce the
        // Vec<String> serial scan bit-for-bit.
        use crate::arena::{CellText, ColumnArena};
        let cells: Vec<String> = (0..37)
            .map(|i| match i % 4 {
                0 => format!("αβγδε-{i}"),
                1 => format!("名前『{i}』"),
                2 => String::new(),
                _ => format!("plain-{i}"),
            })
            .collect();
        let arena = ColumnArena::from_cells(cells.as_slice());
        let expected: Vec<String> = cells.iter().map(|c| c.chars().rev().collect()).collect();
        let rows: Vec<usize> = (0..arena.cell_count()).collect();
        for workers in [1usize, 2, 4] {
            let via_arena = chunk_map(&rows, workers, |&row| {
                arena.cell(row).chars().rev().collect::<String>()
            });
            assert_eq!(via_arena, expected, "diverged at {workers} workers");
        }
    }
}
