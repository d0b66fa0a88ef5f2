//! Differential proptest gate for the columnar arena (satellite of the
//! arena PR): arena-backed normalize / fingerprint / gram streams must be
//! bit-identical to the retained `Vec<String>` reference representation,
//! serially and across {1, 2, 4} worker threads.
//!
//! Row shapes deliberately mix multi-byte UTF-8 (Greek, CJK, combining
//! marks), the context-sensitive capital sigma (the one lowercase mapping
//! that depends on position), empty cells, whitespace runs, and cells
//! shorter than `n_min` — the places where a streaming re-implementation
//! could silently diverge from the per-cell reference.

use proptest::prelude::*;
use tjoin_text::{
    char_ngrams, chunk_map, column_fingerprint, fingerprint64,
    for_each_ngram_in_sizes, normalize_for_matching, ColumnArena, NormalizeOptions,
};

/// One generated cell. `kind` picks a shape, `seed` varies content.
fn cell_from(kind: u8, seed: u64) -> String {
    let a = seed % 97;
    let b = (seed / 97) % 53;
    match kind % 10 {
        // Plain ASCII name-style cell.
        0 => format!("last{a:02}, first{b:02}"),
        // Leading/trailing/internal whitespace runs (trim + collapse paths).
        1 => format!("  last{a:02}   first{b:02}\t "),
        // Multi-byte Greek, including final-position capital sigma.
        2 => format!("ΟΔΥΣΣΕΥΣ {a:02}"),
        // Sigma mid-word vs word-final on the same row.
        3 => format!("ΣΟΦΙΑ{b:02} ΛΟΓΟΣ"),
        // CJK cells (3-byte UTF-8, chunk-boundary stress).
        4 => format!("名前『{a:02}』データ"),
        // Mixed-width with combining mark and sharp s.
        5 => format!("Straße-{b:02} é\u{301}{a:02}"),
        // Empty cell.
        6 => String::new(),
        // Shorter than the default n_min = 4 after normalization.
        7 => "ab".to_owned(),
        // Uppercase ASCII (lowercase fast path).
        8 => format!("ROW {a:02} VALUE {b:02}"),
        // NBSP and unusual whitespace (collapse treats all `char::is_whitespace`).
        _ => format!("a{a:02}\u{a0}\u{2009}b{b:02}"),
    }
}

fn build_cells(specs: &[(u8, u64)]) -> Vec<String> {
    specs.iter().map(|&(k, s)| cell_from(k, s)).collect()
}

const FLAG_COMBOS: [NormalizeOptions; 4] = [
    NormalizeOptions { lowercase: true, trim: true, collapse_whitespace: true },
    NormalizeOptions { lowercase: true, trim: false, collapse_whitespace: false },
    NormalizeOptions { lowercase: false, trim: true, collapse_whitespace: true },
    NormalizeOptions { lowercase: false, trim: false, collapse_whitespace: false },
];

/// The per-cell reference gram stream: one `char_ngrams` pass per size,
/// concatenated size-major — the shape `for_each_ngram_in_sizes` fuses.
fn reference_gram_stream(text: &str, n_min: usize, n_max: usize) -> Vec<String> {
    let mut out = Vec::new();
    if n_min == 0 {
        return out;
    }
    for n in n_min..=n_max {
        let grams = char_ngrams(text, n);
        if grams.is_empty() && n > n_min {
            break;
        }
        out.extend(grams.into_iter().map(str::to_owned));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arena construction round-trips the reference cells verbatim, and the
    /// content fingerprint (the corpus interning key) is representation-
    /// independent.
    #[test]
    fn arena_roundtrip_and_fingerprint_match_reference(
        specs in prop::collection::vec((0u8..10, 0u64..1_000_000), 0..32),
    ) {
        let cells = build_cells(&specs);
        let arena = ColumnArena::try_from_cells(&cells).expect("test columns fit u32 space");
        prop_assert_eq!(arena.len(), cells.len());
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(arena.cell(i), cell.as_str());
            prop_assert_eq!(fingerprint64(arena.cell(i)), fingerprint64(cell));
        }
        prop_assert_eq!(column_fingerprint(&arena), column_fingerprint(&cells));
    }

    /// The streaming arena normalization is bit-identical to per-cell
    /// `normalize_for_matching` under every flag combination.
    #[test]
    fn arena_normalize_matches_reference(
        specs in prop::collection::vec((0u8..10, 0u64..1_000_000), 0..24),
    ) {
        let cells = build_cells(&specs);
        for options in FLAG_COMBOS {
            let arena = ColumnArena::try_normalized(&cells, &options)
                .expect("test columns fit u32 space");
            prop_assert_eq!(arena.len(), cells.len());
            for (i, cell) in cells.iter().enumerate() {
                let reference = normalize_for_matching(cell, &options);
                prop_assert_eq!(
                    arena.cell(i), reference.as_str(),
                    "normalize diverged on cell {} under {:?}", i, options
                );
            }
        }
    }

    /// The fused gram stream over arena cells equals the per-size reference
    /// over the `Vec<String>` cells — same grams, same order.
    #[test]
    fn arena_gram_stream_matches_reference(
        specs in prop::collection::vec((0u8..10, 0u64..1_000_000), 0..24),
        n_min in 1usize..4,
        extra in 0usize..4,
    ) {
        let cells = build_cells(&specs);
        let arena = ColumnArena::try_from_cells(&cells).expect("test columns fit u32 space");
        let n_max = n_min + extra;
        for (i, cell) in cells.iter().enumerate() {
            let mut streamed = Vec::new();
            for_each_ngram_in_sizes(arena.cell(i), n_min, n_max, &mut |g| {
                streamed.push(g.to_owned());
            });
            prop_assert_eq!(
                streamed,
                reference_gram_stream(cell, n_min, n_max),
                "gram stream diverged on cell {} for sizes {}..={}", i, n_min, n_max
            );
        }
    }

    /// The full arena-backed per-row hot path — normalize, fingerprint, gram
    /// stream — run through the parallel row scanner at {1, 2, 4} workers is
    /// bit-identical (values AND order) to the serial `Vec<String>` reference.
    #[test]
    fn threaded_arena_scan_matches_serial_reference(
        specs in prop::collection::vec((0u8..10, 0u64..1_000_000), 0..24),
    ) {
        let cells = build_cells(&specs);
        let options = NormalizeOptions::default();
        let normalized = ColumnArena::try_normalized(&cells, &options)
            .expect("test columns fit u32 space");

        // Serial reference: per-cell owned-String normalization feeding the
        // same fingerprint + gram pipeline.
        let reference: Vec<(u64, Vec<String>)> = cells
            .iter()
            .map(|cell| {
                let norm = normalize_for_matching(cell, &options);
                let grams = reference_gram_stream(&norm, 2, 4);
                (fingerprint64(&norm), grams)
            })
            .collect();

        let rows: Vec<usize> = (0..normalized.len()).collect();
        for workers in [1usize, 2, 4] {
            let scanned: Vec<(u64, Vec<String>)> =
                chunk_map(&rows, workers, |&row| {
                    let cell = normalized.cell(row);
                    let mut grams = Vec::new();
                    for_each_ngram_in_sizes(cell, 2, 4, &mut |g| grams.push(g.to_owned()));
                    (fingerprint64(cell), grams)
                });
            prop_assert_eq!(
                &scanned, &reference,
                "arena scan diverged from serial reference at {} workers", workers
            );
        }
    }
}
