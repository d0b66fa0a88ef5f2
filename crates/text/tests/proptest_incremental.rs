//! Differential proptest gate for the append / invalidation model: every
//! appendable text artifact, grown over a **random append schedule** (a
//! random column split into a base plus up to four deltas at random cut
//! points), must be bit-identical to its from-scratch build over each
//! prefix — after *every* step, not only at the end.
//!
//! Cell shapes reuse the arena suite's adversarial mix (multi-byte UTF-8,
//! final sigma, empty cells, cells shorter than `n_min`, odd whitespace) —
//! the places where an incremental replay could diverge from a fresh pass.
//!
//! The corpus schedule additionally chains [`GramCorpus::append_column`]
//! across the deltas (warming the artifact caches first, so the
//! carry-forward path — not rebuild-on-access — is what gets checked) and
//! compares each grown entry against a fresh corpus intern of the same
//! prefix.

use proptest::prelude::*;
use tjoin_text::{
    column_fingerprint_on, ColumnArena, ColumnFingerprint, ColumnSignature, ColumnStats,
    GramCorpus, NGramIndex, NormalizeOptions,
};

/// One generated cell. `kind` picks a shape, `seed` varies content.
fn cell_from(kind: u8, seed: u64) -> String {
    let a = seed % 97;
    let b = (seed / 97) % 53;
    match kind % 10 {
        0 => format!("last{a:02}, first{b:02}"),
        1 => format!("  last{a:02}   first{b:02}\t "),
        2 => format!("ΟΔΥΣΣΕΥΣ {a:02}"),
        3 => format!("ΣΟΦΙΑ{b:02} ΛΟΓΟΣ"),
        4 => format!("名前『{a:02}』データ"),
        5 => format!("Straße-{b:02} é\u{301}{a:02}"),
        6 => String::new(),
        7 => "ab".to_owned(),
        8 => format!("ROW {a:02} VALUE {b:02}"),
        _ => format!("a{a:02}\u{a0}\u{2009}b{b:02}"),
    }
}

/// Splits `cells` into a schedule of segments at the (deduplicated,
/// sorted) cut positions derived from `cuts`. The first segment is the
/// base (possibly empty); the rest are the append deltas.
fn schedule(cells: &[String], cuts: &[u16]) -> Vec<Vec<String>> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c as usize % (cells.len() + 1)).collect();
    points.push(0);
    points.push(cells.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| cells[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena, stats, index, signature, and content fingerprint grown over
    /// a random append schedule equal fresh builds over every prefix.
    #[test]
    fn appended_artifacts_equal_fresh_builds_at_every_step(
        specs in prop::collection::vec((0u8..10, 0u64..1_000_000), 1..40),
        cuts in prop::collection::vec(0u16..10_000, 0..4),
        n_min in 2usize..5,
        extra in 0usize..4,
    ) {
        let n_max = n_min + extra;
        let cells: Vec<String> = specs.iter().map(|&(k, s)| cell_from(k, s)).collect();
        let segments = schedule(&cells, &cuts);

        let mut prefix: Vec<String> = segments[0].clone();
        let mut arena = ColumnArena::try_from_cells(&prefix).expect("base arena");
        let mut stats = ColumnStats::build_on(&prefix, n_min, n_max);
        let mut index = NGramIndex::try_build_on(&prefix, n_min, n_max).expect("base index");
        let mut signature = ColumnSignature::build(&prefix, n_min);
        let mut fingerprint = ColumnFingerprint::empty();
        for cell in &prefix {
            fingerprint.absorb(cell);
        }

        for delta in &segments[1..] {
            let from_row = prefix.len();
            prefix.extend(delta.iter().cloned());

            arena.append_rows(delta).expect("arena append");
            stats.append_rows_on(&prefix, from_row, n_min, n_max);
            index.try_append_on(&prefix, from_row).expect("index append");
            signature.append_rows(&prefix, from_row);
            for cell in delta {
                fingerprint.absorb(cell);
            }

            let fresh_arena = ColumnArena::try_from_cells(&prefix).expect("fresh arena");
            prop_assert_eq!(&arena, &fresh_arena, "arena diverged at row {}", from_row);
            let fresh_stats = ColumnStats::build_on(&prefix, n_min, n_max);
            prop_assert_eq!(&stats, &fresh_stats, "stats diverged at row {}", from_row);
            let fresh_index =
                NGramIndex::try_build_on(&prefix, n_min, n_max).expect("fresh index");
            prop_assert_eq!(&index, &fresh_index, "index diverged at row {}", from_row);
            let fresh_signature = ColumnSignature::build(&prefix, n_min);
            prop_assert_eq!(
                &signature, &fresh_signature,
                "signature diverged at row {}", from_row
            );
            prop_assert_eq!(
                fingerprint.finish(),
                column_fingerprint_on(&prefix),
                "content fingerprint diverged at row {}", from_row
            );
        }
        prop_assert_eq!(prefix, cells);
    }

    /// `GramCorpus::append_column` chained over a random schedule: each
    /// grown entry's cached artifacts equal a fresh corpus intern of the
    /// same prefix — the carry-forward path, since every step warms the
    /// caches before appending.
    #[test]
    fn corpus_append_chain_equals_fresh_interns(
        specs in prop::collection::vec((0u8..10, 0u64..1_000_000), 2..30),
        cuts in prop::collection::vec(0u16..10_000, 1..4),
        n_min in 2usize..5,
    ) {
        let n_max = n_min + 2;
        let cells: Vec<String> = specs.iter().map(|&(k, s)| cell_from(k, s)).collect();
        let segments = schedule(&cells, &cuts);

        let corpus = GramCorpus::new(NormalizeOptions::default());
        let mut prefix: Vec<String> = segments[0].clone();
        let base = corpus.column(&prefix);
        // Warm every artifact so appends exercise carry-forward, not
        // rebuild-on-access.
        let _ = (base.stats(n_min, n_max), base.index(n_min, n_max), base.signature(n_min));
        let mut fingerprint = tjoin_text::column_fingerprint(&prefix);

        for delta in &segments[1..] {
            prefix.extend(delta.iter().cloned());
            fingerprint = corpus
                .append_column(fingerprint, &delta[..])
                .expect("append must succeed on a resident entry");
            let grown = corpus
                .try_column(&prefix)
                .expect("grown entry must be resident under its final fingerprint");

            let oracle_corpus = GramCorpus::new(NormalizeOptions::default());
            let fresh = oracle_corpus.column(&prefix);
            prop_assert_eq!(grown.normalized(), fresh.normalized(), "normalized arena diverged");
            prop_assert_eq!(
                &*grown.stats(n_min, n_max),
                &*fresh.stats(n_min, n_max),
                "corpus stats diverged"
            );
            prop_assert_eq!(
                &*grown.index(n_min, n_max),
                &*fresh.index(n_min, n_max),
                "corpus index diverged"
            );
            prop_assert_eq!(
                &*grown.signature(n_min),
                &*fresh.signature(n_min),
                "corpus signature diverged"
            );
        }
        let stats = corpus.stats();
        prop_assert_eq!(stats.appends, segments.len() - 1, "append count");
        prop_assert_eq!(stats.appends_degraded, 0, "no degraded appends without faults");
    }
}
