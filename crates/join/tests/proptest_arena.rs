//! Acceptance gate for the columnar-arena hot path: matcher and equi-join
//! outputs, which scan columns normalized into arenas, must be
//! bit-identical — same pairs, same order — to the retained `Vec<String>`
//! reference oracles.
//!
//! Three legs:
//!
//! * the matcher without a corpus (`try_find_candidates`, normalizing into
//!   per-call arenas) vs
//!   `tjoin_matching::reference::find_candidates_reference` on the same rows;
//! * the matcher through a shared `GramCorpus` (the corpus's interned
//!   arenas) vs the same oracle, with exact intern counters;
//! * the arena-backed equi-join vs
//!   `tjoin_join::reference::equi_join_reference`.
//!
//! Row shapes reuse the differential-suite mix (multi-byte UTF-8, empties,
//! sub-`n_min` rows, duplicate fan-out, exact copies, gibberish) — the
//! places where arena offset arithmetic or shared-slice scanning could
//! diverge from per-cell owned strings.

use proptest::prelude::*;
use tjoin_datasets::ColumnPair;
use tjoin_join::reference::equi_join_reference;
use tjoin_join::{JoinPipeline, JoinPipelineConfig};
use tjoin_matching::reference::find_candidates_reference;
use tjoin_matching::{NGramMatcher, NGramMatcherConfig};
use tjoin_text::GramCorpus;
use tjoin_units::{Transformation, Unit};

/// One generated row: `(source_value, target_value)`. The `kind` selects a
/// row shape; the `seed` varies its content deterministically.
fn row_from(kind: u8, seed: u64) -> (String, String) {
    let a = seed % 50;
    let b = (seed / 50) % 37;
    match kind % 9 {
        0 => (format!("last{a:02}, first{b:02}"), format!("f{b:02} last{a:02}")),
        1 => (format!("name{a:02}, x{b:02}"), format!("x{b:02} name{a:02} common")),
        // Source row shorter than the default n_min = 4.
        2 => ("ab".into(), format!("f{b:02} last{a:02}")),
        3 => (String::new(), format!("t{a:02}")),
        4 => (format!("last{a:02}, first{b:02}"), String::new()),
        // Duplicate-prone target (many-to-many fan-out).
        5 => (format!("dup{:02}, val", seed % 4), format!("dup{:02}", seed % 4)),
        6 => (format!("last{a:02}, first{b:02}"), format!("zz-{:04}-qq", seed % 10_000)),
        // Multi-byte UTF-8 rows (arena offsets must stay char-aligned).
        7 => (format!("Ωμέγα{a:02}, πρώτο{b:02}"), format!("π{b:02} ωμέγα{a:02}")),
        _ => (format!("same value {a:02}"), format!("same value {a:02}")),
    }
}

fn build_pair(specs: &[(u8, u64)]) -> ColumnPair {
    let mut source = Vec::with_capacity(specs.len());
    let mut target = Vec::with_capacity(specs.len());
    for &(kind, seed) in specs {
        let (s, t) = row_from(kind, seed);
        source.push(s);
        target.push(t);
    }
    ColumnPair::aligned("proptest-arena", source, target)
}

fn join_transformations() -> Vec<Transformation> {
    vec![
        Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]),
        Transformation::new(vec![Unit::split(',', 0)]),
        Transformation::new(vec![Unit::substr(0, 6)]),
        Transformation::new(vec![Unit::substr(0, 1), Unit::literal(" "), Unit::split(',', 0)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-call matcher is bit-identical to the size-major
    /// `Vec<String>` oracle.
    #[test]
    fn arena_matcher_matches_reference(
        specs in prop::collection::vec((0u8..9, 0u64..1_000_000), 0..24),
        cap_raw in 0usize..7,
    ) {
        let pair = build_pair(&specs);
        let config = NGramMatcherConfig {
            max_matches_per_representative: (cap_raw > 0).then_some(cap_raw),
            ..NGramMatcherConfig::default()
        };
        let found = NGramMatcher::new(config.clone())
            .try_find_candidates(&pair, None, None)
            .expect("unbudgeted per-call scan cannot abort");
        prop_assert_eq!(found, find_candidates_reference(&config, &pair));
    }

    /// The corpus-served matcher equals the oracle, and interns each
    /// distinct column exactly once.
    #[test]
    fn corpus_arena_matcher_matches_reference(
        specs in prop::collection::vec((0u8..9, 0u64..1_000_000), 0..20),
    ) {
        let pair = build_pair(&specs);
        let config = NGramMatcherConfig::default();
        let corpus = GramCorpus::new(config.normalize);
        let found = NGramMatcher::new(config.clone())
            .try_find_candidates(&pair, Some(&corpus), None)
            .expect("corpus scan succeeds on test data");
        prop_assert_eq!(found, find_candidates_reference(&config, &pair));
        // 2 lookups (source + target) against 1 distinct column when
        // source == target by content, else 2.
        let distinct = if tjoin_text::column_fingerprint(&pair.source)
            == tjoin_text::column_fingerprint(&pair.target)
        {
            1
        } else {
            2
        };
        let stats = corpus.stats();
        prop_assert_eq!(stats.columns_interned, distinct);
        prop_assert_eq!(stats.column_hits, 2 - distinct);
    }

    /// The arena-backed equi-join is bit-identical to the retained
    /// owned-string-keyed oracle.
    #[test]
    fn arena_equi_join_matches_reference(
        specs in prop::collection::vec((0u8..9, 0u64..1_000_000), 0..32),
    ) {
        let pair = build_pair(&specs);
        let transformations = join_transformations();
        let refs: Vec<&Transformation> = transformations.iter().collect();
        let base = JoinPipelineConfig::paper_default();
        let oracle = equi_join_reference(&pair, refs.iter().copied(), &base.synthesis.normalize);
        let predicted = JoinPipeline::new(base).equi_join(&pair, refs.iter().copied());
        prop_assert_eq!(predicted, oracle);
    }
}
