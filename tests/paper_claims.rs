//! Integration tests pinned to specific claims made in the paper.

use tabjoin::prelude::*;
use tabjoin::units::UnitKind;

/// Repository-scale batching must not degrade quality (the premise under
/// which GXJoin/QJoin-style many-column-pairs discovery is run through one
/// shared thread budget): on a generated heterogeneous repository, every
/// joinable pair's F1 under the batch runner is at least the per-pair
/// pipeline's, and decoy pairs stay below the support floor — no
/// transformation survives filtering, so nothing is predicted for them.
#[test]
fn batch_join_preserves_per_pair_quality_and_rejects_decoys() {
    let repository = RepositoryConfig::new(8, 60).generate(11);
    assert!(
        repository.iter().any(|p| p.name.ends_with("-decoy")),
        "repository must contain a decoy"
    );
    let config = JoinPipelineConfig::paper_default(); // 5% support floor
    let batch = BatchJoinRunner::new(config.clone(), 4).run(&repository);
    assert_eq!(batch.reports.len(), repository.len());

    for (pair, report) in repository.iter().zip(&batch.reports) {
        if pair.name.ends_with("-decoy") {
            assert!(
                report.outcome.transformations.is_empty(),
                "decoy {} kept transformations above the support floor: {}",
                pair.name,
                report.outcome.transformations
            );
            assert!(
                report.outcome.predicted_pairs.is_empty(),
                "decoy {} predicted pairs {:?}",
                pair.name,
                report.outcome.predicted_pairs
            );
        } else {
            let solo = JoinPipeline::new(config.clone()).run(pair);
            assert!(
                report.outcome.metrics.f1 >= solo.metrics.f1 - 1e-9,
                "batch degraded {}: {} vs {}",
                pair.name,
                report.outcome.metrics.f1,
                solo.metrics.f1
            );
            assert!(
                report.outcome.metrics.f1 > 0.5,
                "joinable pair {} barely joined: {:?}",
                pair.name,
                report.outcome.metrics
            );
        }
    }
    assert!(batch.metrics.micro.f1 > 0.5, "{:?}", batch.metrics);
}

/// Lemma 1: every SplitSplitSubstr program over the paper's example formats
/// is expressible with the four units the paper keeps. (The unit-level
/// property test lives in `tjoin-units`; this checks the engine never needs
/// the nested split to reach full coverage on nested-delimiter data.)
#[test]
fn lemma1_engine_covers_nested_delimiters_without_splitsplitsubstr() {
    // Targets extracted from inside two levels of delimiters.
    let rows = vec![
        ("smith.john@ualberta.ca", "john"),
        ("doe.jane@ualberta.ca", "jane"),
        ("wong.alex@ualberta.ca", "alex"),
    ];
    let config = SynthesisConfig::default();
    assert!(!config.unit_kinds.contains(&UnitKind::SplitSplitSubstr));
    let result = SynthesisEngine::new(config).discover_from_strings(&rows);
    assert!(
        (result.set_coverage() - 1.0).abs() < 1e-9,
        "{}",
        result.cover
    );
}

/// Section 5.3's worked example: a transformation with 5% coverage is
/// discovered from a 100-row sample with probability ≈ 0.96, while Auto-Join
/// needs ~400 subsets of size 2 in expectation.
#[test]
fn sampling_analysis_matches_paper_numbers() {
    let p = tabjoin::synthesis::discovery_probability(0.05, 100);
    assert!((p - 0.96).abs() < 0.01, "discovery probability {p}");
    let subsets = tabjoin::synthesis::sampling::autojoin_expected_subsets(0.05, 2);
    assert!((subsets - 400.0).abs() < 1e-6, "expected subsets {subsets}");
}

/// Table 4's qualitative claim: a large share of generated transformations
/// are duplicates (on structured real-world-style data) and the
/// non-covering-unit cache removes most of the remaining work — while
/// pruning never changes the answer.
#[test]
fn pruning_statistics_have_the_papers_shape() {
    // Address-style rows (the open-data benchmark) where rows share much
    // surface structure, the regime in which Table 4 reports ~50% duplicates.
    let pair = tabjoin::datasets::realistic::open_data(7, 250).column_pair();
    let rows: Vec<(String, String)> = (0..250)
        .map(|i| (pair.source[i].clone(), pair.target[i].clone()))
        .collect();
    let result = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&rows);
    let stats = &result.stats;
    assert!(
        stats.duplicate_ratio() > 0.3,
        "duplicate ratio {:.3} unexpectedly low",
        stats.duplicate_ratio()
    );
    assert!(
        stats.cache_hit_ratio() > 0.5,
        "cache hit ratio {:.3} unexpectedly low",
        stats.cache_hit_ratio()
    );

    // Pruning must never change the answer (Section 6.6 evaluates time only);
    // checked on a smaller synthetic input to keep the unpruned run cheap.
    let synth = SyntheticConfig::synth(25).generate(7).column_pair();
    let synth_rows: Vec<(String, String)> = synth
        .source
        .iter()
        .cloned()
        .zip(synth.target.iter().cloned())
        .collect();
    let pruned =
        SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&synth_rows);
    let unpruned = SynthesisEngine::new(SynthesisConfig {
        deduplicate: false,
        unit_cache: false,
        ..SynthesisConfig::default()
    })
    .discover_from_strings(&synth_rows);
    assert!((pruned.set_coverage() - unpruned.set_coverage()).abs() < 1e-9);
    assert!((pruned.top_coverage() - unpruned.top_coverage()).abs() < 1e-9);
}

/// Lemma 2/3 behaviour: re-splitting maximal placeholders at separators can
/// only help coverage (the engine with re-splitting finds at least as much
/// coverage as without it).
#[test]
fn resplitting_never_hurts_coverage() {
    let rows = vec![
        ("Victor Robbie Kasumba", "Victor R. Kasumba"),
        ("Maria Elena Fuentes", "Maria E. Fuentes"),
        ("John Quincy Adams", "John Q. Adams"),
    ];
    let with = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&rows);
    let without = {
        let c = SynthesisConfig {
            resplit_placeholders: false,
            ..SynthesisConfig::default()
        };
        SynthesisEngine::new(c).discover_from_strings(&rows)
    };
    assert!(with.set_coverage() >= without.set_coverage() - 1e-9);
    assert!((with.set_coverage() - 1.0).abs() < 1e-9, "{}", with.cover);
}

/// The paper's optimality criteria (Section 4.1.2): when one transformation
/// covers a strict superset of another's rows, the greedy cover never keeps
/// the dominated one.
#[test]
fn dominated_transformations_not_selected() {
    let rows = vec![
        ("alpha one", "one"),
        ("beta two", "two"),
        ("gamma three", "three"),
        ("delta four", "four"),
    ];
    let result = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&rows);
    assert!((result.set_coverage() - 1.0).abs() < 1e-9);
    // The cover must be the single Split-based rule, not a collection of
    // row-specific literals/substrings it dominates.
    assert_eq!(result.cover.len(), 1, "{}", result.cover);
    assert_eq!(result.cover.transformations[0].coverage(), 4);
}

/// Auto-Join's subset assumption (Section 3.2): when the input mixes two
/// formats, subsets straddling both formats cannot produce a transformation,
/// so Auto-Join's covering set stays well below full coverage while ours
/// covers everything.
#[test]
fn mixed_format_coverage_gap_vs_autojoin() {
    let mut rows: Vec<(String, String)> = Vec::new();
    for i in 0..8 {
        rows.push((format!("person{i:02}, alpha"), format!("a person{i:02}")));
        rows.push((format!("person{i:02}x, beta"), format!("person{i:02}x AT beta dot org")));
    }
    let ours = SynthesisEngine::new(SynthesisConfig::default()).discover_from_strings(&rows);
    assert!(ours.set_coverage() > 0.9, "ours {}", ours.cover);

    let aj = AutoJoin::new(AutoJoinConfig {
        subset_count: 6,
        subset_size: 3,
        time_budget: std::time::Duration::from_secs(30),
        ..AutoJoinConfig::default()
    });
    let aj_result = aj.discover(&rows);
    let aj_set = aj_result.evaluate(&rows, &tabjoin::text::NormalizeOptions::default());
    assert!(
        aj_set.set_coverage() <= ours.set_coverage() + 1e-9,
        "auto-join {} vs ours {}",
        aj_set.set_coverage(),
        ours.set_coverage()
    );
}
