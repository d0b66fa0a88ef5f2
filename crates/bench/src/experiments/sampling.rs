//! Section 5.3: performance under sampling — the analytic discovery
//! probabilities plus an empirical check on synthetic data.

use crate::report::{f2, f3, Report};
use crate::scale::Scale;
use tjoin_core::{SamplingAnalysis, SynthesisConfig, SynthesisEngine};
use tjoin_datasets::SyntheticConfig;

/// The analytic table: discovery probability for our approach vs the
/// probability that a single Auto-Join subset is covered, across sample
/// sizes and coverage fractions.
pub fn analytic_report() -> Report {
    let mut report = Report::new(
        "Section 5.3: analytic sampling behaviour",
        &[
            "Coverage q",
            "Sample s",
            "P(discovered, ours)",
            "P(subset covered, Auto-Join)",
            "E[#subsets], Auto-Join",
        ],
    );
    for &q in &[0.05, 0.10, 0.25, 0.50] {
        for &s in &[2usize, 5, 10, 50, 100] {
            let a = SamplingAnalysis::compute(q, s);
            report.add_row(vec![
                f2(q),
                s.to_string(),
                f3(a.discovery_probability),
                f3(a.autojoin_subset_probability),
                if !a.autojoin_expected_subsets.is_finite() {
                    "inf".into()
                } else if a.autojoin_expected_subsets >= 1e6 {
                    format!("{:.2e}", a.autojoin_expected_subsets)
                } else {
                    format!("{:.0}", a.autojoin_expected_subsets)
                },
            ]);
        }
    }
    report.add_note("paper worked example: q=0.05, s=100 gives 0.96 for ours; Auto-Join needs ~400 subsets of size 2");
    report
}

/// Empirical check: generate a synthetic table whose rarest ground-truth
/// transformation has known coverage, run synthesis on random samples of
/// increasing size, and report how often a transformation equivalent to it
/// (same outputs on the full input) is discovered.
pub fn empirical_report(scale: Scale, seed: u64) -> Report {
    let rows = match scale {
        Scale::Quick => 300,
        Scale::Full => 1000,
    };
    let trials = match scale {
        Scale::Quick => 3,
        Scale::Full => 10,
    };
    let dataset = SyntheticConfig::synth(rows).generate(seed);
    let pair = dataset.column_pair();
    let values: Vec<(String, String)> = pair
        .source
        .iter()
        .cloned()
        .zip(pair.target.iter().cloned())
        .collect();
    let coverages = dataset.true_coverages();
    let rarest = coverages
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);

    let mut report = Report::new(
        format!(
            "Section 5.3: empirical discovery under sampling ({} rows, rarest rule coverage {:.2}, {})",
            rows,
            rarest,
            scale.label()
        ),
        &[
            "Sample size",
            "Analytic P(discover rarest)",
            "Observed full-coverage rate",
        ],
    );

    for &sample in &[10usize, 25, 50, 100, 200] {
        let analytic = tjoin_core::discovery_probability(rarest, sample.min(rows));
        let mut full = 0usize;
        for t in 0..trials {
            let config = SynthesisConfig::default().with_sample(sample, seed + t as u64 + 1);
            let engine = SynthesisEngine::new(config);
            let result = engine.discover_from_strings(&values);
            // Discovery succeeded when the covering set found on the sample
            // covers (essentially) the whole *full* input when re-applied.
            let covered = result
                .cover
                .iter()
                .map(|c| c.transformation.clone())
                .collect::<Vec<_>>();
            let full_cov = coverage_on_full(&covered, &values);
            if full_cov > 0.99 {
                full += 1;
            }
        }
        report.add_row(vec![
            sample.to_string(),
            f3(analytic),
            f2(full as f64 / trials as f64),
        ]);
    }
    report.add_note("a sample run 'succeeds' when the transformations found on the sample cover >99% of the full input");
    report
}

/// Fraction of the full input covered by a transformation list.
fn coverage_on_full(
    transformations: &[tjoin_units::Transformation],
    values: &[(String, String)],
) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let covered = values
        .iter()
        .filter(|(s, t)| {
            transformations
                .iter()
                .any(|tr| tr.apply(&s.to_lowercase()).as_deref() == Some(t.to_lowercase().as_str()))
        })
        .count();
    covered as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_report_has_all_rows() {
        let r = analytic_report();
        assert_eq!(r.row_count(), 4 * 5);
    }

    #[test]
    fn coverage_on_full_counts_correctly() {
        let t = tjoin_units::Transformation::new(vec![tjoin_units::Unit::substr(0, 2)]);
        let values = vec![
            ("abc".to_owned(), "ab".to_owned()),
            ("xyz".to_owned(), "zz".to_owned()),
        ];
        assert!((coverage_on_full(&[t], &values) - 0.5).abs() < 1e-12);
        assert_eq!(coverage_on_full(&[], &[]), 0.0);
    }
}
