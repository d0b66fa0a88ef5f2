//! Table 3: end-to-end join quality (precision / recall / F1) of our
//! approach vs Auto-FuzzyJoin and Auto-Join.

use crate::experiments::average;
use crate::experiments::runs::TableRuns;
use crate::report::{f3, Report};
use tjoin_baselines::{AutoFuzzyJoin, AutoFuzzyJoinConfig};
use tjoin_join::{evaluate_join, JoinMetrics, RowMatchingStrategy};

/// Renders Table 3 from the N-Gram runs of `runs` and their Auto-Join
/// searches, with Auto-FuzzyJoin run here on every pair.
pub fn run(runs: &TableRuns) -> Report {
    let mut report = Report::new(
        format!(
            "Table 3: end-to-end join quality vs Auto-FuzzyJoin and Auto-Join ({})",
            runs.scale.label()
        ),
        &[
            "Dataset", "ours P", "ours R", "ours F", "AFJ P", "AFJ R", "AFJ F", "AJ P", "AJ R",
            "AJ F", "paper F(ours)",
        ],
    );
    let fuzzy = AutoFuzzyJoin::new(AutoFuzzyJoinConfig::default());
    let cells = |metrics: &[JoinMetrics]| {
        let m = average(metrics);
        [f3(m.precision), f3(m.recall), f3(m.f1)]
    };
    for (instance, family) in runs.families(&RowMatchingStrategy::default()) {
        let ours: Vec<_> = family.outcomes.iter().map(|outcome| outcome.metrics).collect();
        let afj: Vec<_> = instance
            .pairs
            .iter()
            .map(|pair| evaluate_join(&fuzzy.join(pair).pairs, &pair.golden))
            .collect();
        // Auto-Join's transformations joined with the same machinery; a
        // search that found none has no metrics.
        let aj: Vec<_> = instance
            .pairs
            .iter()
            .zip(family.autojoin())
            .filter(|(_, aj)| !aj.result.transformations.is_empty())
            .map(|(pair, aj)| {
                family.pipeline.join_with_transformations(pair, &aj.result.transformations).1
            })
            .collect();
        let mut row = vec![instance.label.clone()];
        row.extend(cells(&ours));
        row.extend(cells(&afj));
        row.extend(if aj.is_empty() { ["-".into(), "-".into(), "-".into()] } else { cells(&aj) });
        row.push(instance.paper.map(|p| f3(p.join_f1)).unwrap_or_else(|| "-".into()));
        report.add_row(row);
    }
    report.add_note("'-' for Auto-Join means no transformation was found within the unit budget (the paper's '-' entries)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_datasets::SyntheticConfig;
    use tjoin_join::{JoinPipeline, JoinPipelineConfig};

    #[test]
    fn ours_beats_afj_on_reformatted_synthetic_pair() {
        let pair = SyntheticConfig::synth(40).generate(9).column_pair();
        let pipeline = JoinPipeline::new(JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            synthesis: tjoin_core::SynthesisConfig::default(),
            join_min_support: 0.05,
        });
        let ours = pipeline.run(&pair).metrics;
        let afj = AutoFuzzyJoin::new(AutoFuzzyJoinConfig::default());
        let afj_metrics = evaluate_join(&afj.join(&pair).pairs, &pair.golden);
        assert!(
            ours.f1 >= afj_metrics.f1,
            "ours {:?} vs afj {:?}",
            ours,
            afj_metrics
        );
        assert!(ours.f1 > 0.8, "{ours:?}");
    }
}
