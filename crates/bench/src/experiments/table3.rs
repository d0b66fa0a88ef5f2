//! Table 3: end-to-end join quality (precision / recall / F1) of our
//! approach vs Auto-FuzzyJoin and Auto-Join.

use crate::experiments::average;
use crate::report::{f3, Report};
use crate::scale::Scale;
use crate::suite::DatasetInstance;
use tjoin_baselines::{AutoFuzzyJoin, AutoFuzzyJoinConfig, AutoJoin, AutoJoinConfig};
use tjoin_join::{evaluate_join, JoinMetrics, JoinPipeline, JoinPipelineConfig, RowMatchingStrategy};

/// One dataset row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset label.
    pub dataset: String,
    /// Our end-to-end join metrics.
    pub ours: JoinMetrics,
    /// Auto-FuzzyJoin metrics.
    pub afj: JoinMetrics,
    /// Auto-Join metrics (None when it found no transformation within budget;
    /// the paper prints "-" for its timed-out entries).
    pub autojoin: Option<JoinMetrics>,
    /// Paper reference F1 for our approach.
    pub paper_f1: Option<f64>,
}

/// Runs the end-to-end join comparison.
pub fn compute(scale: Scale, seed: u64) -> Vec<Table3Row> {
    let mut out = Vec::new();
    for instance in DatasetInstance::load_all(scale, seed) {
        let pipeline = JoinPipeline::new(JoinPipelineConfig {
            matching: RowMatchingStrategy::default(),
            synthesis: instance.synthesis.clone(),
            join_min_support: instance.join_min_support,
        });
        let afj = AutoFuzzyJoin::new(AutoFuzzyJoinConfig::default());

        let mut ours_all = Vec::new();
        let mut afj_all = Vec::new();
        let mut aj_all = Vec::new();
        for (i, pair) in instance.pairs.iter().enumerate() {
            // Ours.
            ours_all.push(pipeline.run(pair).metrics);
            // Auto-FuzzyJoin.
            afj_all.push(evaluate_join(&afj.join(pair).pairs, &pair.golden));
            // Auto-Join: discover on (a sample of) candidate pairs, then join
            // with the same machinery. One pair per family at quick scale.
            let budget_pairs = match scale {
                Scale::Quick => 1,
                Scale::Full => usize::MAX,
            };
            if i < budget_pairs {
                let rows = pipeline
                    .config()
                    .matching
                    .candidates(pair, None, None)
                    .expect("unbudgeted per-call matching cannot abort");
                let candidates = pair.row_values(&rows);
                let aj_input = &candidates[..candidates.len().min(500)];
                let autojoin = AutoJoin::new(AutoJoinConfig {
                    time_budget: scale.autojoin_budget(),
                    max_depth: instance.synthesis.max_placeholders,
                    ..AutoJoinConfig::default()
                });
                let result = autojoin.discover(aj_input);
                if !result.transformations.is_empty() {
                    let (_, metrics) = pipeline
                        .join_with_transformations(pair, result.transformations.iter());
                    aj_all.push(metrics);
                }
            }
        }

        out.push(Table3Row {
            dataset: instance.label.clone(),
            ours: average(&ours_all),
            afj: average(&afj_all),
            autojoin: (!aj_all.is_empty()).then(|| average(&aj_all)),
            paper_f1: instance.paper.map(|p| p.join_f1),
        });
    }
    out
}

/// Renders Table 3.
pub fn run(scale: Scale, seed: u64) -> Report {
    let rows = compute(scale, seed);
    let mut report = Report::new(
        format!(
            "Table 3: end-to-end join quality vs Auto-FuzzyJoin and Auto-Join ({})",
            scale.label()
        ),
        &[
            "Dataset", "ours P", "ours R", "ours F", "AFJ P", "AFJ R", "AFJ F", "AJ P", "AJ R",
            "AJ F", "paper F(ours)",
        ],
    );
    for r in rows {
        let (ajp, ajr, ajf) = match r.autojoin {
            Some(m) => (f3(m.precision), f3(m.recall), f3(m.f1)),
            None => ("-".into(), "-".into(), "-".into()),
        };
        report.add_row(vec![
            r.dataset,
            f3(r.ours.precision),
            f3(r.ours.recall),
            f3(r.ours.f1),
            f3(r.afj.precision),
            f3(r.afj.recall),
            f3(r.afj.f1),
            ajp,
            ajr,
            ajf,
            r.paper_f1.map(f3).unwrap_or_else(|| "-".into()),
        ]);
    }
    report.add_note("'-' for Auto-Join means no transformation was found within the time budget (the paper's '-' entries)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_datasets::SyntheticConfig;

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
