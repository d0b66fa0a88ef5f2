//! The runs behind Tables 2–4. The paper reports coverage (Table 2), join
//! quality (Table 3) and pruning counters (Table 4) of the same synthesis
//! runs, so each table reads what it prints from one [`TableRuns`]: one
//! [`JoinPipeline::run`] per (family, strategy, pair), and one Auto-Join
//! search per (strategy, Auto-Join pair).

use crate::scale::Scale;
use crate::suite::DatasetInstance;
use tjoin_baselines::{AutoJoin, AutoJoinConfig, AutoJoinResult};
use tjoin_join::{JoinOutcome, JoinPipeline, JoinPipelineConfig, RowMatchingStrategy};

/// The runs of every benchmark family at one scale and seed.
#[derive(Debug)]
pub struct TableRuns {
    pub(crate) scale: Scale,
    families: Vec<DatasetInstance>,
    /// Per strategy, one [`FamilyRuns`] per family, in `families` order.
    runs: Vec<(RowMatchingStrategy, Vec<FamilyRuns>)>,
}

/// One family's runs under one matching strategy.
#[derive(Debug)]
pub(crate) struct FamilyRuns {
    /// The pipeline the pairs ran through.
    pub(crate) pipeline: JoinPipeline,
    /// Each pair's outcome, in the family's pair order.
    pub(crate) outcomes: Vec<JoinOutcome>,
    /// Auto-Join on the first [`Scale::autojoin_pairs`] pairs; `None` when
    /// the runs were computed without Auto-Join.
    autojoin: Option<Vec<AutoJoinRun>>,
}

/// One Auto-Join search.
#[derive(Debug)]
pub(crate) struct AutoJoinRun {
    /// The search's input: the pair's first 500 candidate rows (all of them
    /// when fewer), as the paper samples numerous candidates for Auto-Join.
    pub(crate) rows: Vec<(u32, u32)>,
    pub(crate) result: AutoJoinResult,
}

impl TableRuns {
    /// Runs every family of [`DatasetInstance::load_all`] under each of
    /// `strategies`, and Auto-Join too when `autojoin` is set (Tables 2 and 3
    /// read it, Table 4 does not).
    pub fn compute(
        scale: Scale,
        seed: u64,
        strategies: &[RowMatchingStrategy],
        autojoin: bool,
    ) -> Self {
        let families = DatasetInstance::load_all(scale, seed);
        let runs = strategies
            .iter()
            .map(|matching| {
                let per_family = families
                    .iter()
                    .map(|instance| FamilyRuns::compute(instance, matching, scale, autojoin))
                    .collect();
                (matching.clone(), per_family)
            })
            .collect();
        Self { scale, families, runs }
    }

    /// The strategies the runs were computed under, in order.
    pub(crate) fn strategies(&self) -> impl Iterator<Item = &RowMatchingStrategy> {
        self.runs.iter().map(|(matching, _)| matching)
    }

    /// Each family with its runs under `matching`. Panics unless the runs
    /// were computed under `matching`.
    pub(crate) fn families(
        &self,
        matching: &RowMatchingStrategy,
    ) -> impl Iterator<Item = (&DatasetInstance, &FamilyRuns)> {
        let (_, runs) = self
            .runs
            .iter()
            .find(|(m, _)| m == matching)
            .unwrap_or_else(|| panic!("no {} runs were computed", matching.label()));
        self.families.iter().zip(runs)
    }
}

impl FamilyRuns {
    fn compute(
        instance: &DatasetInstance,
        matching: &RowMatchingStrategy,
        scale: Scale,
        autojoin: bool,
    ) -> Self {
        let pipeline = JoinPipeline::new(JoinPipelineConfig {
            matching: matching.clone(),
            synthesis: instance.synthesis.clone(),
            join_min_support: instance.join_min_support,
        });
        let outcomes = instance.pairs.iter().map(|pair| pipeline.run(pair)).collect();
        let autojoin = autojoin.then(|| {
            let search = AutoJoin::new(AutoJoinConfig {
                unit_budget: scale.autojoin_budget(),
                max_depth: instance.synthesis.max_placeholders,
                ..AutoJoinConfig::default()
            });
            instance
                .pairs
                .iter()
                .take(scale.autojoin_pairs())
                .map(|pair| {
                    let mut rows = matching
                        .candidates(pair, None, None)
                        .expect("unbudgeted per-call matching cannot abort");
                    rows.truncate(500);
                    let result = search.discover(&pair.row_values(&rows));
                    AutoJoinRun { rows, result }
                })
                .collect()
        });
        Self { pipeline, outcomes, autojoin }
    }

    /// The Auto-Join searches. Panics when the runs were computed without
    /// Auto-Join.
    pub(crate) fn autojoin(&self) -> &[AutoJoinRun] {
        self.autojoin.as_deref().expect("the runs were computed without Auto-Join")
    }
}
