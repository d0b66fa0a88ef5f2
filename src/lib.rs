//! # tabjoin
//!
//! Umbrella crate for the reproduction of *"Efficiently Transforming Tables
//! for Joinability"* (Nobari & Rafiei, ICDE 2022): discovering string
//! transformations under which two differently formatted table columns become
//! equi-joinable, plus the row matcher, baselines, datasets, and the
//! end-to-end join pipeline used in the paper's evaluation.
//!
//! The workspace crates are re-exported under short module names:
//!
//! | module | contents |
//! |---|---|
//! | [`units`] | the transformation-unit language and transformation programs |
//! | [`text`] | n-grams, tokenization, common substrings, IRF / Rscore |
//! | [`datasets`] | synthetic and simulated real-world benchmark generators |
//! | [`matching`] | the representative-n-gram row matcher (Algorithm 1) |
//! | [`synthesis`] | the transformation synthesis engine (the paper's contribution) |
//! | [`baselines`] | Auto-Join and Auto-FuzzyJoin baselines |
//! | [`join`] | the end-to-end join pipeline and its evaluation |
//!
//! ## Quick start
//!
//! ```
//! use tabjoin::prelude::*;
//!
//! // Candidate joinable pairs (here given explicitly; see `JoinPipeline`
//! // for the end-to-end flow with automatic row matching).
//! let pairs = vec![
//!     ("Rafiei, Davood", "D Rafiei"),
//!     ("Bowling, Michael", "M Bowling"),
//!     ("Gosgnach, Simon", "S Gosgnach"),
//! ];
//! let engine = SynthesisEngine::new(SynthesisConfig::default());
//! let result = engine.discover_from_strings(&pairs);
//! assert_eq!(result.cover.len(), 1);
//! let rule = &result.cover.best().expect("a rule was found").transformation;
//! assert_eq!(rule.apply("nascimento, mario").as_deref(), Some("m nascimento"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use tjoin_baselines as baselines;
pub use tjoin_core as synthesis;
pub use tjoin_datasets as datasets;
pub use tjoin_join as join;
pub use tjoin_matching as matching;
pub use tjoin_text as text;
pub use tjoin_units as units;

/// Commonly used types, importable with `use tabjoin::prelude::*`.
pub mod prelude {
    pub use tjoin_baselines::{AutoFuzzyJoin, AutoFuzzyJoinConfig, AutoJoin, AutoJoinConfig};
    pub use tjoin_core::{SynthesisConfig, SynthesisEngine, SynthesisResult};
    pub use tjoin_datasets::{
        ColumnPair, DatasetError, RepositoryConfig, SyntheticConfig, Table, TablePair,
    };
    pub use tjoin_join::{
        BatchFaultStats, BatchJoinOutcome, BatchJoinRunner, BatchSchedulerStats, JoinPipeline,
        JoinPipelineConfig, PairError, PairJoinReport, PairPhase, PairStatus, RepositoryMetrics,
        RowMatchingStrategy,
    };
    pub use tjoin_matching::{NGramMatcher, NGramMatcherConfig};
    pub use tjoin_text::{
        BudgetExceeded, CorpusStats, FaultKind, FaultPlan, FaultSite, GramCorpus, RunBudget,
    };
    pub use tjoin_units::{CharStr, Transformation, TransformationSet, Unit, UnitKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_reexports_are_usable() {
        let t = Transformation::new(vec![Unit::substr(0, 2)]);
        assert_eq!(t.apply("abc").as_deref(), Some("ab"));
        let _ = SynthesisConfig::default();
        let _ = NGramMatcherConfig::default();
        let _ = JoinPipelineConfig::paper_default();
        assert_eq!(RowMatchingStrategy::Golden.label(), "Golden");
        let budget = RunBudget { max_rows: Some(10), ..RunBudget::default() };
        assert!(budget.token().charge_rows(11).is_err());
        assert!(PairStatus::Ok.is_ok());
        assert!(FaultPlan::new().is_empty());
    }
}
