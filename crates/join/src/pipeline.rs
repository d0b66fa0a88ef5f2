//! The end-to-end join pipeline.
//!
//! The transformed equi-join (step 4) normalizes both columns exactly once,
//! indexes the target column by the 64-bit [`fingerprint64`] of each
//! normalized value (no owned-string keys), and applies every
//! transformation to every source row in the oracle's transformation-major
//! order. Probes confirm fingerprint hits with an exact string comparison,
//! so a fingerprint collision can never produce a wrong pair, and output is
//! bit-identical to the retained oracle
//! [`crate::reference::equi_join_reference`]. The join is serial: it is a
//! small share of a pair's run, and repository workloads parallelize
//! across pairs instead.

use crate::evaluate::{evaluate_join, JoinMetrics};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tjoin_core::{SynthesisConfig, SynthesisEngine};
use tjoin_datasets::{row_id, ColumnPair};
use tjoin_matching::{golden_pairs, MatchAbort, NGramMatcher, NGramMatcherConfig};
use tjoin_text::{
    fault, fingerprint64, BudgetExceeded, BudgetToken, CellText, ColumnArena, FaultSite,
    FxHashMap, FxHashSet, GramCorpus, RunBudget,
};
use tjoin_units::{CharStr, Transformation, TransformationSet};

/// How candidate joinable row pairs are obtained before synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RowMatchingStrategy {
    /// The representative-n-gram matcher (Algorithm 1).
    NGram(NGramMatcherConfig),
    /// The ground-truth mapping carried by the dataset (oracle mode).
    Golden,
}

impl Default for RowMatchingStrategy {
    fn default() -> Self {
        RowMatchingStrategy::NGram(NGramMatcherConfig::default())
    }
}

impl RowMatchingStrategy {
    /// The label the paper's tables print for this strategy.
    pub fn label(&self) -> &'static str {
        match self {
            RowMatchingStrategy::NGram(_) => "N-Gram",
            RowMatchingStrategy::Golden => "Golden",
        }
    }

    /// The candidate `(source_row, target_row)` pairs of `pair` under this
    /// strategy, in the matcher's order or the golden mapping's. The n-gram
    /// matcher reads through `corpus` when one is given; both arms check
    /// `budget`. Read their values with [`ColumnPair::row_values`].
    pub fn candidates(
        &self,
        pair: &ColumnPair,
        corpus: Option<&GramCorpus>,
        budget: Option<&BudgetToken>,
    ) -> Result<Vec<(u32, u32)>, MatchAbort> {
        match self {
            RowMatchingStrategy::NGram(cfg) => {
                NGramMatcher::new(cfg.clone()).try_find_candidates(pair, corpus, budget)
            }
            RowMatchingStrategy::Golden => {
                if let Some(token) = budget {
                    token.check()?;
                }
                Ok(golden_pairs(pair))
            }
        }
    }
}

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JoinPipelineConfig {
    /// Row-matching strategy.
    pub matching: RowMatchingStrategy,
    /// Synthesis configuration (placeholder bound, pruning, sampling, ...).
    pub synthesis: SynthesisConfig,
    /// Minimum support a transformation needs (as a fraction of the candidate
    /// pairs) to be applied in the join step — the paper uses 5 % on most
    /// datasets and 2 % on Open data.
    pub join_min_support: f64,
}

impl JoinPipelineConfig {
    /// The paper's default end-to-end setting: n-gram matching, default
    /// synthesis, 5 % join support.
    pub fn paper_default() -> Self {
        Self {
            matching: RowMatchingStrategy::default(),
            synthesis: SynthesisConfig::default(),
            join_min_support: 0.05,
        }
    }

    /// Builder-style setter for the pipeline's thread budget, which only
    /// the synthesis coverage phase reads (row chunks across
    /// [`SynthesisConfig::threads`]); matching and the equi-join are
    /// serial. Results are bit-identical at any value (only wall-clock
    /// changes).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.synthesis = self.synthesis.with_threads(threads);
        self
    }

    /// Panics unless the n-gram matcher and synthesis settings are valid
    /// and `join_min_support` is a fraction in `[0, 1]`.
    pub(crate) fn validate(&self) {
        if let RowMatchingStrategy::NGram(matcher) = &self.matching {
            // The matcher's constructor asserts its own settings.
            let _ = NGramMatcher::new(matcher.clone());
        }
        self.synthesis.validate();
        assert!(
            (0.0..=1.0).contains(&self.join_min_support),
            "join_min_support must be within [0, 1], got {}",
            self.join_min_support
        );
    }
}

/// The result of running the pipeline on one column pair.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// The transformations applied during the join (after support filtering).
    pub transformations: TransformationSet,
    /// Predicted joinable row pairs `(source_row, target_row)`.
    pub predicted_pairs: Vec<(u32, u32)>,
    /// Join quality against the golden mapping.
    pub metrics: JoinMetrics,
    /// Number of candidate pairs handed to synthesis.
    pub candidate_pairs: usize,
    /// Wall-clock time spent in row matching.
    pub matching_time: Duration,
    /// Wall-clock time spent in transformation discovery.
    pub synthesis_time: Duration,
    /// Wall-clock time spent applying transformations and equi-joining.
    pub join_time: Duration,
}

/// Which pipeline phase a pair failure or budget overrun is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairPhase {
    /// Row matching (Algorithm 1 or the golden mapping).
    Matching,
    /// Transformation discovery.
    Synthesis,
    /// The transformed equi-join and evaluation.
    Join,
    /// Outside any phase — the batch scheduler's backstop containment (a
    /// panic between phases, e.g. an injected scheduler-task fault).
    Scheduler,
}

impl fmt::Display for PairPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PairPhase::Matching => write!(f, "matching"),
            PairPhase::Synthesis => write!(f, "synthesis"),
            PairPhase::Join => write!(f, "join"),
            PairPhase::Scheduler => write!(f, "scheduler"),
        }
    }
}

/// A contained per-pair failure: the phase whose execution panicked (or hit
/// a sticky corpus failure) and the panic's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairError {
    /// The phase the failure is attributed to.
    pub phase: PairPhase,
    /// The contained panic's (or corpus failure's) message.
    pub message: String,
}

impl fmt::Display for PairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pair failed in {}: {}", self.phase, self.message)
    }
}

/// The isolation status of one pair's pipeline run: graceful degradation is
/// per pair, never per process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairStatus {
    /// Every phase completed; the outcome is the unguarded pipeline's, bit
    /// for bit.
    Ok,
    /// A phase panicked (or depended on a failed corpus artifact); the
    /// outcome carries whatever earlier phases completed.
    Failed(PairError),
    /// The pair's [`RunBudget`] tripped in the given phase; the outcome
    /// carries whatever earlier phases completed.
    TimedOut {
        /// The phase that observed the trip.
        phase: PairPhase,
        /// The budget axis that tripped (first cause, sticky).
        exceeded: BudgetExceeded,
    },
}

impl PairStatus {
    /// Whether every phase completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, PairStatus::Ok)
    }

    /// A contained failure in `phase` with `message`.
    pub(crate) fn failed(phase: PairPhase, message: String) -> Self {
        PairStatus::Failed(PairError { phase, message })
    }
}

/// One column pair's result: the pair's name, its pipeline outcome, and
/// the isolation status that produced it (see [`JoinPipeline::run_guarded`]).
#[derive(Debug, Clone)]
pub struct PairJoinReport {
    /// The column pair's name (from [`ColumnPair::name`]).
    pub name: String,
    /// The pair's outcome — complete when `status.is_ok()`, otherwise the
    /// phases that finished before the failure/overrun (later-phase fields
    /// keep their empty defaults).
    pub outcome: JoinOutcome,
    /// What happened to the pair: completed, contained failure, or budget
    /// overrun.
    pub status: PairStatus,
}

/// The end-to-end join pipeline.
#[derive(Debug, Clone, Default)]
pub struct JoinPipeline {
    config: JoinPipelineConfig,
}

impl JoinPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: JoinPipelineConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &JoinPipelineConfig {
        &self.config
    }

    /// Runs the full pipeline on a column pair: [`Self::run_guarded`]
    /// without a corpus or budget, with a contained phase failure re-raised
    /// as a panic carrying the phase and the original message.
    pub fn run(&self, pair: &ColumnPair) -> JoinOutcome {
        let report = self.run_guarded(pair, None, None);
        match report.status {
            PairStatus::Ok => report.outcome,
            PairStatus::Failed(error) => panic!("{error}"),
            // Invariant is local (audited): only a budget can time a pair
            // out, and the budget is `None` on this path.
            PairStatus::TimedOut { phase, exceeded } => {
                unreachable!("unbudgeted pair timed out in {phase}: {exceeded}")
            }
        }
    }

    /// The outcome shape of a pair that completed no phase: empty
    /// transformation set, no predictions, and the metrics of predicting
    /// nothing against the pair's golden mapping.
    pub(crate) fn empty_outcome(pair: &ColumnPair) -> JoinOutcome {
        JoinOutcome {
            transformations: TransformationSet::default(),
            predicted_pairs: Vec::new(),
            metrics: evaluate_join(&[], &pair.golden),
            candidate_pairs: 0,
            matching_time: Duration::ZERO,
            synthesis_time: Duration::ZERO,
            join_time: Duration::ZERO,
        }
    }

    /// Runs the full pipeline — the one phase sequence every caller goes
    /// through — with per-pair fault isolation, an optional shared
    /// [`GramCorpus`] for the matcher, and an optional [`RunBudget`]. It is
    /// the batch layer's per-pair unit of graceful degradation, and its
    /// [`PairJoinReport`] is the one per-pair result type:
    ///
    /// * **Panic containment.** Each phase runs under `catch_unwind`; a
    ///   panicking phase (or a sticky shared-corpus build failure) yields
    ///   [`PairStatus::Failed`] carrying the phase and the original panic
    ///   message, with the outcome fields of every *completed* phase intact.
    /// * **Budgets.** `budget` (if any) starts its clock here: the pair's
    ///   rows and bytes are charged once at admission, the start of the
    ///   matching phase (so cap overruns are deterministic and
    ///   thread-invariant), and the wall-clock deadline is checked
    ///   cooperatively at the matcher scan, coverage scan, selection, and
    ///   join loop boundaries. A trip yields [`PairStatus::TimedOut`] with
    ///   the phase metrics completed so far.
    /// * **Fault-free equivalence.** When nothing fails and no budget trips,
    ///   the status is [`PairStatus::Ok`] and the outcome is the same with
    ///   or without a corpus or a live budget. [`Self::run`] is this call
    ///   with neither.
    ///
    /// Panics originating *outside* the guarded phases still propagate; the
    /// batch runner adds a scheduler-level backstop around the whole call.
    pub fn run_guarded(
        &self,
        pair: &ColumnPair,
        corpus: Option<&GramCorpus>,
        budget: Option<&RunBudget>,
    ) -> PairJoinReport {
        let token = budget.map(|b| b.token());
        let mut outcome = Self::empty_outcome(pair);
        let status = self.run_phases(pair, corpus, token.as_ref(), &mut outcome);
        let status = status.err().unwrap_or(PairStatus::Ok);
        PairJoinReport { name: pair.name.clone(), outcome, status }
    }

    /// The phases of [`Self::run_guarded`], filling `outcome` as each
    /// completes; the first phase that does not complete ends the run with
    /// its status.
    fn run_phases(
        &self,
        pair: &ColumnPair,
        corpus: Option<&GramCorpus>,
        token: Option<&BudgetToken>,
        outcome: &mut JoinOutcome,
    ) -> Result<(), PairStatus> {
        // 1. Admission, then row matching. Admission charges the pair's
        // size against the deterministic caps before any work, so an
        // oversized pair is rejected identically on every run at every
        // thread count.
        let candidates =
            guard(PairPhase::Matching, FaultSite::MatchPhase, &mut outcome.matching_time, || {
                if let Some(token) = token {
                    admit(pair, token)?;
                }
                self.config.matching.candidates(pair, corpus, token)
            })?;
        outcome.candidate_pairs = candidates.len();

        // 2. Transformation discovery.
        let engine = SynthesisEngine::new(self.config.synthesis.clone());
        let result = guard(
            PairPhase::Synthesis,
            FaultSite::SynthesisPhase,
            &mut outcome.synthesis_time,
            || engine.discover_from_strings_budgeted(&pair.row_values(&candidates), token),
        )?;

        // 3. Support filtering (infallible bookkeeping).
        outcome.transformations = result.cover.filter_by_support(self.config.join_min_support);

        // 4–5. Transformed equi-join and evaluation.
        let transformations = outcome.transformations.iter().map(|t| &t.transformation);
        outcome.predicted_pairs =
            guard(PairPhase::Join, FaultSite::JoinPhase, &mut outcome.join_time, || {
                self.equi_join_budgeted(pair, transformations, token)
            })?;
        outcome.metrics = evaluate_join(&outcome.predicted_pairs, &pair.golden);
        Ok(())
    }

    /// Joins a column pair given an explicit transformation list (used to
    /// evaluate baselines such as Auto-Join under the same join machinery).
    pub fn join_with_transformations<'a, I>(
        &self,
        pair: &ColumnPair,
        transformations: I,
    ) -> (Vec<(u32, u32)>, JoinMetrics)
    where
        I: IntoIterator<Item = &'a Transformation>,
    {
        let predicted = self.equi_join(pair, transformations);
        let metrics = evaluate_join(&predicted, &pair.golden);
        (predicted, metrics)
    }

    /// Applies every transformation to every source row and hash-joins the
    /// transformed values against the target column on 64-bit fingerprints
    /// of normalized values, confirming each hit with an exact string
    /// comparison. A source row matching several target rows yields all
    /// pairs (many-to-many, as the paper assumes when the relationship is
    /// unspecified).
    ///
    /// Output is bit-identical (same pairs, same order) to
    /// [`crate::reference::equi_join_reference`] — see the module docs.
    pub fn equi_join<'a, I>(&self, pair: &ColumnPair, transformations: I) -> Vec<(u32, u32)>
    where
        I: IntoIterator<Item = &'a Transformation>,
    {
        // Invariant is local (audited): the only abort source in
        // `equi_join_budgeted` is a tripped budget token, and the budget
        // is `None` on this line.
        self.equi_join_budgeted(pair, transformations, None)
            .expect("unbudgeted equi-join cannot abort")
    }

    /// [`Self::equi_join`] with a cooperative budget check before each
    /// transformation's pass over the source rows. With `budget == None` or a live token the result is
    /// bit-identical to [`Self::equi_join`]; a tripped token aborts
    /// all-or-nothing — no truncated pair list is ever returned.
    pub fn equi_join_budgeted<'a, I>(
        &self,
        pair: &ColumnPair,
        transformations: I,
        budget: Option<&BudgetToken>,
    ) -> Result<Vec<(u32, u32)>, BudgetExceeded>
    where
        I: IntoIterator<Item = &'a Transformation>,
    {
        pair.assert_row_indexable();
        let transformations: Vec<&Transformation> = transformations.into_iter().collect();
        if transformations.is_empty() || pair.source.is_empty() || pair.target.is_empty() {
            return Ok(Vec::new());
        }
        let normalize = &self.config.synthesis.normalize;

        // Normalize each column exactly once, streaming into a columnar
        // arena: one contiguous buffer per column instead of one String per
        // cell, and probes compare against slices of it. The u32 capacity
        // check subsumes `assert_row_indexable`; exceeding it panics with
        // the typed message (contained per-pair by `run_guarded`).
        let targets_normalized = ColumnArena::try_normalized(pair.target.as_slice(), normalize)
            .unwrap_or_else(|e| panic!("{e}"));
        let sources_normalized = ColumnArena::try_normalized(pair.source.as_slice(), normalize)
            .unwrap_or_else(|e| panic!("{e}"));
        // Each source row indexed by character once, not once per
        // transformation.
        let sources: Vec<CharStr> = sources_normalized.cells().map(CharStr::new).collect();

        // Fingerprint index over the target column: rows bucketed by the
        // 64-bit fingerprint of their normalized value, in ascending row
        // order (the same within-bucket order as the oracle's string map).
        let mut target_index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (row, value) in targets_normalized.cells().enumerate() {
            target_index
                .entry(fingerprint64(value))
                .or_default()
                .push(row_id(row));
        }

        // The oracle's transformation-major loop with fingerprint probes.
        // Invariant is local (audited): every `as usize` on a target row id
        // below widens a `u32` drawn from the target fingerprint index,
        // which is built over `targets_normalized` itself after its row
        // count passed `checked_row_count`.
        let mut predicted: Vec<(u32, u32)> = Vec::new();
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        for transformation in &transformations {
            if let Some(token) = budget {
                token.check()?;
            }
            for (src_row, src_value) in sources.iter().enumerate() {
                let Some(out) = transformation.apply_on(src_value) else {
                    continue;
                };
                let Some(rows) = target_index.get(&fingerprint64(&out)) else {
                    continue;
                };
                // Exact-string confirm: a fingerprint collision bucket can
                // hold rows of a different value; they are filtered here.
                for &tgt_row in rows {
                    if targets_normalized.cell(tgt_row as usize) == out
                        && seen.insert((row_id(src_row), tgt_row))
                    {
                        predicted.push((row_id(src_row), tgt_row));
                    }
                }
            }
        }
        Ok(predicted)
    }
}

/// Charges a pair's rows and bytes against the token's admission caps.
fn admit(pair: &ColumnPair, token: &BudgetToken) -> Result<(), BudgetExceeded> {
    let rows = pair.source.len() + pair.target.len();
    let bytes: usize = pair
        .source
        .iter()
        .chain(pair.target.iter())
        .map(|cell| cell.len())
        .sum();
    token.charge_rows(rows)?;
    token.charge_bytes(bytes)
}

/// Runs one pipeline phase in isolation: fires `site`'s fault point, runs
/// `f` under `catch_unwind`, records the phase's wall-clock in `elapsed`,
/// and maps a budget trip, a corpus failure or a panic to the pair's
/// [`PairStatus`] in `phase`.
fn guard<T, E: Into<MatchAbort>>(
    phase: PairPhase,
    site: FaultSite,
    elapsed: &mut Duration,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, PairStatus> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        fault::fire(site);
        f()
    }));
    *elapsed = start.elapsed();
    match result {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(abort)) => Err(match abort.into() {
            MatchAbort::Budget(exceeded) => PairStatus::TimedOut { phase, exceeded },
            MatchAbort::Corpus(failure) => PairStatus::failed(phase, failure.to_string()),
        }),
        Err(payload) => Err(PairStatus::failed(phase, fault::panic_message(&*payload))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_units::Unit;

    fn staff_pair() -> ColumnPair {
        ColumnPair::aligned(
            "staff",
            vec![
                "Rafiei, Davood".into(),
                "Nascimento, Mario".into(),
                "Gingrich, Douglas".into(),
                "Prus-Czarnecki, Andrzej".into(),
                "Bowling, Michael".into(),
                "Gosgnach, Simon".into(),
            ],
            vec![
                "D Rafiei".into(),
                "M Nascimento".into(),
                "D Gingrich".into(),
                "A Prus-czarnecki".into(),
                "M Bowling".into(),
                "S Gosgnach".into(),
            ],
        )
    }

    #[test]
    fn strategy_labels_name_the_paper_rows() {
        assert_eq!(RowMatchingStrategy::default().label(), "N-Gram");
        assert_eq!(RowMatchingStrategy::Golden.label(), "Golden");
    }

    #[test]
    fn end_to_end_join_on_paper_example() {
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
        let outcome = pipeline.run(&staff_pair());
        assert!(outcome.candidate_pairs >= 6);
        assert!(
            outcome.metrics.recall >= 0.99,
            "recall {} with {} transformations",
            outcome.metrics.recall,
            outcome.transformations.len()
        );
        assert!(outcome.metrics.precision >= 0.8, "precision {}", outcome.metrics.precision);
        assert!(outcome.metrics.f1 > 0.85);
    }

    #[test]
    fn golden_matching_mode() {
        let config = JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::paper_default()
        };
        let pipeline = JoinPipeline::new(config);
        let outcome = pipeline.run(&staff_pair());
        assert_eq!(outcome.candidate_pairs, 6);
        assert!((outcome.metrics.recall - 1.0).abs() < 1e-9);
    }

    #[test]
    fn support_threshold_filters_one_off_rules() {
        // One noisy row: its bespoke transformation (if any) must not survive
        // a 30% support threshold over 6 candidate pairs.
        let mut pair = staff_pair();
        pair.source.push("Zzz, Qqq".into());
        pair.target.push("completely different".into());
        pair.golden.push((6, 6));
        let config = JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            join_min_support: 0.3,
            ..JoinPipelineConfig::paper_default()
        };
        let outcome = JoinPipeline::new(config).run(&pair);
        for t in outcome.transformations.iter() {
            assert!(t.coverage() >= 2);
        }
        // The noisy row is simply not joined.
        assert!(outcome.metrics.recall < 1.0);
        assert!(outcome.metrics.precision > 0.9);
    }

    #[test]
    fn join_with_explicit_transformations() {
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
        let t = Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]);
        let (pairs, metrics) = pipeline.join_with_transformations(&staff_pair(), [&t]);
        assert_eq!(pairs.len(), 6);
        assert!((metrics.f1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_pair_yields_empty_outcome() {
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
        let outcome = pipeline.run(&ColumnPair::default());
        assert!(outcome.predicted_pairs.is_empty());
        assert_eq!(outcome.metrics.f1, 0.0);
    }

    #[test]
    fn many_to_many_targets_all_reported() {
        // Two target rows share the same value; a matching source row must
        // pair with both.
        let pair = ColumnPair {
            name: "m2m".into(),
            source: vec!["abc, def".into(), "ghi, jkl".into()],
            target: vec!["abc".into(), "abc".into(), "ghi".into()],
            golden: vec![(0, 0), (0, 1), (1, 2)],
        };
        let pipeline = JoinPipeline::new(JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            join_min_support: 0.0,
            ..JoinPipelineConfig::paper_default()
        });
        let outcome = pipeline.run(&pair);
        assert!(outcome.predicted_pairs.contains(&(0, 0)));
        assert!(outcome.predicted_pairs.contains(&(0, 1)));
        assert!((outcome.metrics.recall - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_support_rejected() {
        let _ = JoinPipeline::new(JoinPipelineConfig {
            join_min_support: 2.0,
            ..JoinPipelineConfig::paper_default()
        });
    }

    #[test]
    fn fingerprint_join_bit_identical_to_reference() {
        // Duplicated target values for fan-out, and two transformations
        // whose outputs overlap so the cross-transformation dedup is
        // exercised.
        let mut source: Vec<String> = Vec::new();
        let mut target: Vec<String> = Vec::new();
        for i in 0..29 {
            source.push(format!("last{i:02}, first{i:02}"));
            target.push(format!("f last{i:02}"));
        }
        target[7] = target[3].clone(); // duplicate target value
        source.push(String::new());
        target.push("orphan".into());
        let pair = ColumnPair::aligned("fp", source, target);

        let t1 = Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]);
        // Same outputs as t1 by a different program ("f" is a fixed-offset
        // substring of every source row): the cross-transformation dedup
        // rejects every one of its predictions.
        let t2 = Transformation::new(vec![
            Unit::substr(8, 9),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]);
        let base = JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::paper_default()
        };
        let oracle = crate::reference::equi_join_reference(
            &pair,
            [&t1, &t2],
            &base.synthesis.normalize,
        );
        assert_eq!(JoinPipeline::new(base).equi_join(&pair, [&t1, &t2]), oracle);
        assert!(!oracle.is_empty());
    }

    #[test]
    fn all_duplicate_target_values_fan_out_through_fingerprint_index() {
        // Every target row holds the same value: one covered source row
        // predicts pairs with all of them, in ascending target-row order.
        let pair = ColumnPair {
            name: "dup".into(),
            source: vec!["abc, def".into()],
            target: vec!["abc".into(), "abc".into(), "abc".into(), "abc".into()],
            golden: vec![(0, 0), (0, 1), (0, 2), (0, 3)],
        };
        let t = Transformation::new(vec![Unit::split(',', 0)]);
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
        let predicted = pipeline.equi_join(&pair, [&t]);
        assert_eq!(predicted, vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
        assert_eq!(
            predicted,
            crate::reference::equi_join_reference(
                &pair,
                [&t],
                &pipeline.config().synthesis.normalize
            )
        );
    }

    #[test]
    fn empty_columns_join_to_nothing() {
        let t = Transformation::new(vec![Unit::substr(0, 2)]);
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
        let no_source = ColumnPair {
            name: "ns".into(),
            source: vec![],
            target: vec!["ab".into()],
            golden: vec![],
        };
        let no_target = ColumnPair {
            name: "nt".into(),
            source: vec!["ab".into()],
            target: vec![],
            golden: vec![],
        };
        assert!(pipeline.equi_join(&no_source, [&t]).is_empty());
        assert!(pipeline.equi_join(&no_target, [&t]).is_empty());
        assert!(pipeline.equi_join(&staff_pair(), []).is_empty());
    }

    #[test]
    fn pipeline_outcome_thread_invariant() {
        // The thread budget reaches coverage's row chunks only.
        let pair = staff_pair();
        let outcome_1 = JoinPipeline::new(JoinPipelineConfig::paper_default()).run(&pair);
        for threads in [2, 4] {
            let outcome = JoinPipeline::new(JoinPipelineConfig::paper_default().with_threads(threads))
                .run(&pair);
            assert_eq!(outcome_1.predicted_pairs, outcome.predicted_pairs, "at {threads} threads");
            assert_eq!(outcome_1.metrics, outcome.metrics, "at {threads} threads");
            assert_eq!(outcome_1.candidate_pairs, outcome.candidate_pairs, "at {threads} threads");
            assert_eq!(
                outcome_1.transformations.transformations,
                outcome.transformations.transformations,
                "at {threads} threads"
            );
        }
    }

    #[test]
    fn unlimited_budget_matches_no_budget() {
        let pair = staff_pair();
        let budget = RunBudget {
            max_bytes: Some(u64::MAX),
            max_rows: Some(u64::MAX),
            ..RunBudget::default()
        };
        for threads in [1, 4] {
            let pipeline =
                JoinPipeline::new(JoinPipelineConfig::paper_default().with_threads(threads));
            let plain = pipeline.run_guarded(&pair, None, None);
            let budgeted = pipeline.run_guarded(&pair, None, Some(&budget));
            assert_eq!(plain.status, PairStatus::Ok);
            assert_eq!(budgeted.status, PairStatus::Ok);
            assert_eq!(budgeted.outcome.predicted_pairs, plain.outcome.predicted_pairs);
            assert_eq!(budgeted.outcome.metrics, plain.outcome.metrics);
            assert_eq!(budgeted.outcome.candidate_pairs, plain.outcome.candidate_pairs);
            assert_eq!(
                budgeted.outcome.transformations.transformations,
                plain.outcome.transformations.transformations
            );
        }
    }

    #[test]
    fn row_cap_rejects_pair_at_admission() {
        let pair = staff_pair();
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default().with_threads(2));
        let budget = RunBudget { max_rows: Some(1), ..RunBudget::default() };
        let guarded = pipeline.run_guarded(&pair, None, Some(&budget));
        assert_eq!(
            guarded.status,
            PairStatus::TimedOut {
                phase: PairPhase::Matching,
                exceeded: BudgetExceeded::Rows,
            }
        );
        assert!(guarded.outcome.predicted_pairs.is_empty());
        assert_eq!(guarded.outcome.candidate_pairs, 0);
        // Metrics reflect predicting nothing, not garbage.
        assert_eq!(guarded.outcome.metrics.true_positives, 0);
    }

    #[test]
    fn zero_deadline_times_out_deterministically() {
        let pair = staff_pair();
        let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default().with_threads(2));
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        for _ in 0..3 {
            let guarded = pipeline.run_guarded(&pair, None, Some(&budget));
            match guarded.status {
                PairStatus::TimedOut { exceeded: BudgetExceeded::Deadline, .. } => {}
                other => panic!("expected deadline timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn byte_cap_rejects_pair_thread_invariantly() {
        let pair = staff_pair();
        let mut statuses = Vec::new();
        for threads in [1, 2, 4] {
            let pipeline =
                JoinPipeline::new(JoinPipelineConfig::paper_default().with_threads(threads));
            let budget = RunBudget { max_bytes: Some(8), ..RunBudget::default() };
            statuses.push(pipeline.run_guarded(&pair, None, Some(&budget)).status);
        }
        for status in &statuses {
            assert_eq!(
                *status,
                PairStatus::TimedOut {
                    phase: PairPhase::Matching,
                    exceeded: BudgetExceeded::Bytes,
                }
            );
        }
    }
}
