//! The Auto-Join baseline (Zhu et al., VLDB 2017), as described in Section
//! 3.2 of the paper.
//!
//! Auto-Join samples small subsets of the input pairs and, for each subset,
//! searches for a single transformation covering *every* pair in the subset:
//!
//! 1. enumerate every unit with every parameter assignment (a blind sweep of
//!    the parameter space — the expensive part the paper's approach avoids);
//! 2. keep the units whose output appears in every remaining target and rank
//!    them by the average length of target text they cover;
//! 3. take the best unit, split every target into the text left and right of
//!    the match, and recurse on both sides;
//! 4. backtrack to the next-ranked unit when a branch fails.
//!
//! The transformations found across all subsets form the final set (Auto-Join
//! does not compute a minimal cover). A configurable wall-clock budget plays
//! the role of the paper's 650 000-second cap: when the budget is exhausted
//! the search stops and reports what it found so far.

use std::time::{Duration, Instant};
use tjoin_core::pair::PairSet;
use tjoin_text::{FxHashSet, NormalizeOptions};
use tjoin_units::{CharStr, CoveredTransformation, Transformation, TransformationSet, Unit, UnitKind};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of the Auto-Join baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoJoinConfig {
    /// Number of subsets sampled (the paper's experiments use 6).
    pub subset_count: usize,
    /// Rows per subset (the paper's experiments use 2).
    pub subset_size: usize,
    /// Maximum recursion depth (number of non-literal units in a
    /// transformation; 3 in the paper's experiments, 4 on spreadsheet data).
    pub max_depth: usize,
    /// Unit kinds enumerated in the blind sweep. Auto-Join's own set includes
    /// `SplitSplitSubstr`.
    pub unit_kinds: Vec<UnitKind>,
    /// Wall-clock budget for the whole run; the search stops (reporting
    /// partial results) once it is exhausted.
    pub time_budget: Duration,
    /// Seed for subset sampling.
    pub seed: u64,
    /// Cap on candidate units considered per recursion step (ranked by score
    /// before truncation), keeping the baseline runnable on long rows.
    pub max_candidates_per_step: usize,
    /// Normalization applied to both columns before the search.
    pub normalize: NormalizeOptions,
}

impl Default for AutoJoinConfig {
    fn default() -> Self {
        Self {
            subset_count: 6,
            subset_size: 2,
            max_depth: 3,
            unit_kinds: vec![
                UnitKind::Substr,
                UnitKind::Split,
                UnitKind::SplitSubstr,
                UnitKind::SplitSplitSubstr,
            ],
            time_budget: Duration::from_secs(60),
            seed: 0,
            max_candidates_per_step: 4096,
            normalize: NormalizeOptions::default(),
        }
    }
}

/// Result of an Auto-Join run.
#[derive(Debug, Clone)]
pub struct AutoJoinResult {
    /// Transformations found (one per successful subset, deduplicated).
    pub transformations: Vec<Transformation>,
    /// Subsets attempted.
    pub subsets_tried: usize,
    /// Subsets for which a covering transformation was found.
    pub subsets_succeeded: usize,
    /// Unit/parameter combinations applied during the search (the cost the
    /// paper's placeholder guidance avoids).
    pub units_enumerated: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Whether the time budget expired before all subsets were processed.
    pub timed_out: bool,
}

impl AutoJoinResult {
    /// Evaluates the found transformations over a pair list, producing the
    /// same [`TransformationSet`] shape the paper's Table 2 reports for
    /// Auto-Join ("we took all those transformations returned by auto-join").
    pub fn evaluate<S: AsRef<str>, T: AsRef<str>>(
        &self,
        pairs: &[(S, T)],
        normalize: &NormalizeOptions,
    ) -> TransformationSet {
        let set = PairSet::from_strings(pairs, normalize);
        let coverage =
            tjoin_core::coverage::compute_coverage(&self.transformations, &set, true, 1);
        let transformations = self
            .transformations
            .iter()
            .zip(coverage.covered_rows)
            .map(|(t, rows)| CoveredTransformation {
                transformation: t.clone(),
                covered_rows: rows,
            })
            .collect();
        TransformationSet {
            transformations,
            total_pairs: set.len(),
        }
    }
}

/// The Auto-Join baseline synthesizer.
#[derive(Debug, Clone, Default)]
pub struct AutoJoin {
    config: AutoJoinConfig,
}

struct SearchState {
    deadline: Instant,
    units_enumerated: u64,
    timed_out: bool,
    max_candidates: usize,
    unit_kinds: Vec<UnitKind>,
}

impl AutoJoin {
    /// Creates the baseline with the given configuration.
    pub fn new(config: AutoJoinConfig) -> Self {
        assert!(config.subset_count >= 1);
        assert!(config.subset_size >= 1);
        assert!(config.max_depth >= 1);
        Self { config }
    }

    /// Runs Auto-Join over raw (source, target) pairs.
    pub fn discover<S: AsRef<str>, T: AsRef<str>>(&self, raw: &[(S, T)]) -> AutoJoinResult {
        let start = Instant::now();
        let pairs: Vec<(CharStr, String)> = raw
            .iter()
            .map(|(s, t)| {
                (
                    CharStr::new(tjoin_text::normalize_for_matching(
                        s.as_ref(),
                        &self.config.normalize,
                    )),
                    tjoin_text::normalize_for_matching(t.as_ref(), &self.config.normalize),
                )
            })
            .collect();

        let mut state = SearchState {
            deadline: start + self.config.time_budget,
            units_enumerated: 0,
            timed_out: false,
            max_candidates: self.config.max_candidates_per_step,
            unit_kinds: self.config.unit_kinds.clone(),
        };

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut found: Vec<Transformation> = Vec::new();
        let mut seen: FxHashSet<Transformation> = FxHashSet::default();
        let mut subsets_tried = 0usize;
        let mut subsets_succeeded = 0usize;

        if !pairs.is_empty() {
            for _ in 0..self.config.subset_count {
                if Instant::now() >= state.deadline {
                    state.timed_out = true;
                    break;
                }
                subsets_tried += 1;
                let mut indices: Vec<usize> = (0..pairs.len()).collect();
                indices.shuffle(&mut rng);
                indices.truncate(self.config.subset_size.min(pairs.len()));
                let subset: Vec<(&CharStr, &str)> = indices
                    .iter()
                    .map(|&i| (&pairs[i].0, pairs[i].1.as_str()))
                    .collect();
                if let Some(units) = solve(&subset, self.config.max_depth, &mut state) {
                    let t = Transformation::new(units);
                    // The search guarantees subset coverage; double-check.
                    debug_assert!(subset.iter().all(|(s, tgt)| t.covers(s, tgt)));
                    subsets_succeeded += 1;
                    if seen.insert(t.clone()) {
                        found.push(t);
                    }
                }
            }
        }

        AutoJoinResult {
            transformations: found,
            subsets_tried,
            subsets_succeeded,
            units_enumerated: state.units_enumerated,
            elapsed: start.elapsed(),
            timed_out: state.timed_out,
        }
    }
}

/// Recursively builds a unit sequence whose concatenated output equals every
/// remaining target in `rows`.
fn solve(
    rows: &[(&CharStr, &str)],
    depth: usize,
    state: &mut SearchState,
) -> Option<Vec<Unit>> {
    if Instant::now() >= state.deadline {
        state.timed_out = true;
        return None;
    }
    // Base case: nothing left to produce on any row.
    if rows.iter().all(|(_, t)| t.is_empty()) {
        return Some(Vec::new());
    }
    // Base case: every remaining target is the same non-empty string — a
    // literal covers it.
    let first_target = rows[0].1;
    if !first_target.is_empty() && rows.iter().all(|(_, t)| *t == first_target) {
        return Some(vec![Unit::literal(first_target)]);
    }
    if depth == 0 {
        return None;
    }

    // Blind enumeration of candidate units, scored by the average length of
    // target text they cover; backtracking over the ranked list.
    let candidates = ranked_candidates(rows, state);
    for unit in candidates {
        // Split every target around the unit's output.
        let mut lefts: Vec<(&CharStr, &str)> = Vec::with_capacity(rows.len());
        let mut rights: Vec<(&CharStr, &str)> = Vec::with_capacity(rows.len());
        let mut ok = true;
        for (src, tgt) in rows {
            let out = match unit.output_on(src) {
                Some(o) if !o.is_empty() => o.into_owned(),
                _ => {
                    ok = false;
                    break;
                }
            };
            match tgt.find(&out) {
                Some(pos) => {
                    lefts.push((src, &tgt[..pos]));
                    rights.push((src, &tgt[pos + out.len()..]));
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let Some(left_units) = solve(&lefts, depth - 1, state) else {
            continue;
        };
        let Some(right_units) = solve(&rights, depth - 1, state) else {
            continue;
        };
        let mut units = left_units;
        units.push(unit);
        units.extend(right_units);
        return Some(units);
    }
    None
}

/// Enumerates every unit/parameter combination (bounded by the configuration
/// caps), keeps those whose output occurs in every remaining target, and
/// ranks them by the average covered target length (descending).
fn ranked_candidates(rows: &[(&CharStr, &str)], state: &mut SearchState) -> Vec<Unit> {
    let max_src_len = rows.iter().map(|(s, _)| s.char_len()).max().unwrap_or(0);
    let mut alphabet: FxHashSet<char> = FxHashSet::default();
    for (s, _) in rows {
        alphabet.extend(s.chars());
    }
    let mut alphabet: Vec<char> = alphabet.into_iter().collect();
    alphabet.sort_unstable();

    let mut scored: Vec<(f64, Unit)> = Vec::new();
    let consider = |unit: Unit, state: &mut SearchState, scored: &mut Vec<(f64, Unit)>| {
        state.units_enumerated += 1;
        let mut total_len = 0usize;
        for (src, tgt) in rows {
            match unit.output_on(src) {
                Some(out) if !out.is_empty() && tgt.contains(out.as_ref()) => {
                    total_len += out.chars().count();
                }
                _ => return,
            }
        }
        scored.push((total_len as f64 / rows.len() as f64, unit));
    };

    if state.unit_kinds.contains(&UnitKind::Substr) {
        for s in 0..max_src_len {
            for e in (s + 1)..=max_src_len {
                consider(Unit::substr(s, e), state, &mut scored);
            }
        }
    }
    if state.unit_kinds.contains(&UnitKind::Split) {
        for &c in &alphabet {
            for i in 0..max_src_len.min(20) {
                consider(Unit::split(c, i), state, &mut scored);
            }
        }
    }
    if state.unit_kinds.contains(&UnitKind::SplitSubstr) {
        for &c in &alphabet {
            for i in 0..max_src_len.min(12) {
                for s in 0..max_src_len.min(24) {
                    for e in (s + 1)..=max_src_len.min(24) {
                        consider(Unit::split_substr(c, i, s, e), state, &mut scored);
                    }
                }
            }
        }
    }
    if state.unit_kinds.contains(&UnitKind::SplitSplitSubstr) {
        // The nested split has six parameters; the sweep is restricted to
        // separator-like delimiters and small indexes to remain finite.
        let separators: Vec<char> = alphabet
            .iter()
            .copied()
            .filter(|c| tjoin_text::is_separator_char(*c))
            .collect();
        for &c1 in &separators {
            for &c2 in &separators {
                for i1 in 0..4usize {
                    for i2 in 0..4usize {
                        for s in 0..max_src_len.min(12) {
                            for e in (s + 1)..=max_src_len.min(12) {
                                consider(
                                    Unit::split_split_substr(c1, i1, c2, i2, s, e),
                                    state,
                                    &mut scored,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    // Literal candidates: substrings of the shortest remaining target that
    // occur in every target.
    if let Some((_, shortest)) = rows.iter().min_by_key(|(_, t)| t.chars().count()) {
        let chars: Vec<char> = shortest.chars().collect();
        for i in 0..chars.len() {
            for j in (i + 1)..=chars.len().min(i + 10) {
                let lit: String = chars[i..j].iter().collect();
                if rows.iter().all(|(_, t)| t.contains(&lit)) {
                    state.units_enumerated += 1;
                    scored.push((lit.chars().count() as f64, Unit::literal(lit)));
                }
            }
        }
    }

    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(state.max_candidates);
    scored.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> AutoJoinConfig {
        AutoJoinConfig {
            subset_count: 4,
            subset_size: 2,
            time_budget: Duration::from_secs(30),
            ..AutoJoinConfig::default()
        }
    }

    #[test]
    fn discovers_single_rule_on_uniform_rows() {
        let rows = vec![
            ("Rafiei, Davood", "D Rafiei"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
            ("Gingrich, Douglas", "D Gingrich"),
        ];
        let aj = AutoJoin::new(quick_config());
        let result = aj.discover(&rows);
        assert!(result.subsets_succeeded > 0, "no subset succeeded");
        let set = result.evaluate(&rows, &NormalizeOptions::default());
        assert!(
            (set.set_coverage() - 1.0).abs() < 1e-9,
            "coverage {} with {}",
            set.set_coverage(),
            set
        );
        assert!(result.units_enumerated > 100);
    }

    #[test]
    fn finds_only_subset_consistent_rules_on_mixed_formats() {
        // With two formats mixed 50/50 and subsets of size 2, some subsets
        // straddle both formats and fail — the hallmark Auto-Join behaviour
        // the paper contrasts against.
        let rows = vec![
            ("Rafiei, Davood", "davood.rafiei@x.ca"),
            ("Bowling, Michael", "michael.bowling@x.ca"),
            ("Gingrich, Douglas", "d gingrich"),
            ("Gosgnach, Simon", "s gosgnach"),
        ];
        let aj = AutoJoin::new(AutoJoinConfig {
            subset_count: 8,
            ..quick_config()
        });
        let result = aj.discover(&rows);
        assert!(result.subsets_tried >= result.subsets_succeeded);
        let set = result.evaluate(&rows, &NormalizeOptions::default());
        // Whatever was found covers at most the rows of its own format.
        for t in set.iter() {
            assert!(t.coverage() <= 2, "{}", t.transformation);
        }
    }

    #[test]
    fn time_budget_respected() {
        let rows: Vec<(String, String)> = (0..20)
            .map(|i| {
                (
                    format!("some fairly long source value number {i:04} with words"),
                    format!("{i:04} words value"),
                )
            })
            .collect();
        let aj = AutoJoin::new(AutoJoinConfig {
            time_budget: Duration::from_millis(50),
            subset_count: 50,
            ..AutoJoinConfig::default()
        });
        let start = Instant::now();
        let result = aj.discover(&rows);
        assert!(start.elapsed() < Duration::from_secs(20));
        assert!(result.timed_out || result.subsets_tried <= 50);
    }

    #[test]
    fn empty_input() {
        let aj = AutoJoin::default();
        let result = aj.discover::<&str, &str>(&[]);
        assert!(result.transformations.is_empty());
        assert_eq!(result.subsets_tried, 0);
        let set = result.evaluate::<&str, &str>(&[], &NormalizeOptions::default());
        assert_eq!(set.set_coverage(), 0.0);
    }

    #[test]
    fn solve_handles_literal_only_targets() {
        let src = CharStr::new("whatever");
        let rows = vec![(&src, "constant")];
        let mut state = SearchState {
            deadline: Instant::now() + Duration::from_secs(5),
            units_enumerated: 0,
            timed_out: false,
            max_candidates: 128,
            unit_kinds: vec![UnitKind::Substr],
        };
        let units = solve(&rows, 2, &mut state).expect("literal solution");
        let t = Transformation::new(units);
        assert_eq!(t.apply("whatever").as_deref(), Some("constant"));
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        let _ = AutoJoin::new(AutoJoinConfig {
            subset_count: 0,
            ..AutoJoinConfig::default()
        });
    }
}
