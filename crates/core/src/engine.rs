//! The synthesis engine: ties the phases together (Section 4.1 end to end).

use crate::bitmap::RowBitmap;
use crate::config::SynthesisConfig;
use crate::cover::{lazy_greedy_cover_budgeted, min_rows_for_support, ScoredTransformation};
use crate::coverage::compute_coverage_planned_budgeted;
use crate::generate::generate_transformations;
use crate::pair::PairSet;
use crate::sampling::sample_indices;
use crate::stats::{PhaseTimings, SynthesisStats};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::time::Instant;
use tjoin_text::{fault, BudgetExceeded, BudgetToken, FaultSite, FxHashMap};
use tjoin_units::TransformationSet;

/// The result of a synthesis run. `Default` is the empty cover with zeroed
/// stats: what a pipeline pair that did not finish synthesis carries.
#[derive(Debug, Clone, Default)]
pub struct SynthesisResult {
    /// The greedy minimal covering set ("Coverage" / "#Trans." view). Its
    /// first pick, [`TransformationSet::best`], is the single transformation
    /// with the largest coverage ("Top Cov." view).
    pub cover: TransformationSet,
    /// Statistics and timings of the run.
    pub stats: SynthesisStats,
}

impl SynthesisResult {
    /// Coverage fraction of the single best transformation.
    pub fn top_coverage(&self) -> f64 {
        self.cover.top_coverage()
    }

    /// Coverage fraction of the covering set.
    pub fn set_coverage(&self) -> f64 {
        self.cover.set_coverage()
    }
}

/// The transformation synthesis engine (the paper's contribution).
///
/// See the crate-level documentation for the phase walk-through and
/// [`SynthesisConfig`] for the tunable parameters.
#[derive(Debug, Clone, Default)]
pub struct SynthesisEngine {
    config: SynthesisConfig,
}

impl SynthesisEngine {
    /// Creates an engine with the given configuration (validating it).
    pub fn new(config: SynthesisConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Runs synthesis on raw (source, target) string pairs.
    pub fn discover_from_strings<S: AsRef<str>, T: AsRef<str>>(
        &self,
        pairs: &[(S, T)],
    ) -> SynthesisResult {
        let set = PairSet::from_strings(pairs, &self.config.normalize);
        self.discover(&set)
    }

    /// [`Self::discover_from_strings`] under a cooperative [`BudgetToken`]
    /// (see [`Self::discover_budgeted`]).
    pub fn discover_from_strings_budgeted<S: AsRef<str>, T: AsRef<str>>(
        &self,
        pairs: &[(S, T)],
        budget: Option<&BudgetToken>,
    ) -> Result<SynthesisResult, BudgetExceeded> {
        let set = PairSet::from_strings(pairs, &self.config.normalize);
        self.discover_budgeted(&set, budget)
    }

    /// Runs synthesis on a prepared [`PairSet`].
    pub fn discover(&self, pairs: &PairSet) -> SynthesisResult {
        self.discover_budgeted(pairs, None).expect("unbudgeted synthesis cannot abort")
    }

    /// [`Self::discover`] under a cooperative [`BudgetToken`]: the token is
    /// checked between phases, at the coverage scan's tile boundaries (at
    /// most 64 rows apart), and at the selection heap's pop boundaries, so
    /// a tripped budget (only the wall-clock deadline can trip mid-run;
    /// row/byte caps are charged at pipeline admission) aborts the
    /// synthesis cleanly with `Err`, never with a partial result, instead
    /// of running away. With `budget = None` this is exactly
    /// [`Self::discover`], bit for bit.
    pub fn discover_budgeted(
        &self,
        pairs: &PairSet,
        budget: Option<&BudgetToken>,
    ) -> Result<SynthesisResult, BudgetExceeded> {
        let total_input = pairs.len();

        // Sampling (Section 5.3): draw the working subset when configured.
        let sampled;
        let working: &PairSet = match self.config.sample_size {
            Some(size) if size < pairs.len() => {
                let idx = sample_indices(pairs.len(), size, self.config.sample_seed);
                sampled = pairs.subset(&idx);
                &sampled
            }
            _ => pairs,
        };

        // Phase 1–3: placeholders, skeletons, unit extraction, generation,
        // duplicate removal.
        let generation = generate_transformations(working, &self.config);
        if let Some(token) = budget {
            token.check()?;
        }

        // Phase 4: coverage with eager filtering, on the interned candidates
        // (no re-interning, no unit cloning), row-chunked across threads.
        fault::fire(FaultSite::CoverageScan);
        let coverage = compute_coverage_planned_budgeted(
            &generation.pool,
            &generation.transformations,
            working,
            self.config.unit_cache,
            self.config.threads,
            self.config.coverage_axis,
            budget,
        )?;

        // Phase 5: selection. Coverage arrives as sparse sorted row lists,
        // and the support and all-literal filters run on that form (a
        // length check plus a pooled unit-kind scan). Survivors that cover
        // the same rows have the same marginal gain in every greedy round,
        // so greedy can only ever pick the one that leads the tie-break
        // (fewer units, then rendering, then input order), after which the
        // rest gain nothing. Each covered set therefore keeps only its
        // leader; a rendering is made only for a tie on units. Only the
        // leaders are densified into bitmaps and resolved into owned
        // transformations, in input order, so greedy's last tie leg holds.
        let select_start = Instant::now();
        let rows_used = working.len();
        let min_rows = min_rows_for_support(rows_used, self.config.min_support);
        let (pool, transformations) = (&generation.pool, &generation.transformations);
        // Per covered set: its leader's index and, once made, rendering.
        let mut leaders: Vec<(usize, Option<String>)> = Vec::new();
        let mut group_of: FxHashMap<&[u32], usize> = FxHashMap::default();
        let survivors = transformations.iter().zip(&coverage.covered_rows).enumerate();
        for (idx, (t, rows)) in survivors {
            if rows.len() < min_rows || (rows.len() <= 1 && t.is_all_literal(pool)) {
                continue;
            }
            let group = match group_of.entry(rows) {
                Entry::Vacant(slot) => {
                    slot.insert(leaders.len());
                    leaders.push((idx, None));
                    continue;
                }
                Entry::Occupied(slot) => *slot.get(),
            };
            let (leader, rendered) = &mut leaders[group];
            let held = &transformations[*leader];
            match t.unit_ids().len().cmp(&held.unit_ids().len()) {
                Ordering::Less => (*leader, *rendered) = (idx, None),
                Ordering::Equal => {
                    let own = pool.render(t);
                    if own < *rendered.get_or_insert_with(|| pool.render(held)) {
                        (*leader, *rendered) = (idx, Some(own));
                    }
                }
                Ordering::Greater => {}
            }
        }
        let mut kept: Vec<usize> = leaders.into_iter().map(|(idx, _)| idx).collect();
        kept.sort_unstable();
        let candidates: Vec<ScoredTransformation> = kept
            .into_iter()
            .map(|idx| ScoredTransformation {
                transformation: pool.resolve(&transformations[idx]),
                covered: RowBitmap::from_sorted_rows(rows_used, &coverage.covered_rows[idx]),
            })
            .collect();
        // Free the now-dead sparse and id forms so greedy's allocations can
        // reuse them.
        drop(group_of);
        drop((coverage.covered_rows, generation.transformations, generation.pool));
        let cover = lazy_greedy_cover_budgeted(candidates, rows_used, budget)?;
        let cover_selection = select_start.elapsed();

        let stats = SynthesisStats {
            pairs_total: total_input,
            pairs_used: working.len(),
            generated_transformations: generation.generated,
            transformations_to_try: generation.unique,
            coverage_trials: coverage.trials,
            cache_hits: coverage.cache_hits,
            potential_trials: coverage.potential_trials,
            timings: PhaseTimings {
                placeholder_generation: generation.placeholder_time,
                unit_extraction: generation.unit_extraction_time,
                duplicate_removal: generation.generation_dedup_time,
                applying_transformations: coverage.apply_time,
                cover_selection,
            },
        };

        Ok(SynthesisResult { cover, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_units::UnitKind;

    fn engine() -> SynthesisEngine {
        SynthesisEngine::new(SynthesisConfig::default())
    }

    #[test]
    fn discovers_single_rule_for_uniform_rows() {
        let rows = vec![
            ("Rafiei, Davood", "D Rafiei"),
            ("Nascimento, Mario", "M Nascimento"),
            ("Gingrich, Douglas", "D Gingrich"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
        ];
        let result = engine().discover_from_strings(&rows);
        assert!(
            (result.top_coverage() - 1.0).abs() < 1e-9,
            "top coverage {}",
            result.top_coverage()
        );
        assert!((result.set_coverage() - 1.0).abs() < 1e-9);
        assert_eq!(result.cover.len(), 1, "cover: {}", result.cover);
        // The discovered rule must generalize to an unseen row.
        let t = &result.cover.best().unwrap().transformation;
        assert_eq!(
            t.apply("prus-czarnecki, andrzej").as_deref(),
            Some("a prus-czarnecki")
        );
    }

    #[test]
    fn discovers_multiple_rules_when_formats_mix() {
        // Half the rows map to emails, half to "F Last" abbreviations: one
        // transformation cannot cover both, the covering set needs at least 2.
        let rows = vec![
            ("Rafiei, Davood", "davood.rafiei@ualberta.ca"),
            ("Bowling, Michael", "michael.bowling@ualberta.ca"),
            ("Nascimento, Mario", "mario.nascimento@ualberta.ca"),
            ("Gingrich, Douglas", "d gingrich"),
            ("Gosgnach, Simon", "s gosgnach"),
            ("Smith, Sarah", "s smith"),
        ];
        let result = engine().discover_from_strings(&rows);
        assert!((result.set_coverage() - 1.0).abs() < 1e-9, "{}", result.cover);
        assert!(result.cover.len() >= 2);
        assert!(result.top_coverage() <= 0.51);
    }

    #[test]
    fn phone_reformatting_discovered() {
        let rows = vec![
            ("(780) 432-3636", "+1 780 432 3636"),
            ("(780) 433-6545", "+1 780 433 6545"),
            ("(403) 428-2108", "+1 403 428 2108"),
        ];
        let result = engine().discover_from_strings(&rows);
        assert!((result.set_coverage() - 1.0).abs() < 1e-9, "{}", result.cover);
        let t = &result.cover.best().unwrap().transformation;
        assert_eq!(t.apply("(825) 406-4565").as_deref(), Some("+1 825 406 4565"));
    }

    #[test]
    fn noise_rows_left_uncovered_but_do_not_break_discovery() {
        let rows = vec![
            ("Rafiei, Davood", "D Rafiei"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
            ("Smith, Sarah", "totally unrelated text 123"),
        ];
        let result = engine().discover_from_strings(&rows);
        assert!(result.top_coverage() >= 0.74, "top {}", result.top_coverage());
        assert!(result.set_coverage() < 1.0 + 1e-9);
    }

    #[test]
    fn sampling_still_discovers_high_coverage_rule() {
        let rows: Vec<(String, String)> = (0..200)
            .map(|i| {
                (
                    format!("user{i:03}, person"),
                    format!("p user{i:03}"),
                )
            })
            .collect();
        let config = SynthesisConfig::default().with_sample(20, 1);
        let result = SynthesisEngine::new(config).discover_from_strings(&rows);
        assert_eq!(result.stats.pairs_total, 200);
        assert_eq!(result.stats.pairs_used, 20);
        assert!((result.top_coverage() - 1.0).abs() < 1e-9);
        // The rule discovered on the sample generalizes to the full input.
        let t = &result.cover.best().unwrap().transformation;
        assert_eq!(t.apply("user999, person").as_deref(), Some("p user999"));
    }

    #[test]
    fn min_support_drops_rare_transformations() {
        let rows = vec![
            ("aaa, bbb", "bbb"),
            ("ccc, ddd", "ddd"),
            ("eee, fff", "fff"),
            ("unique-row", "completely different 42"),
        ];
        let strict = SynthesisEngine::new(SynthesisConfig::default().with_min_support(0.5));
        let result = strict.discover_from_strings(&rows);
        for t in result.cover.iter() {
            assert!(t.coverage() as f64 / rows.len() as f64 >= 0.5);
        }
    }

    /// The selection filter runs inline in `discover`: a candidate needs
    /// `min_rows_for_support` covered rows, and an all-literal candidate
    /// needs two.
    #[test]
    fn selection_filter_cases_through_discover() {
        let discover = |rows: &[(&str, &str)], min_support: f64| {
            let config = SynthesisConfig::default().with_min_support(min_support);
            let pairs = PairSet::from_strings(rows, &config.normalize);
            SynthesisEngine::new(config).discover(&pairs)
        };
        let covered = |result: &SynthesisResult| -> Vec<Vec<u32>> {
            result.cover.iter().map(|t| t.covered_rows.clone()).collect()
        };

        // "xyz" shares no text with "abc", so only the literal "xyz" yields
        // it. On a single row it is a copied value and is dropped.
        let single = discover(&[("abc", "xyz"), ("def ghi", "ghi")], 0.0);
        assert_eq!(covered(&single), vec![vec![1]], "{}", single.cover);
        assert!(single.cover.iter().all(|t| !t.transformation.is_all_literal()));

        // The same literal on two rows generalizes and is kept.
        let double = discover(&[("abc", "xyz"), ("def", "xyz")], 0.0);
        assert_eq!(covered(&double), vec![vec![0, 1]], "{}", double.cover);
        assert!(double.cover.best().unwrap().transformation.is_all_literal());

        // "stu" is Substr(2, 5) of its row only. Without a support floor
        // it is covered; a 0.5 floor over 3 rows needs 2 rows and cuts it.
        let rows = [("ab cd", "cd"), ("ef gh", "gh"), ("qrstuv", "stu")];
        let loose = discover(&rows, 0.0);
        assert!((loose.set_coverage() - 1.0).abs() < 1e-9, "{}", loose.cover);
        let strict = discover(&rows, 0.5);
        assert!((strict.set_coverage() - 2.0 / 3.0).abs() < 1e-9, "{}", strict.cover);
        assert!(strict.cover.iter().all(|t| t.coverage() >= 2));

        // An empty target yields no candidate that covers a row: the
        // one-row floor drops them before greedy, and the cover is empty.
        let empty = discover(&[("abc", ""), ("def", "")], 0.0);
        assert!(empty.cover.is_empty(), "{}", empty.cover);
    }

    #[test]
    fn pruning_toggles_do_not_change_coverage() {
        let rows = vec![
            ("Rafiei, Davood", "D Rafiei"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
        ];
        let pruned = engine().discover_from_strings(&rows);
        let unpruned = SynthesisEngine::new(SynthesisConfig {
            deduplicate: false,
            unit_cache: false,
            ..SynthesisConfig::default()
        })
        .discover_from_strings(&rows);
        assert!((pruned.top_coverage() - unpruned.top_coverage()).abs() < 1e-9);
        assert!((pruned.set_coverage() - unpruned.set_coverage()).abs() < 1e-9);
        // Pruning statistics must reflect the toggles.
        assert!(pruned.stats.cache_hits > 0 || pruned.stats.potential_trials < 100);
        assert_eq!(unpruned.stats.cache_hits, 0);
        assert!(unpruned.stats.duplicate_ratio() == 0.0);
        assert!(pruned.stats.duplicate_ratio() >= 0.0);
    }

    #[test]
    fn stats_are_consistent() {
        let rows = vec![("abc def", "def-abc"), ("ghi jkl", "jkl-ghi")];
        let result = engine().discover_from_strings(&rows);
        let s = &result.stats;
        assert!(s.generated_transformations >= s.transformations_to_try);
        assert_eq!(
            s.potential_trials,
            s.transformations_to_try * s.pairs_used as u64
        );
        assert!(s.coverage_trials + s.cache_hits <= s.potential_trials);
        assert!(s.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn stats_identical_to_reference_coverage() {
        // The move-based selection and interned coverage must leave
        // `SynthesisStats` exactly as the naive clone-based pipeline would
        // have reported it: re-run generation + the retained reference
        // coverage loop and compare every pruning statistic.
        use crate::coverage::reference::compute_coverage_reference;
        use crate::generate::generate_transformations;
        use crate::pair::PairSet;

        let rows = vec![
            ("Rafiei, Davood", "D Rafiei"),
            ("Bowling, Michael", "M Bowling"),
            ("Gosgnach, Simon", "S Gosgnach"),
            ("Smith, Sarah", "totally unrelated text 123"),
        ];
        for threads in [1usize, 4] {
            let config = SynthesisConfig::default().with_threads(threads);
            let result = SynthesisEngine::new(config.clone()).discover_from_strings(&rows);

            let pairs = PairSet::from_strings(&rows, &config.normalize);
            let generation = generate_transformations(&pairs, &config);
            let resolved: Vec<_> = generation.resolved().collect();
            let reference = compute_coverage_reference(&resolved, &pairs, config.unit_cache);

            let s = &result.stats;
            assert_eq!(s.generated_transformations, generation.generated);
            assert_eq!(s.transformations_to_try, generation.unique);
            assert_eq!(s.coverage_trials, reference.trials, "threads={threads}");
            assert_eq!(s.cache_hits, reference.cache_hits, "threads={threads}");
            assert_eq!(s.potential_trials, reference.potential_trials);
        }
    }

    #[test]
    fn empty_input_produces_empty_result() {
        let rows: Vec<(String, String)> = Vec::new();
        let result = engine().discover_from_strings(&rows);
        assert!(result.cover.is_empty());
        assert!(result.cover.best().is_none());
        assert_eq!(result.top_coverage(), 0.0);
        assert_eq!(result.set_coverage(), 0.0);
    }

    #[test]
    fn parallel_coverage_matches_sequential() {
        let rows: Vec<(String, String)> = (0..30)
            .map(|i| (format!("item {i:02}, group"), format!("g item {i:02}")))
            .collect();
        let seq = engine().discover_from_strings(&rows);
        let par = SynthesisEngine::new(SynthesisConfig::default().with_threads(4))
            .discover_from_strings(&rows);
        assert_eq!(seq.top_coverage(), par.top_coverage());
        assert_eq!(seq.set_coverage(), par.set_coverage());
        assert_eq!(seq.cover.len(), par.cover.len());
    }

    #[test]
    fn two_char_split_enabled_finds_parenthesized_content() {
        let mut config = SynthesisConfig::default();
        config.unit_kinds.push(UnitKind::TwoCharSplitSubstr);
        let rows = vec![
            ("alpha (one)", "one"),
            ("beta (two)", "two"),
            ("gamma (six)", "six"),
        ];
        let result = SynthesisEngine::new(config).discover_from_strings(&rows);
        assert!((result.top_coverage() - 1.0).abs() < 1e-9, "{}", result.cover);
    }
}
