//! Request-stream workload generator for the serving layer.
//!
//! The resident-corpus cache (`tjoin-serve`) is exercised by *request
//! sequences*: the same repository submitted repeatedly, interleaved with
//! other repositories, so that warm hits, cold misses, and byte-budget
//! evictions all occur in one run. This module generates such sequences
//! deterministically:
//!
//! * `distinct` repositories are generated from the embedded
//!   [`RepositoryConfig`] under per-repository seeds, so their columns are
//!   content-distinct (distinct fingerprints) while each repository's own
//!   content is stable across requests;
//! * the request `sequence` indexes into those repositories with a
//!   hot-skewed distribution — repository 0 absorbs roughly half of all
//!   requests, mirroring the head-heavy reuse real corpus caches see — so
//!   a byte-budgeted cache keeps the hot repository resident while cold
//!   tails churn.
//!
//! Generation is deterministic per seed (under the workspace's offline
//! `rand` shim — a different stream than upstream `StdRng`, see the shim
//! docs).

use crate::repository::{is_decoy, joinable_rows, RepositoryConfig};
use crate::table::ColumnPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the request-stream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestWorkloadConfig {
    /// Number of distinct repositories to generate.
    pub distinct: usize,
    /// Number of requests in the sequence.
    pub requests: usize,
    /// Shape of each generated repository (pairs, rows, noise, decoys).
    pub repository: RepositoryConfig,
}

impl Default for RequestWorkloadConfig {
    fn default() -> Self {
        Self {
            distinct: 3,
            requests: 12,
            repository: RepositoryConfig::new(4, 40),
        }
    }
}

/// A generated request stream: the distinct repositories plus the order in
/// which they are requested.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestWorkload {
    /// The distinct repositories, indexable by the entries of `sequence`.
    pub repositories: Vec<Vec<ColumnPair>>,
    /// The request order: each entry indexes into `repositories`.
    pub sequence: Vec<usize>,
}

impl RequestWorkloadConfig {
    /// Generates the workload deterministically from `seed`.
    ///
    /// Repository `i` is generated from `seed + i`, so two workloads
    /// sharing a seed share repository *content* regardless of how many
    /// distinct repositories each requests. The sequence always opens with
    /// request 0 → repository 0 (a guaranteed cold miss for the hot
    /// repository); subsequent requests draw repository 0 with probability
    /// ~1/2 and a uniform repository otherwise.
    pub fn generate(&self, seed: u64) -> RequestWorkload {
        assert!(self.distinct >= 1, "workload needs at least one repository");
        let repositories: Vec<Vec<ColumnPair>> = (0..self.distinct)
            .map(|i| self.repository.generate(seed + i as u64))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut sequence = Vec::with_capacity(self.requests);
        for i in 0..self.requests {
            if i == 0 || rng.gen_bool(0.5) {
                sequence.push(0);
            } else {
                sequence.push(rng.gen_range(0..self.distinct));
            }
        }
        RequestWorkload {
            repositories,
            sequence,
        }
    }
}

/// Configuration of the append-stream generator.
///
/// Where [`RequestWorkloadConfig`] replays whole repositories, this
/// generator grows **one** repository in place: a base repository plus a
/// sequence of append steps, each adding fresh joinable rows (same format
/// family, so the pair's existing transformations keep covering them) to
/// one of the repository's joinable pairs. The step sequence is hot-skewed
/// toward the first joinable pair — the shape where incremental
/// maintenance pays off most, since the hot pair's artifacts are extended
/// over and over while a rebuild would re-derive them from scratch each
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendWorkloadConfig {
    /// Shape of the base repository.
    pub repository: RepositoryConfig,
    /// Number of append steps in the sequence.
    pub appends: usize,
    /// Rows added per append step.
    pub rows_per_append: usize,
}

impl Default for AppendWorkloadConfig {
    fn default() -> Self {
        Self {
            repository: RepositoryConfig::new(4, 40),
            appends: 8,
            rows_per_append: 10,
        }
    }
}

/// One append step: fresh joinable rows for one pair of the base
/// repository.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendStep {
    /// Index into the base repository of the pair being grown.
    pub pair: usize,
    /// The appended `(source, target)` rows, same format family as the
    /// pair's existing rows.
    pub rows: Vec<(String, String)>,
}

/// A generated append stream: the base repository plus the ordered append
/// steps.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendWorkload {
    /// The repository before any append.
    pub base: Vec<ColumnPair>,
    /// The append steps, in application order.
    pub steps: Vec<AppendStep>,
}

impl AppendWorkloadConfig {
    /// Generates the workload deterministically from `seed`.
    ///
    /// Appends target only joinable pairs (decoys have no format family to
    /// extend). The first step always grows the first joinable pair (the
    /// hot pair); subsequent steps draw it with probability ~1/2 and a
    /// uniform joinable pair otherwise. Step `i`'s rows are generated
    /// under a per-step seed, so distinct steps append distinct content.
    pub fn generate(&self, seed: u64) -> AppendWorkload {
        assert!(self.rows_per_append >= 1, "rows_per_append must be at least 1");
        let base = self.repository.generate(seed);
        let joinable: Vec<usize> = base
            .iter()
            .enumerate()
            .filter(|(_, p)| !is_decoy(p))
            .map(|(i, _)| i)
            .collect();
        assert!(
            !joinable.is_empty(),
            "append workload needs at least one joinable pair"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908);
        let steps = (0..self.appends)
            .map(|i| {
                let pair = if i == 0 || rng.gen_bool(0.5) {
                    joinable[0]
                } else {
                    joinable[rng.gen_range(0..joinable.len())]
                };
                let rows = joinable_rows(&base[pair], self.rows_per_append, seed ^ (i as u64 + 1))
                    .expect("joinable pairs always carry a family suffix");
                AppendStep { pair, rows }
            })
            .collect();
        AppendWorkload { base, steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_config(distinct: usize, requests: usize) -> RequestWorkloadConfig {
        RequestWorkloadConfig { distinct, requests, ..RequestWorkloadConfig::default() }
    }

    fn append_config(appends: usize, rows_per_append: usize) -> AppendWorkloadConfig {
        AppendWorkloadConfig { appends, rows_per_append, ..AppendWorkloadConfig::default() }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = request_config(3, 20);
        assert_eq!(config.generate(7), config.generate(7));
        assert_ne!(config.generate(7).sequence, config.generate(8).sequence);
    }

    #[test]
    fn repositories_are_content_distinct() {
        let w = request_config(3, 4).generate(1);
        assert_eq!(w.repositories.len(), 3);
        assert_ne!(w.repositories[0], w.repositories[1]);
        assert_ne!(w.repositories[1], w.repositories[2]);
    }

    #[test]
    fn sequence_is_hot_skewed_and_in_range() {
        let w = request_config(4, 200).generate(2);
        assert_eq!(w.sequence.len(), 200);
        assert_eq!(w.sequence[0], 0, "first request must cold-miss the hot repository");
        assert!(w.sequence.iter().all(|&i| i < 4));
        let hot = w.sequence.iter().filter(|&&i| i == 0).count();
        // ~1/2 direct draws plus 1/4 of the uniform remainder ≈ 5/8.
        assert!(hot > 80, "hot repository underrepresented: {hot}/200");
        assert!(
            (1..4).all(|r| w.sequence.contains(&r)),
            "cold repositories never requested: {:?}",
            w.sequence
        );
    }

    #[test]
    fn shared_seed_shares_repository_content() {
        let small = request_config(2, 4).generate(5);
        let large = request_config(4, 4).generate(5);
        assert_eq!(small.repositories[0], large.repositories[0]);
        assert_eq!(small.repositories[1], large.repositories[1]);
    }

    #[test]
    #[should_panic(expected = "at least one repository")]
    fn zero_distinct_rejected() {
        let _ = request_config(0, 4).generate(0);
    }

    #[test]
    fn append_workload_deterministic_per_seed() {
        let config = append_config(6, 5);
        assert_eq!(config.generate(3), config.generate(3));
        assert_ne!(config.generate(3).steps, config.generate(4).steps);
    }

    #[test]
    fn append_steps_target_joinable_pairs_and_skew_hot() {
        let config = AppendWorkloadConfig {
            repository: RepositoryConfig::new(8, 20),
            appends: 40,
            rows_per_append: 3,
        };
        let w = config.generate(11);
        let hot = w
            .base
            .iter()
            .position(|p| !is_decoy(p))
            .expect("repository has joinable pairs");
        assert_eq!(w.steps.len(), 40);
        assert_eq!(w.steps[0].pair, hot, "first step must grow the hot pair");
        for step in &w.steps {
            assert!(!is_decoy(&w.base[step.pair]), "append targeted a decoy");
            assert_eq!(step.rows.len(), 3);
        }
        let hot_steps = w.steps.iter().filter(|s| s.pair == hot).count();
        assert!(hot_steps > 16, "hot pair underrepresented: {hot_steps}/40");
        assert!(
            w.steps.iter().any(|s| s.pair != hot),
            "cold pairs never appended"
        );
    }

    #[test]
    fn appended_rows_share_the_pair_family() {
        let w = append_config(4, 6).generate(5);
        // Distinct steps against the same pair append distinct content.
        let hot: Vec<&AppendStep> =
            w.steps.iter().filter(|s| s.pair == w.steps[0].pair).collect();
        if hot.len() >= 2 {
            assert_ne!(hot[0].rows, hot[1].rows);
        }
        // Rows come from the pair's own family generator.
        for step in &w.steps {
            let regen = joinable_rows(&w.base[step.pair], step.rows.len(), 0);
            assert!(regen.is_some(), "family must be recoverable from the name");
        }
    }
}
