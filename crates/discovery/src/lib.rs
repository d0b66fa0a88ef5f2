//! # tjoin-discovery
//!
//! Repository-scale joinable-pair discovery: decide *which* column pairs
//! are worth the expensive match→synthesize→join pipeline without running
//! it. The batch and serve layers are handed their [`ColumnPair`]s; a real
//! data lake has thousands of tables, and the O(tables²) pair space is
//! what every query hits first (QJoin frames this as transformation-aware
//! discovery with learned budgets; this crate is the deterministic first
//! cut that keeps the repo's differential-oracle discipline).
//!
//! ## The anchor prune, and why recall is 1.0 by construction
//!
//! Discovery reads one [`ColumnSignature`](tjoin_text::ColumnSignature)
//! per column, computed once into the shared [`GramCorpus`]
//! (`CorpusColumn::try_signature`) next to the stats and index artifacts —
//! a resident corpus (`tjoin-serve`) therefore serves **warm discovery
//! near-free**. A signature is the exact, sorted
//! **anchor set** of the normalized column: fingerprints of every gram of
//! size exactly `n_min`.
//!
//! The n-gram matcher can only pair rows through a shared gram with size
//! in `[n_min, n_max]`, and any shared gram of length `n ≥ n_min` contains
//! a shared length-`n_min` substring. So **a pair whose anchor sets are
//! disjoint cannot produce a single candidate row match** — pruning pairs
//! with zero shared anchors is *sound*, not heuristic, and it is the only
//! verdict discovery makes. Survivors run most-evidence-first, ordered by
//! `(shared anchors desc, repository index asc)`; the order is exact, so
//! it is deterministic and thread-invariant.
//!
//! ## Oracle discipline
//!
//! Three oracles lock the layer down differentially
//! (`crates/join/tests/proptest_discovery.rs`): a naive prune oracle (a
//! pair is pruned iff its columns' sets of normalized `n_min`-character
//! substrings are disjoint — precision and recall of the prune), the
//! small-scale brute-force all-pairs *pipeline* run (every pair the
//! pipeline can join must be shortlisted — recall 1.0), and running the
//! shortlist's pair list through the plain batch runner (end-to-end
//! `discover_and_run` outcomes must be bit-identical to it). A column
//! whose signature build fails is **conservatively retained** — discovery
//! can only prune what it can prove, and a sticky corpus failure proves
//! nothing.
//!
//! The anchor fingerprints carry the same debug-build shadow-map collision
//! guard the `NGramIndex` posting keys use
//! (`tjoin_text::signature::CollisionGuard`, applied at signature build
//! where the gram text is still in hand, with a forced-collision regression
//! test).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::{Deserialize, Serialize};
use tjoin_datasets::ColumnPair;
use tjoin_text::{chunk_map, GramCorpus};

/// Configuration of a discovery pass. `n_min` must match the matcher
/// configuration the shortlisted pairs will run under — the recall
/// guarantee is relative to *that* matcher's smallest gram
/// (`BatchJoinRunner::discover_and_run` asserts the equality).
/// Normalization is the corpus's own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Smallest gram size of the matcher the shortlist feeds; also the
    /// anchor gram size.
    pub n_min: usize,
    /// Worker threads for the signature-building pass (1 = sequential).
    /// Signatures are pure per-column functions, so output is
    /// bit-identical at any value.
    pub threads: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self { n_min: 4, threads: 1 }
    }
}

impl DiscoveryConfig {
    /// The paper-default anchor size (`n0 = 4`), one thread.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Builder-style setter for the thread count (clamped to at least one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// One retained entry of a [`RepositoryShortlist`]: the repository index
/// and name of the surviving pair plus its evidence. `signature_failed`
/// marks conservative retention — a sticky corpus failure on either column
/// proves nothing, so the pair runs (and `shared_anchors` is zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredPair {
    /// Index into the repository slice the shortlist was built from.
    pub index: usize,
    /// The pair's name.
    pub name: String,
    /// Exact shared anchors between the pair's columns (0 when
    /// `signature_failed`) — why it survived.
    pub shared_anchors: usize,
    /// True when a signature build failed and the pair was retained
    /// conservatively instead of scored.
    pub signature_failed: bool,
}

/// A pruned entry of a [`RepositoryShortlist`]: index and name only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedPair {
    /// Index into the repository slice.
    pub index: usize,
    /// The pair's name.
    pub name: String,
}

/// The discovery verdict over a repository's pair list: which pairs the
/// full pipeline should be spent on (in run order) and which were provably
/// pruned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepositoryShortlist {
    /// Retained pairs in run order: survivors by (shared anchors desc,
    /// index asc), then conservatively retained signature-failure pairs in
    /// index order.
    pub ranked: Vec<ScoredPair>,
    /// Pairs whose columns share no anchor — *provably* unjoinable under
    /// the matcher the config mirrors. In index order.
    pub pruned: Vec<PrunedPair>,
    /// Always empty: discovery makes no budget cuts. Kept only because the
    /// repository benchmark reads it.
    pub pruned_by_budget: Vec<ScoredPair>,
    /// Repository size the shortlist was built from.
    pub considered: usize,
}

impl RepositoryShortlist {
    /// A shortlist that retains every pair unscored, in input order — the
    /// degenerate verdict for matching strategies discovery cannot reason
    /// about (golden row pairs need no shared text).
    pub fn retain_all(repository: &[ColumnPair]) -> Self {
        Self {
            ranked: repository
                .iter()
                .enumerate()
                .map(|(index, pair)| ScoredPair {
                    index,
                    name: pair.name.clone(),
                    shared_anchors: 0,
                    signature_failed: false,
                })
                .collect(),
            pruned: Vec::new(),
            pruned_by_budget: Vec::new(),
            considered: repository.len(),
        }
    }
}

/// Signs both columns of `pair` through `corpus` and counts their shared
/// anchors; `None` when either signature build failed (conservative
/// retention downstream).
fn shared_anchors(corpus: &GramCorpus, pair: &ColumnPair, n_min: usize) -> Option<usize> {
    let sign = |cells: &[String]| corpus.try_column_on(cells)?.try_signature(n_min);
    let source = sign(&pair.source).ok()?;
    let target = sign(&pair.target).ok()?;
    Some(source.shared_anchors(&target))
}

/// Shortlists a repository's pair list: signs every column through
/// `corpus` (signature builds parallelized over `config.threads`; pure
/// per-column work, so the result is thread-invariant), prunes pairs whose
/// columns share no anchor, and orders the survivors by (shared anchors
/// desc, index asc). Signature failures retain conservatively (see
/// [`ScoredPair::signature_failed`]).
pub fn shortlist_repository(
    repository: &[ColumnPair],
    corpus: &GramCorpus,
    config: &DiscoveryConfig,
) -> RepositoryShortlist {
    let evidence = chunk_map(repository, config.threads.max(1), |pair| {
        shared_anchors(corpus, pair, config.n_min)
    });
    let mut ranked: Vec<ScoredPair> = Vec::new();
    let mut retained_failures: Vec<ScoredPair> = Vec::new();
    let mut pruned: Vec<PrunedPair> = Vec::new();
    for (index, (pair, shared)) in repository.iter().zip(evidence).enumerate() {
        let name = pair.name.clone();
        match shared {
            None => retained_failures.push(ScoredPair {
                index,
                name,
                shared_anchors: 0,
                signature_failed: true,
            }),
            Some(0) => pruned.push(PrunedPair { index, name }),
            Some(shared_anchors) => {
                ranked.push(ScoredPair { index, name, shared_anchors, signature_failed: false })
            }
        }
    }
    ranked.sort_by(|a, b| b.shared_anchors.cmp(&a.shared_anchors).then(a.index.cmp(&b.index)));
    ranked.extend(retained_failures);
    RepositoryShortlist {
        ranked,
        pruned,
        pruned_by_budget: Vec::new(),
        considered: repository.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_text::NormalizeOptions;

    fn pair(name: &str, source: &[&str], target: &[&str]) -> ColumnPair {
        ColumnPair {
            name: name.to_string(),
            source: source.iter().map(|s| s.to_string()).collect(),
            target: target.iter().map(|s| s.to_string()).collect(),
            golden: Vec::new(),
        }
    }

    #[test]
    fn shortlist_repository_prunes_disjoint_pairs_only() {
        let repository = vec![
            pair("joinable", &["davood rafiei"], &["drafiei"]),
            pair("disjoint", &["aaaaaaaa"], &["bbbbbbbb"]),
            pair("identical", &["mario nascimento"], &["mario nascimento"]),
        ];
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let config = DiscoveryConfig::paper_default();
        let shortlist = shortlist_repository(&repository, &corpus, &config);
        assert_eq!(shortlist.considered, 3);
        assert_eq!(shortlist.pruned.len(), 1);
        assert_eq!(shortlist.pruned[0].name, "disjoint");
        assert!(shortlist.pruned_by_budget.is_empty());
        let names: Vec<&str> = shortlist.ranked.iter().map(|s| s.name.as_str()).collect();
        // The identical pair shares more anchors and runs first.
        assert_eq!(names, vec!["identical", "joinable"]);
        assert!(shortlist.ranked[0].shared_anchors > shortlist.ranked[1].shared_anchors);
        // Thread-invariance of the signing pass.
        for threads in [2, 4] {
            let threaded = shortlist_repository(
                &repository,
                &GramCorpus::new(NormalizeOptions::default()),
                &config.clone().with_threads(threads),
            );
            assert_eq!(threaded, shortlist);
        }
    }

    #[test]
    fn equal_evidence_runs_in_index_order() {
        let cells = ["abcdefgh-1", "abcdefgh-2", "abcdefgh-3"];
        let repository: Vec<ColumnPair> = cells.iter().map(|c| pair(c, &[c], &[c])).collect();
        let shortlist = shortlist_repository(
            &repository,
            &GramCorpus::new(NormalizeOptions::default()),
            &DiscoveryConfig::paper_default(),
        );
        let indices: Vec<usize> = shortlist.ranked.iter().map(|entry| entry.index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn empty_repository_is_degenerate_not_fatal() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let shortlist = shortlist_repository(&[], &corpus, &DiscoveryConfig::paper_default());
        assert_eq!(shortlist.considered, 0);
        assert!(shortlist.ranked.is_empty() && shortlist.pruned.is_empty());
        // Empty columns share nothing and are pruned, not fatal.
        let repository = vec![pair("empty", &[], &["abcdef"])];
        let shortlist = shortlist_repository(&repository, &corpus, &DiscoveryConfig::default());
        assert_eq!(shortlist.pruned.len(), 1);
    }

    #[test]
    fn shortlist_repository_warm_pass_hits_the_signature_cache() {
        let repository = vec![
            pair("a", &["davood rafiei"], &["drafiei"]),
            pair("b", &["davood rafiei"], &["mnascimento"]),
        ];
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let config = DiscoveryConfig::paper_default();
        let cold = shortlist_repository(&repository, &corpus, &config);
        let built = corpus.stats();
        // 3 distinct columns (the source is shared): 3 signature builds.
        assert_eq!(built.signatures_built, 3);
        let warm = shortlist_repository(&repository, &corpus, &config);
        assert_eq!(warm, cold);
        let hits = corpus.stats();
        assert_eq!(hits.signatures_built, 3, "warm pass builds nothing");
        assert!(hits.signature_hits >= 4, "warm pass is served from cache");
    }

    /// An injected signature-build failure must *retain* every affected
    /// pair (discovery prunes only what it can prove) and report the
    /// failure through the corpus counters.
    #[test]
    #[cfg(feature = "fault-injection")]
    fn injected_signature_failures_retain_conservatively() {
        use tjoin_text::fault::with_pair_scope;
        use tjoin_text::{FaultKind, FaultPlan, FaultSite};
        let repository = vec![
            pair("joinable", &["davood rafiei"], &["drafiei"]),
            pair("disjoint", &["aaaaaaaa"], &["bbbbbbbb"]),
        ];
        let corpus = GramCorpus::new(NormalizeOptions::default());
        // Unlimited fire budget: every signature build inside the scope
        // fails, exhausting the retry policy into a sticky failure.
        let plan =
            FaultPlan::new().inject(0, FaultSite::CorpusSignatureBuild, FaultKind::Panic);
        let config = DiscoveryConfig::paper_default(); // threads = 1: in-scope builds
        let faulted =
            with_pair_scope(&plan, 0, || shortlist_repository(&repository, &corpus, &config));
        assert_eq!(faulted.ranked.len(), 2, "failed signatures retain every pair");
        assert!(faulted.ranked.iter().all(|entry| entry.signature_failed));
        assert!(faulted.pruned.is_empty());
        assert!(corpus.stats().signatures_failed > 0);
        // The failures are sticky, so a fault-free rerun on the same corpus
        // still retains; a fresh corpus prunes the disjoint pair again.
        let sticky = shortlist_repository(&repository, &corpus, &config);
        assert_eq!(sticky.ranked.len(), 2);
        let fresh = shortlist_repository(
            &repository,
            &GramCorpus::new(NormalizeOptions::default()),
            &config,
        );
        assert_eq!(fresh.pruned.len(), 1);
    }

    #[test]
    fn retain_all_keeps_input_order() {
        let repository = vec![
            pair("x", &["a"], &["b"]),
            pair("y", &["c"], &["d"]),
        ];
        let all = RepositoryShortlist::retain_all(&repository);
        assert_eq!(all.ranked.len(), 2);
        assert_eq!(all.ranked[0].name, "x");
        assert_eq!(all.ranked[1].name, "y");
        assert!(all.pruned.is_empty());
    }
}
