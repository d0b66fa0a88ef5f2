//! # tjoin-matching
//!
//! Row matching: detecting candidate joinable row pairs between a source and
//! a target column (Section 4.2.1 of the paper), built for repository-scale
//! workloads where *many* column pairs are matched under one thread budget.
//!
//! Transformation synthesis assumes a set of (source, target) pairs that
//! describe the same entity under different formatting. When such pairs are
//! not tagged in advance, the paper finds them with a representative-n-gram
//! matcher: for every source row and every n-gram size in `[n0, nmax]`, the
//! n-gram with the highest Rscore (rarest in both columns, equations 1–2) is
//! selected, and every target row containing a representative n-gram becomes
//! a candidate pair (Algorithm 1).
//!
//! # Matching plan
//!
//! [`ngram::NGramMatcher::try_find_candidates`] runs Algorithm 1 as a
//! two-phase scan. It is the matcher's one production path. Callers read
//! the values of its row ids with `ColumnPair::row_values`.
//! [`ngram::NGramMatcher::try_candidate_value_pairs`] and
//! [`golden::golden_value_pairs`] are one-line wrappers over that call,
//! kept only because the benchmark harness (`perfbench`) names them; they
//! go when it stops doing so (ROADMAP items 1 and 5).
//!
//! 1. the read-only state — both columns normalized into
//!    [`tjoin_text::ColumnArena`]s, the two [`tjoin_text::ColumnStats`] IRF
//!    sides, and the target [`tjoin_text::NGramIndex`] — is always read
//!    through a [`tjoin_text::GramCorpus`], which builds each artifact
//!    once: at repository scale the caller passes a shared corpus, so a
//!    column referenced by several pairs is normalized and indexed once for
//!    the whole repository; without one the matcher uses a call-local
//!    corpus;
//! 2. source rows are scanned in order, with per-size representative
//!    selection fused into one pass per row (char boundaries computed once;
//!    no per-size re-extraction).
//!
//! The scan is serial. Repository workloads parallelize across column
//! pairs instead (the batch runner's worker loop), where each task is a
//! whole pipeline run rather than one row.
//!
//! Because candidate dedup keys include the source row, per-row scans are
//! independent and a deterministic size-major assembly reproduces the
//! oracle's discovery order exactly: output is **bit-identical** to the
//! retained oracle [`reference::find_candidates_reference`], which the
//! differential suite in `crates/join/tests/proptest_join.rs` enforces.
//!
//! * [`ngram`] — the n-gram matcher and its configuration.
//! * [`reference`](mod@reference) — the retained serial size-major oracle loop, the only
//!   matcher code that still works on owned `Vec<String>` columns.
//! * [`golden`] — the oracle matcher backed by a ground-truth mapping (the
//!   paper's "golden row matching" rows in Tables 2 and 4).
//!
//! Candidates are `(source_row, target_row)` pairs, the format of golden
//! mappings and join predictions, so Table 1 scores them with the join's
//! evaluator (`tjoin_join::evaluate_join`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::cast_possible_truncation)]

pub mod golden;
pub mod ngram;
pub mod reference;

pub use golden::{golden_pairs, golden_value_pairs};
pub use ngram::{MatchAbort, NGramMatcher, NGramMatcherConfig};
pub use reference::find_candidates_reference;
