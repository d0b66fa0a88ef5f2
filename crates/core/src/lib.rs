//! # tjoin-core
//!
//! The transformation synthesis engine of *"Efficiently Transforming Tables
//! for Joinability"* (Nobari & Rafiei, ICDE 2022) — the paper's primary
//! contribution.
//!
//! Given a set of candidate source/target row pairs, the engine discovers a
//! concise set of [`tjoin_units::Transformation`]s under which the pairs
//! become equi-joinable:
//!
//! 1. **Placeholder detection** ([`placeholder`]): maximal common blocks of
//!    the target with respect to the source (Definition 4 + Section 4.1.3),
//!    optionally re-split at natural-language separators (Lemma 4, case 1).
//! 2. **Skeleton enumeration** ([`skeleton`]): each row yields up to `2^p`
//!    skeletons of placeholders and literals that concatenate to the target.
//! 3. **Unit extraction** ([`unitgen`]): each placeholder is replaced by the
//!    candidate units that can emit its text from the source (Section 4.1.4).
//! 4. **Generation + duplicate removal** ([`generate`]): the Cartesian
//!    product of candidate units per skeleton, deduplicated in a hash set
//!    (Section 4.1.5).
//! 5. **Coverage with eager filtering** ([`coverage`]): every surviving
//!    transformation is applied to every pair, skipping rows whose
//!    non-covering-unit cache already rules the transformation out.
//! 6. **Solution assembly** ([`cover`]): the greedy minimal covering set
//!    (Section 4.1.6); its first pick is the "Top Cov." transformation.
//!
//! The [`engine::SynthesisEngine`] ties the phases together, records
//! per-phase timings and pruning statistics ([`stats`]) used by the paper's
//! Table 4 and Figures 3–4, and supports sampling (Section 5.3) and support
//! thresholds for noisy inputs.
//!
//! ## The interned coverage core
//!
//! The dominant cost of synthesis is the coverage phase — Section 4.1.5's
//! pruning strategies exist precisely because applying every candidate to
//! every row is quadratic in practice. This crate implements those
//! strategies over an *interned* representation rather than owned values:
//!
//! * **Unit pool** ([`tjoin_units::UnitPool`]): generation interns every
//!   distinct unit once and emits candidates as
//!   [`tjoin_units::IdTransformation`]s — dense `u32` id vectors. The
//!   paper's duplicate removal (strategy 1) then hashes id vectors instead
//!   of unit vectors with embedded strings.
//! * **64-row tiles** ([`coverage`]): candidates are Cartesian products
//!   over a small unit pool, so the same unit appears in hundreds of
//!   transformations. The engine scans the rows in tiles of up to 64 and
//!   reads the candidate list once per tile. Per [`tjoin_units::UnitId`] it
//!   keeps a `u64` row mask of the rows where the unit was evaluated and
//!   one of the rows where it is non-covering, so `Unit::output_on` runs at
//!   most once per `(row, unit)` pair. A covering output is kept as its
//!   offset and length in the row's target.
//! * **Bitset non-covering cache**: the paper's per-row cache of units known
//!   not to help a row (strategy 2, the 50–99 % hit ratios of Table 4) is
//!   that non-covering mask: a candidate's cache-hit rows are the OR of its
//!   units' masks — no hashing, no unit clones.
//! * **Sparse coverage collection** ([`coverage`]): covered rows are
//!   accumulated as sorted per-candidate row lists instead of a dense
//!   [`bitmap::RowBitmap`] per candidate (which would cost
//!   `candidates × rows/8` bytes up front — ~1.25 GB at 10^6 candidates ×
//!   10^4 rows — even though most candidates cover nothing). The
//!   candidates surviving the non-empty/support filter are grouped by
//!   covered set, and only each group's tie-break leader is densified, via
//!   [`bitmap::RowBitmap::from_sorted_rows`], into the fixed-size bitmaps
//!   the selection phase's set algebra wants.
//!
//! ## Parallel coverage
//!
//! Parallel coverage splits the rows into `min(threads, rows)` contiguous
//! chunks, and each worker tiles its own chunk with its own masks; shapes
//! with fewer than 256 candidates and fewer than 256 rows stay in one
//! chunk. Row chunks suit the few-patterns × many-rows pools of
//! GXJoin-style generalization as well as the many-candidates × few-rows
//! pools of generation. Because the masks are per row and the chunks share
//! no rows, covered rows, trials, cache hits and unit evaluations are
//! identical at every thread count; see the [`coverage`] module docs.
//!
//! ## Lazy-greedy selection
//!
//! Selection ([`cover`]) runs the paper's greedy set cover as a CELF-style
//! **lazy-greedy priority queue**: every candidate's last known marginal
//! gain sits in a max-heap, and each round re-evaluates only the entries
//! that surface at the top until the top entry's gain is confirmed fresh.
//! Stale heap entries are safe — marginal gain is submodular (the covered
//! set only grows, so true gains only shrink), which makes every cached
//! gain an *upper bound*; a confirmed-fresh top therefore dominates every
//! other candidate's true gain and is the exact argmax, not an
//! approximation. The tie-break chain (fewer units, then lexicographic,
//! then input order) is fixed once by sorting the candidates before the
//! heap is built, so the heap key is just (gain, position). The engine
//! hands greedy one candidate per distinct covered set (about 1 in 70 of
//! the survivors on generated repositories): candidates with equal covered
//! sets tie on gain in every round, so only their tie-break leader can be
//! picked. The full-rescan loop is retained in [`cover::reference`] as the
//! selection oracle.
//!
//! All observable results — covered rows, trial counts, cache-hit
//! accounting, selected covering sets and their order — are bit-identical
//! to the naive loops retained in [`coverage::reference`] and
//! [`cover::reference`] as differential-testing oracles (see
//! `tests/proptest_selection.rs`).
//!
//! ```
//! use tjoin_core::{SynthesisConfig, SynthesisEngine};
//!
//! let pairs = vec![
//!     ("Rafiei, Davood".to_owned(), "D Rafiei".to_owned()),
//!     ("Bowling, Michael".to_owned(), "M Bowling".to_owned()),
//!     ("Gosgnach, Simon".to_owned(), "S Gosgnach".to_owned()),
//! ];
//! let engine = SynthesisEngine::new(SynthesisConfig::default());
//! let result = engine.discover_from_strings(&pairs);
//! assert!(result.cover.set_coverage() >= 0.99);
//! let best = result.cover.best().expect("a transformation was found");
//! assert_eq!(best.coverage(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitmap;
pub mod config;
pub mod cover;
pub mod coverage;
pub mod engine;
pub mod generate;
pub mod pair;
pub mod placeholder;
pub mod sampling;
pub mod skeleton;
pub mod stats;
pub mod unitgen;

pub use bitmap::RowBitmap;
pub use config::SynthesisConfig;
pub use engine::{SynthesisEngine, SynthesisResult};
pub use pair::PairSet;
pub use sampling::{discovery_probability, SamplingAnalysis};
pub use stats::{PhaseTimings, SynthesisStats};
