//! # tjoin-baselines
//!
//! The baselines the paper compares against, implemented from scratch:
//!
//! * [`autojoin`] — Auto-Join (Zhu et al., VLDB 2017; Section 3.2 of the
//!   paper): sample small subsets of the input, and for each subset run a
//!   recursive best-first search that picks the unit covering the largest
//!   part of the target, recurses on the remaining left and right context,
//!   and backtracks on failure. The transformations found across subsets form
//!   the final set.
//! * [`autofuzzyjoin`] — Auto-FuzzyJoin (Li et al., SIGMOD 2021): a
//!   similarity-based joiner that produces row pairs directly (no
//!   transformations), with an automatically chosen similarity threshold.
//!   Used in the end-to-end join comparison (Table 3).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autofuzzyjoin;
pub mod autojoin;

pub use autofuzzyjoin::{AutoFuzzyJoin, AutoFuzzyJoinConfig};
pub use autojoin::{AutoJoin, AutoJoinConfig, AutoJoinResult};
