//! # tjoin-bench
//!
//! The experiment harness: one binary per table and figure of the paper's
//! evaluation (Section 6). Repository performance is timed by the
//! `perfbench/` package, not here.
//!
//! | binary | regenerates | paper reference |
//! |---|---|---|
//! | `table1` | row-matching precision / recall / F1 | Table 1 |
//! | `table2` | coverage + runtime, ours vs Auto-Join, n-gram and golden matching | Table 2 |
//! | `table3` | end-to-end join quality vs Auto-FuzzyJoin and Auto-Join | Table 3 |
//! | `table4` | pruning statistics (generated, to-try, duplicates, cache hits) | Table 4 |
//! | `fig3` | pruning ratios as the input length grows | Figure 3 |
//! | `fig4a` | per-module runtime as the number of rows grows | Figure 4a |
//! | `fig4b` | per-module runtime as the input length grows | Figure 4b |
//! | `sampling` | discovery probability under sampling, ours vs Auto-Join | Section 5.3 |
//!
//! Every binary accepts `--full` (or `TJOIN_BENCH_SCALE=full`) to run at the
//! paper's dataset sizes; the default "quick" scale exercises the identical
//! code paths on smaller slices so the whole suite finishes in minutes on a
//! laptop. Binaries print TSV-like rows with the paper's reported values
//! alongside ours where applicable; `EXPERIMENTS.md` records a run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod report;
pub mod scale;
pub mod suite;

pub use report::Report;
pub use scale::Scale;
pub use suite::DatasetInstance;

