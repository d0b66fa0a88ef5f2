//! # tjoin-datasets
//!
//! Dataset substrate for the reproduction of *"Efficiently Transforming
//! Tables for Joinability"*:
//!
//! * [`table`] — table and column-pair types shared across the workspace.
//! * [`synthetic`] — the paper's synthetic benchmark generator (Section 6.1:
//!   Synth-N and Synth-NL table pairs produced by applying randomly drawn
//!   transformations to random alphanumeric source rows).
//! * [`realistic`] — *simulated* stand-ins for the paper's three real-world
//!   benchmarks (Web tables, Spreadsheet/FlashFill, Open data). The original
//!   data is not redistributable; these generators produce table pairs with
//!   the same joinability structure (multi-rule covers, noise, skewed n-gram
//!   distributions) so that every experiment exercises the same code paths.
//!   The substitutions are documented in `DESIGN.md`.
//! * [`repository`] — the repository-scale workload generator: N
//!   heterogeneous column pairs (names / phones / dates / web formats, with
//!   controllable noise and non-joinable decoys) for the batch join runner.
//! * [`workload`] — request-stream sequences over repositories (hot-skewed
//!   repeat requests) for the resident-corpus serving layer (`tjoin-serve`).
//! * [`corpus`] — small embedded word lists (names, departments, streets)
//!   used by the realistic generators.
//! * [`io`] — minimal CSV reading for the table types (loading one's own
//!   tables; see `examples/csv_join.rs`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod io;
pub mod realistic;
pub mod repository;
pub mod synthetic;
pub mod table;
pub mod workload;

pub use io::DatasetError;
pub use repository::{is_decoy, joinable_rows, RepositoryConfig};
pub use workload::{
    AppendStep, AppendWorkload, AppendWorkloadConfig, RequestWorkload, RequestWorkloadConfig,
};
pub use synthetic::{SyntheticConfig, SyntheticDataset};
pub use table::{row_id, ColumnPair, Table, TablePair};

/// The benchmark families evaluated in the paper (Table 1, 2, 3, 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkKind {
    /// 31 web table pairs (simulated).
    WebTables,
    /// 108 spreadsheet / FlashFill-style pairs (simulated).
    Spreadsheet,
    /// Open-government address data joined with white-pages style listings
    /// (simulated).
    OpenData,
    /// Synth-N: `rows` rows with source lengths in 20..=35.
    Synth {
        /// Number of rows per table.
        rows: usize,
    },
    /// Synth-NL: `rows` rows with source lengths in 40..=70.
    SynthLong {
        /// Number of rows per table.
        rows: usize,
    },
}

impl BenchmarkKind {
    /// The label the paper uses for this dataset in its tables.
    pub fn label(&self) -> String {
        match self {
            BenchmarkKind::WebTables => "Web tables".to_owned(),
            BenchmarkKind::Spreadsheet => "Spreadsheet".to_owned(),
            BenchmarkKind::OpenData => "Open data".to_owned(),
            BenchmarkKind::Synth { rows } => format!("Synth-{rows}"),
            BenchmarkKind::SynthLong { rows } => format!("Synth-{rows}L"),
        }
    }

    /// Generates the table pairs for this benchmark with a deterministic seed.
    pub fn generate(&self, seed: u64) -> Vec<TablePair> {
        match self {
            BenchmarkKind::WebTables => realistic::web_tables(seed),
            BenchmarkKind::Spreadsheet => realistic::spreadsheet(seed),
            BenchmarkKind::OpenData => vec![realistic::open_data(seed, 3000)],
            BenchmarkKind::Synth { rows } => {
                vec![SyntheticConfig::synth(*rows).generate(seed).pair]
            }
            BenchmarkKind::SynthLong { rows } => {
                vec![SyntheticConfig::synth_long(*rows).generate(seed).pair]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(BenchmarkKind::WebTables.label(), "Web tables");
        assert_eq!(BenchmarkKind::Synth { rows: 50 }.label(), "Synth-50");
        assert_eq!(BenchmarkKind::SynthLong { rows: 500 }.label(), "Synth-500L");
    }

    #[test]
    fn generate_small_benchmarks() {
        let pairs = BenchmarkKind::Synth { rows: 10 }.generate(1);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].column_pair().source.len(), 10);
    }
}
