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
