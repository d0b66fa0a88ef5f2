//! Regenerates Table3 of the paper. Pass `--full` for the paper's sizes.

use tjoin_bench::experiments::{runs::TableRuns, table3};
use tjoin_join::RowMatchingStrategy;

fn main() {
    let scale = tjoin_bench::Scale::from_env_and_args();
    let runs = TableRuns::compute(scale, 42, &[RowMatchingStrategy::default()], true);
    table3::run(&runs).print();
}
