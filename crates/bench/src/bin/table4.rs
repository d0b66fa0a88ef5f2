//! Regenerates Table4 of the paper. Pass `--full` for the paper's sizes.

use tjoin_bench::experiments::{runs::TableRuns, table4};
use tjoin_join::RowMatchingStrategy;

fn main() {
    let scale = tjoin_bench::Scale::from_env_and_args();
    let strategies = [RowMatchingStrategy::default(), RowMatchingStrategy::Golden];
    table4::run(&TableRuns::compute(scale, 42, &strategies, false)).print();
}
