//! Regenerates Table2 of the paper: the coverage report, then the runtime
//! report. Pass `--full` for the paper's sizes.

use tjoin_bench::experiments::{runs::TableRuns, table2};
use tjoin_join::RowMatchingStrategy;

fn main() {
    let scale = tjoin_bench::Scale::from_env_and_args();
    let strategies = [RowMatchingStrategy::default(), RowMatchingStrategy::Golden];
    let (coverage, timing) = table2::run(&TableRuns::compute(scale, 42, &strategies, true));
    coverage.print();
    timing.print();
}
