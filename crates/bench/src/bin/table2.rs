//! Regenerates Table2 of the paper: the coverage report, then the runtime
//! report. Pass `--full` for the paper's sizes.

fn main() {
    let scale = tjoin_bench::Scale::from_env_and_args();
    let (coverage, timing) = tjoin_bench::experiments::table2::run(scale, 42);
    coverage.print();
    timing.print();
}
