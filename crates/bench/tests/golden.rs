//! Golden paper outputs: the quick-scale Table 1 to Table 4 reports, at the
//! seed their binaries use, must render exactly as the files checked in under
//! `tests/golden/`. No golden report has a timing column: Auto-Join stops on
//! a unit count, not a clock, so its Table 2 and Table 3 cells and `*`
//! markers repeat from run to run. Table 2's runtime report, which the
//! `table2` binary prints second, is not golden.
//!
//! Tables 2–4 share one computation: the first of their tests to run builds
//! the [`TableRuns`] (both matching strategies, with Auto-Join), and all
//! three render from it, as their binaries render from their own.
//!
//! A change that moves one of these numbers on purpose regenerates the file
//! from the binary (`cargo run --release -q -p tjoin-bench --bin table4 >
//! crates/bench/tests/golden/table4.txt`; for Table 2, only the first
//! report) and says why in CHANGES.md.
//!
//! Slow in a debug build: run with `cargo test -p tjoin-bench --release --
//! --ignored`.

use std::sync::OnceLock;
use tjoin_bench::experiments::runs::TableRuns;
use tjoin_bench::experiments::{table1, table2, table3, table4};
use tjoin_bench::Scale;
use tjoin_join::RowMatchingStrategy;

/// The seed the `table1`..`table4` binaries pass.
const SEED: u64 = 42;

/// The quick-scale runs Tables 2–4 read, computed once.
fn runs() -> &'static TableRuns {
    static RUNS: OnceLock<TableRuns> = OnceLock::new();
    RUNS.get_or_init(|| {
        let strategies = [RowMatchingStrategy::default(), RowMatchingStrategy::Golden];
        TableRuns::compute(Scale::Quick, SEED, &strategies, true)
    })
}

fn assert_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    // The binary prints the report plus one newline; either form matches.
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "{name} differs from {path}"
    );
}

#[test]
#[ignore = "runs the quick-scale Table 1 experiment; run with --release -- --ignored"]
fn table1_matches_golden() {
    assert_golden("table1", &table1::run(Scale::Quick, SEED).render());
}

#[test]
#[ignore = "runs the quick-scale Table 2 experiment; run with --release -- --ignored"]
fn table2_matches_golden() {
    let (coverage, _timing) = table2::run(runs());
    assert_golden("table2", &coverage.render());
}

#[test]
#[ignore = "runs the quick-scale Table 3 experiment; run with --release -- --ignored"]
fn table3_matches_golden() {
    assert_golden("table3", &table3::run(runs()).render());
}

#[test]
#[ignore = "runs the quick-scale Table 4 experiment; run with --release -- --ignored"]
fn table4_matches_golden() {
    assert_golden("table4", &table4::run(runs()).render());
}
