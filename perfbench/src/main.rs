//! End-to-end and per-layer benchmark of the repository pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repo_batch|serve_stream|append_stream|cross_discover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every number is taken from outside the program, by timing calls into
//! the public functions of the library crates. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes its spans and counts
//! to `perfbench/out/trace-<workload>-<seed>.json`. Any failed output check
//! makes the command exit with code 1. See `perfbench/README.md` for the
//! workloads and what each metric should predict.

mod append_stream;
mod cross_discover;
mod json;
mod layers;
mod metrics;
mod repo_batch;
mod serve_stream;
mod stats;
mod trace;

use std::process::ExitCode;

use metrics::Report;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Nominal measured seconds; fixes the op count (see [`Args::ops`]).
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let args = Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        };
        if !(1..=600).contains(&args.seconds) {
            return Err(format!(
                "--seconds must be within 1..=600, not {}",
                args.seconds
            ));
        }
        Ok(args)
    }

    /// The run's op count: `ops_per_second` ops for each nominal second,
    /// at least `min`. A traced run does `min` ops: its per-layer metrics
    /// carry no bound, and each of its ops also runs untraced. The count
    /// depends on the arguments only, never on measured time, so every run
    /// with the same arguments does the same work.
    pub fn ops(&self, ops_per_second: f64, min: usize) -> usize {
        if self.trace {
            min
        } else {
            ((self.seconds as f64 * ops_per_second).round() as usize).max(min)
        }
    }
}

/// The thread budget of every runner: the machine's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f` over `0..n`, in order, computed on [`threads`] scoped threads that
/// each take a contiguous block of indices. Set-up generates its inputs
/// with it: the reference box's two vCPUs differ in speed by up to half,
/// so a single thread's set-up time depends on which one it lands on,
/// while set-up spread over every thread, like the ops, does not.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads().clamp(1, n.max(1));
    std::thread::scope(|scope| {
        let f = &f;
        let blocks: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w * n / workers..(w + 1) * n / workers)
                        .map(f)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        blocks
            .into_iter()
            .flat_map(|block| block.join().expect("a set-up thread panicked"))
            .collect()
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "repo_batch" => repo_batch::run(&args),
        "serve_stream" => serve_stream::run(&args),
        "append_stream" => append_stream::run(&args),
        "cross_discover" => cross_discover::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(trace) = &report.trace_json {
        if let Err(e) = write_trace(&args, trace) {
            eprintln!("perfbench: writing the trace failed: {e}");
            return ExitCode::from(1);
        }
    }
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_trace(args: &Args, trace: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, trace)?;
    eprintln!("perfbench: trace written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse("--workload repo_batch --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("repo_batch", 7, 20, true)
        );
        assert!(parse("--workload x --seed 1 --seconds 20").is_err());
        assert!(parse("--workload x --seed 1 --seconds 20 --trace 2").is_err());
        assert!(parse("--workload x --seed -1 --seconds 20 --trace 0").is_err());
    }

    #[test]
    fn par_map_keeps_index_order() {
        for n in [0, 1, 2, 7] {
            assert_eq!(
                par_map(n, |i| i * 10),
                (0..n).map(|i| i * 10).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn op_count_depends_on_arguments_only() {
        let args = parse("--workload x --seed 1 --seconds 20 --trace 0").unwrap();
        assert_eq!(args.ops(0.25, 3), 5);
        assert_eq!(args.ops(0.05, 3), 3);
        let traced = parse("--workload x --seed 1 --seconds 20 --trace 1").unwrap();
        assert_eq!(traced.ops(0.25, 3), 3);
    }
}
