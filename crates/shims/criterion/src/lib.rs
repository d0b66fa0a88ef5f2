//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this shim implements the
//! subset of criterion 0.5 the workspace's benches use: [`Criterion`],
//! benchmark groups, [`Bencher::iter`], [`BenchmarkId`], [`black_box`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is warmed up, the per-iteration cost is
//! estimated, and then `sample_size` samples are taken, each timing a batch
//! of iterations sized so one sample lasts roughly `TARGET_SAMPLE_TIME`.
//! The reported figures are the min / median / mean of the per-iteration
//! sample times. There is no statistical outlier analysis, HTML report, or
//! baseline comparison — swap the path dependency for real criterion when
//! registry access is available.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock duration of one sample batch.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(20);

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the default number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, self.sample_size, f);
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: impl Into<BenchmarkId>, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (a no-op here; kept for API compatibility).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// An id made of a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { label: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

/// Summary statistics of one benchmark run, in per-iteration seconds.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Mean over all samples.
    pub mean: f64,
    /// Total iterations executed across samples.
    pub iterations: u64,
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the routine.
pub struct Bencher {
    sample_size: usize,
    measurement: Option<Measurement>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration statistics.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and per-iteration cost estimate.
        let warmup_start = Instant::now();
        black_box(routine());
        let mut estimate = warmup_start.elapsed();
        if estimate.is_zero() {
            estimate = Duration::from_nanos(1);
        }
        let iters_per_sample = (TARGET_SAMPLE_TIME.as_nanos() / estimate.as_nanos())
            .clamp(1, 1_000_000) as u64;

        let mut samples = Vec::with_capacity(self.sample_size);
        let mut total_iters = 0u64;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed().as_secs_f64() / iters_per_sample as f64;
            samples.push(elapsed);
            total_iters += iters_per_sample;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        self.measurement = Some(Measurement {
            min,
            median,
            mean,
            iterations: total_iters,
        });
    }
}

/// Formats a per-iteration time in human units.
fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.4} s")
    } else if seconds >= 1e-3 {
        format!("{:.4} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.4} µs", seconds * 1e6)
    } else {
        format!("{:.4} ns", seconds * 1e9)
    }
}

/// Runs one benchmark and prints a criterion-like summary line. Public so
/// custom harness code can reuse the measurement loop; returns the
/// measurement when the closure called [`Bencher::iter`].
pub fn run_benchmark<F>(name: &str, sample_size: usize, mut f: F) -> Option<Measurement>
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        sample_size,
        measurement: None,
    };
    f(&mut bencher);
    match bencher.measurement {
        Some(m) => {
            println!(
                "{name:<50} time: [{} {} {}]",
                format_time(m.min),
                format_time(m.median),
                format_time(m.mean)
            );
            Some(m)
        }
        None => {
            println!("{name:<50} (no measurement: Bencher::iter never called)");
            None
        }
    }
}

/// Declares a benchmark group (both the plain and configured forms).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_cheap_routine() {
        let m = run_benchmark("noop_add", 5, |b| {
            b.iter(|| black_box(1u64) + black_box(2u64))
        })
        .expect("measurement");
        assert!(m.min > 0.0 && m.min <= m.median && m.median <= m.mean * 2.0);
        assert!(m.iterations >= 5);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("f", |b| b.iter(|| black_box(42)));
        group.bench_with_input(BenchmarkId::from_parameter(7), &7, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
        assert_eq!(BenchmarkId::from_parameter(10).to_string(), "10");
    }
}
