//! Turning a run's measurements into the named metrics the benchmark
//! prints, the same names on every workload.

use std::collections::BTreeMap;
use std::time::Instant;

use tjoin_join::JoinMetrics;

use crate::json;
use crate::stats::{self, OpTally};
use crate::trace::Tracer;
use crate::{threads, Args};

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    /// Op accounting.
    pub tally: OpTally,
    /// Every failed check, with what it compared.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// The traced run's span and count dump.
    pub trace_json: Option<String>,
}

impl Report {
    /// True when every op was attempted and passed.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed() == 0 && self.failures.is_empty()
    }

    /// The result line: the last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed(),
            json::metrics(&self.metrics)
        )
    }
}

/// Collects op checks: each op passes only if all of its checks held.
#[derive(Debug, Default)]
pub struct Checks {
    /// Op accounting.
    pub tally: OpTally,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one op whose checks produced `failed` (empty: passed).
    pub fn op(&mut self, failed: Vec<String>) {
        self.tally.record(failed.is_empty());
        self.failures.extend(failed);
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Times set-up `times` times, each time from scratch, and returns the
/// last result with every timing. One timing is a single interval over
/// `rounds` complete set-ups run back to back, divided by `rounds`: a
/// set-up of a few milliseconds is timed over a tenth of a second or more.
pub fn repeat_setup<T>(times: usize, rounds: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    assert!(times >= 1 && rounds >= 1);
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let ((), s) = timed(|| {
            for _ in 0..rounds {
                // Drop the previous set-up's state first, so every set-up
                // starts from the same heap as the first one.
                drop(last.take());
                last = Some(setup());
            }
        });
        seconds.push(s / rounds as f64);
    }
    (last.expect("at least one set-up"), seconds)
}

/// What the timed ops measured: each op's seconds, and the process's peak
/// resident set during each op.
#[derive(Debug, Default)]
pub struct OpSamples {
    /// Seconds of each timed op.
    pub seconds: Vec<f64>,
    /// Peak resident set during each op, in MiB.
    pub peak_rss_mb: Vec<f64>,
}

impl OpSamples {
    /// Runs `f` as one timed op. The peak-RSS mark is reset before it and
    /// read after it, both outside the timed region.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        reset_peak_rss();
        let (result, s) = timed(f);
        self.peak_rss_mb.push(peak_rss_mb());
        self.seconds.push(s);
        result
    }
}

/// Micro-F1 over the given pairs' join metrics: summed true positives,
/// predictions and golden pairs.
pub fn summed_f1(pairs: impl IntoIterator<Item = JoinMetrics>) -> f64 {
    let (mut tp, mut predicted, mut golden) = (0, 0, 0);
    for m in pairs {
        tp += m.true_positives;
        predicted += m.predicted;
        golden += m.golden;
    }
    stats::micro_f1(tp, predicted, golden)
}

/// The untraced run's measurements.
#[derive(Debug)]
pub struct Untraced {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The timed ops.
    pub ops: OpSamples,
    /// Op checks.
    pub checks: Checks,
    /// Micro-averaged F1 over the distinct pairs the run joined.
    pub micro_f1: f64,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: Untraced) -> Report {
    let op_ms: Vec<f64> = run.ops.seconds.iter().map(|s| s * 1e3).collect();
    let busy: f64 = run.ops.seconds.iter().sum();
    let metrics = vec![
        (
            "op_p50_ms".to_string(),
            stats::median(&op_ms).unwrap_or(0.0),
            "ms",
        ),
        (
            "op_tail_ms".to_string(),
            stats::tail(&op_ms).unwrap_or(0.0),
            "ms",
        ),
        (
            "ops_per_s".to_string(),
            if busy > 0.0 {
                op_ms.len() as f64 / busy
            } else {
                0.0
            },
            "1/s",
        ),
        ("micro_f1".to_string(), run.micro_f1, "ratio"),
        ("ok_ratio".to_string(), run.checks.tally.ok_ratio(), "ratio"),
        (
            "setup_s".to_string(),
            stats::median(&run.setup_s).unwrap_or(0.0),
            "s",
        ),
        (
            "peak_rss_mb".to_string(),
            stats::median(&run.ops.peak_rss_mb).unwrap_or(0.0),
            "MB",
        ),
    ];
    Report {
        tally: run.checks.tally,
        failures: run.checks.failures,
        metrics,
        trace_json: None,
    }
}

/// Span names whose summed self time is reported as `<metric>_s` with a
/// `<metric>_share` of the traced op time.
const TIMED_LAYERS: &[(&str, &str)] = &[
    ("matching", "matching.busy"),
    ("serve.submit", "serve.submit"),
    ("serve.run", "serve.run"),
    ("synthesis.generate", "synthesis.generate"),
    ("synthesis.coverage", "synthesis.coverage"),
    ("synthesis.filter", "synthesis.filter"),
    ("synthesis.top_k", "synthesis.top_k"),
    ("synthesis.greedy", "synthesis.greedy"),
    ("join.equi_join", "join.equi_join"),
    ("discovery.shortlist", "discovery.shortlist"),
];

/// Counters summed over the timed ops.
const COUNTS: &[&str] = &[
    "matching.candidates",
    "text.corpus.stats_hits",
    "text.corpus.index_hits",
    "synthesis.unique",
    "synthesis.trials",
    "synthesis.survivors",
    "synthesis.cover_size",
    "join.predicted_pairs",
    "discovery.signatures_built",
];

/// The incremental join's span and counter. Only `append_stream` drives
/// it, and that workload runs by hand only, so these print on it alone.
const INCREMENTAL_LAYER: (&str, &str) = ("join.incremental.coverage", "join.incremental.coverage");
const INCREMENTAL_COUNT: &str = "join.incremental.resyntheses";

/// Per-layer values a workload measures itself (ratios and gauges that
/// are not sums of span times or counts). Absent ones print as 0: that
/// workload never calls the layer.
const GAUGES: &[(&str, &str)] = &[
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.bytes_resident", "bytes"),
    ("serve.cold_request_ratio", "ratio"),
    ("discovery.pruning_ratio", "ratio"),
    ("discovery.saved_per_cost", "ratio"),
];

/// The traced run's measurements.
#[derive(Debug)]
pub struct Traced {
    /// Spans and counts; ops are numbered from 1.
    pub tracer: Tracer,
    /// Seconds of the same ops run untraced through the public top-level
    /// call, for the tracing overhead.
    pub untraced_op_s: Vec<f64>,
    /// Workload-measured gauges, by name (see `GAUGES`).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Op checks (composed results against the public call's results).
    pub checks: Checks,
    /// Whether the run drives the incremental join: only then are the
    /// `join.incremental.*` metrics printed.
    pub incremental: bool,
}

/// The per-layer metrics of a traced run, plus the span dump.
pub fn per_layer(run: Traced, args: &Args) -> Report {
    let tracer = &run.tracer;
    let op_s = tracer.op_seconds();
    let op_total: f64 = op_s.iter().sum();
    let share = |s: f64| if op_total > 0.0 { s / op_total } else { 0.0 };
    let (self_s, off_op_self_s) = tracer.self_seconds_by_name();

    // The generators run in set-up, outside the ops: no share of op time.
    let generate_s = off_op_self_s
        .get("datasets.generate")
        .copied()
        .unwrap_or(0.0);
    let mut metrics: Vec<Metric> = vec![("datasets.generate_s".into(), generate_s, "s")];
    let mut attributed = 0.0;
    let incremental = run.incremental.then_some(INCREMENTAL_LAYER);
    for (span, metric) in TIMED_LAYERS.iter().chain(&incremental) {
        let s = self_s.get(span).copied().unwrap_or(0.0);
        attributed += s;
        metrics.push((format!("{metric}_s"), s, "s"));
        metrics.push((format!("{metric}_share"), share(s), "ratio"));
    }
    let incremental = run.incremental.then_some(INCREMENTAL_COUNT);
    for name in COUNTS.iter().chain(&incremental) {
        metrics.push((name.to_string(), tracer.op_count(name), "count"));
    }
    let corpus_hits =
        tracer.op_count("text.corpus.stats_hits") + tracer.op_count("text.corpus.index_hits");
    let corpus_lookups = corpus_hits + tracer.op_count("text.corpus.builds");
    metrics.push((
        "text.corpus.hit_ratio".into(),
        ratio(corpus_hits, corpus_lookups),
        "ratio",
    ));
    metrics.push((
        "synthesis.cache_hit_ratio".into(),
        ratio(
            tracer.op_count("synthesis.cache_hits"),
            tracer.op_count("synthesis.potential_trials"),
        ),
        "ratio",
    ));
    for (name, unit) in GAUGES {
        metrics.push((
            name.to_string(),
            run.gauges.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    // Self time of the structural spans (op, pair, synthesis): candidate
    // normalization, support filtering, evaluation, loop overhead.
    metrics.push((
        "trace.other_share".into(),
        share(op_total - attributed),
        "ratio",
    ));
    let traced_p50 = stats::median(&op_s).unwrap_or(0.0);
    let untraced_p50 = stats::median(&run.untraced_op_s).unwrap_or(0.0);
    metrics.push(("trace.op_p50_ms".into(), traced_p50 * 1e3, "ms"));
    metrics.push((
        "trace.overhead_ratio".into(),
        ratio(traced_p50, untraced_p50),
        "ratio",
    ));

    let header = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("threads", threads().to_string()),
    ];
    let trace_json = tracer.to_json(&header, &metrics);
    Report {
        tally: run.checks.tally,
        failures: run.checks.failures,
        metrics,
        trace_json: Some(trace_json),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Resets the process's peak resident set to its current resident set, so
/// that [`peak_rss_mb`] reads the peak since the reset. It writes `5` to
/// the process's own `/proc/self/clear_refs` (Linux 4.0 and later), which
/// changes only this process's accounting.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("resetting the peak resident set through /proc/self/clear_refs");
}

/// The process's peak resident set, in MiB, from `getrusage`: the peak
/// since the last [`reset_peak_rss`], or since the process started.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s, the
    /// first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    #[allow(dead_code)] // Only `maxrss` is read; the rest give the layout.
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux (every field is a 64-bit integer),
    // and `getrusage` writes at most that struct through the pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_reports_every_metric() {
        let mut checks = Checks::default();
        checks.op(Vec::new());
        checks.op(vec!["mismatch".into()]);
        let report = end_to_end(Untraced {
            setup_s: vec![0.3, 0.1, 0.2],
            ops: OpSamples {
                seconds: vec![0.001, 0.003, 0.002, 0.004],
                peak_rss_mb: vec![40.0, 10.0, 30.0, 20.0],
            },
            checks,
            micro_f1: 0.9,
        });
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            [
                "op_p50_ms",
                "op_tail_ms",
                "ops_per_s",
                "micro_f1",
                "ok_ratio",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        let value = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!((value("op_p50_ms") - 2.0).abs() < 1e-9);
        // Four ops leave nothing beyond a p90: the tail is the median.
        assert!((value("op_tail_ms") - 2.0).abs() < 1e-9);
        assert!((value("ops_per_s") - 400.0).abs() < 1e-6);
        assert_eq!(value("ok_ratio"), 0.5);
        assert_eq!(value("setup_s"), 0.2);
        assert_eq!(value("peak_rss_mb"), 20.0);
        assert!(!report.correct());
        assert!(report
            .result_line()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
    }

    #[test]
    fn setup_timings_are_per_set_up() {
        let mut calls = 0;
        let (last, seconds) = repeat_setup(3, 4, || {
            calls += 1;
            calls
        });
        assert_eq!((last, calls, seconds.len()), (12, 12, 3));
    }

    #[test]
    fn an_op_with_several_failed_checks_fails_once() {
        let mut checks = Checks::default();
        checks.op(Vec::new());
        checks.op(vec![
            "differs from op 0".into(),
            "differs from run_static".into(),
        ]);
        assert_eq!((checks.tally.failed(), checks.failures.len()), (1, 2));
        assert_eq!(checks.tally.ok_ratio(), 0.5);
    }
}
