//! The benchmark's own arithmetic: nearest-rank percentiles under the
//! "at least ten samples beyond" rule, and the accounting of ops whose
//! output check failed.

/// Samples a reported percentile must leave beyond it. A percentile with
/// fewer samples above it is one or two unlucky ops, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 1]`): the value at
/// rank `ceil(p * n)` of the sorted samples. `None` for no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` over `n` samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p`, but only when at least `MIN_BEYOND`
/// samples lie strictly above its rank; `None` otherwise.
pub fn resolved_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank_of(n, p) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, p)
}

/// The nearest-rank median (`None` for no samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// The run's tail latency: p90 where the run has enough ops to resolve it
/// (at least `MIN_BEYOND` samples beyond), else the median. Which one a
/// workload reports is fixed by its op count, so it never flips between
/// runs of the same workload.
pub fn tail(samples: &[f64]) -> Option<f64> {
    resolved_percentile(samples, 0.9).or_else(|| median(samples))
}

/// Ops attempted and ops whose every output check passed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpTally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that passed every check.
    pub ok: u64,
}

impl OpTally {
    /// Records one op: `passed` is whether all its checks held.
    pub fn record(&mut self, passed: bool) {
        self.attempted += 1;
        if passed {
            self.ok += 1;
        }
    }

    /// Ops that failed a check.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Passing ops over attempted ops (0 when nothing was attempted).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.ok as f64 / self.attempted as f64
        }
    }
}

/// F1 of true positives, predictions and golden pairs summed over many
/// pairs (the micro average). 1.0 when both sides are empty.
pub fn micro_f1(true_positives: usize, predicted: usize, golden: usize) -> f64 {
    if predicted + golden == 0 {
        1.0
    } else {
        2.0 * true_positives as f64 / (predicted + golden) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        (0..n).map(|i| ((i * 7) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[3.0], 0.01), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&s, 0.0), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 99 samples: rank 90, only 9 beyond.
        assert_eq!(resolved_percentile(&ramp(99), 0.9), None);
        // 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(resolved_percentile(&ramp(100), 0.9), Some(90.0));
        // The median of 19 leaves 9 beyond; of 20, 10.
        assert_eq!(resolved_percentile(&ramp(19), 0.5), None);
        assert_eq!(resolved_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(resolved_percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_median() {
        assert_eq!(tail(&ramp(100)), Some(90.0));
        assert_eq!(tail(&ramp(5)), Some(3.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn ok_ratio_counts_every_failed_check() {
        let mut tally = OpTally::default();
        for passed in [true, false, true, true] {
            tally.record(passed);
        }
        assert_eq!((tally.attempted, tally.ok, tally.failed()), (4, 3, 1));
        assert_eq!(tally.ok_ratio(), 0.75);
        assert_eq!(OpTally::default().ok_ratio(), 0.0);
    }

    #[test]
    fn micro_f1_of_counts() {
        assert_eq!(micro_f1(5, 10, 10), 0.5);
        assert_eq!(micro_f1(0, 0, 0), 1.0);
        assert_eq!(micro_f1(0, 3, 0), 0.0);
    }
}
