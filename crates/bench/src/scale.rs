//! Experiment scale: quick (default) vs the paper's full sizes.

/// How large the experiment inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down inputs that exercise the same code paths but finish in
    /// minutes on a single core.
    Quick,
    /// The paper's dataset sizes (31 web pairs, 108 spreadsheet pairs, a
    /// 3000-pair open-data sample, Synth-500/L); expect long runtimes,
    /// especially for the Auto-Join baseline.
    Full,
}

impl Scale {
    /// Reads the scale from the command line (`--full`) or the
    /// `TJOIN_BENCH_SCALE` environment variable (`full` / `quick`).
    pub fn from_env_and_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            return Scale::Full;
        }
        match std::env::var("TJOIN_BENCH_SCALE").ok().as_deref() {
            Some("full") | Some("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Number of web-table pairs to evaluate.
    pub fn web_pairs(self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 31,
        }
    }

    /// Number of spreadsheet pairs to evaluate.
    pub fn spreadsheet_pairs(self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Full => 108,
        }
    }

    /// Open-data rows generated / pairs sampled for synthesis.
    pub fn open_data_rows(self) -> (usize, usize) {
        match self {
            Scale::Quick => (600, 300),
            Scale::Full => (3808, 3000),
        }
    }

    /// Synthetic dataset sizes to include.
    pub fn synth_sizes(self) -> Vec<(usize, bool)> {
        match self {
            // (rows, long_rows?)
            Scale::Quick => vec![(50, false), (50, true), (200, false)],
            Scale::Full => vec![(50, false), (50, true), (500, false), (500, true)],
        }
    }

    /// Repetitions per synthetic configuration (the paper averages 10).
    pub fn synth_repetitions(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 10,
        }
    }

    /// Units the Auto-Join baseline may enumerate per table pair
    /// ([`AutoJoinConfig::unit_budget`](tjoin_baselines::AutoJoinConfig::unit_budget)).
    /// A release build on 2 vCPUs enumerates 16–40 M units/s on the quick
    /// Table 2 inputs. At 20 M units/s, 100 M units is about 5 s and 12 G
    /// about 600 s; the paper's cap of 650 000 s (about a week) would be
    /// some 13 T units. These budgets keep the harness finite while still
    /// letting Auto-Join finish easy pairs.
    pub fn autojoin_budget(self) -> u64 {
        match self {
            Scale::Quick => 100_000_000,
            Scale::Full => 12_000_000_000,
        }
    }

    /// Table pairs per family that Tables 2 and 3 run Auto-Join on.
    pub fn autojoin_pairs(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => usize::MAX,
        }
    }

    /// Input lengths swept by the Figure 3 / Figure 4b experiments.
    pub fn length_sweep(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![20, 60, 100, 140, 180],
            Scale::Full => vec![20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240, 260, 280],
        }
    }

    /// Row counts swept by the Figure 4a experiment.
    pub fn row_sweep(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![50, 100, 250, 500],
            Scale::Full => vec![50, 100, 250, 500, 1000, 1500, 2000],
        }
    }

    /// Rows used in the length sweeps (the paper fixes 100).
    pub fn sweep_rows(self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Full => 100,
        }
    }

    /// A short label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full (paper sizes)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.web_pairs() < Scale::Full.web_pairs());
        assert!(Scale::Quick.spreadsheet_pairs() < Scale::Full.spreadsheet_pairs());
        assert!(Scale::Quick.open_data_rows().0 < Scale::Full.open_data_rows().0);
        assert!(Scale::Quick.length_sweep().len() < Scale::Full.length_sweep().len());
        assert!(Scale::Quick.autojoin_budget() < Scale::Full.autojoin_budget());
        assert!(Scale::Quick.autojoin_pairs() < Scale::Full.autojoin_pairs());
        assert_eq!(Scale::Quick.label(), "quick");
    }

    #[test]
    fn full_matches_paper_sizes() {
        assert_eq!(Scale::Full.web_pairs(), 31);
        assert_eq!(Scale::Full.spreadsheet_pairs(), 108);
        assert_eq!(Scale::Full.open_data_rows().1, 3000);
        assert_eq!(Scale::Full.synth_repetitions(), 10);
        assert!(Scale::Full.length_sweep().contains(&280));
        assert!(Scale::Full.row_sweep().contains(&2000));
    }
}
