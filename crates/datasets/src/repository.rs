//! Repository-scale workload generator.
//!
//! GXJoin and QJoin evaluate joinability discovery over *table
//! repositories*: many candidate column pairs, most joinable under some
//! transformation, some not joinable at all. This generator emits such a
//! repository as N heterogeneous [`ColumnPair`]s for the batch join runner
//! (`tjoin_join::batch`):
//!
//! * joinable pairs cycle through six format families — person-name
//!   abbreviations, emails, phone numbers, dates, product codes, and user
//!   ids — each coverable by one or two string transformations over the
//!   unit language;
//! * a configurable fraction of rows per pair is *noise*: the target value
//!   is scrambled so no transformation of the source produces it (the rows
//!   stay in the golden mapping, capping attainable recall, exactly like
//!   the simulated web-tables benchmark);
//! * a configurable fraction of pairs are *decoys*: the target column is
//!   unrelated token gibberish with an empty golden mapping — a correct
//!   pipeline predicts nothing for them, and a support floor keeps
//!   accidental one-off rules out (`tests/paper_claims.rs` pins this).
//!
//! Generation is deterministic per seed (under the workspace's offline
//! `rand` shim — a different stream than upstream `StdRng`, see the shim
//! docs).

use crate::corpus;
use crate::realistic::{
    format_date, format_person, format_phone, DateStyle, PersonName, PersonStyle, PhoneStyle,
};
use crate::table::ColumnPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the repository generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RepositoryConfig {
    /// Number of column pairs to emit.
    pub pairs: usize,
    /// Base number of rows per pair (each pair varies by up to +20 %).
    pub rows_per_pair: usize,
    /// Fraction of rows per joinable pair whose target value is scrambled
    /// beyond the reach of any string transformation (`0.0..=1.0`).
    pub noise: f64,
    /// Fraction of pairs emitted as non-joinable decoys (`0.0..=1.0`),
    /// spread evenly through the repository.
    pub decoy_fraction: f64,
    /// Row-count multiplier (`>= 1.0`) applied to the repository's *first*
    /// pair, making it dominate the workload: a skew of 8 on a 100-row base
    /// yields one ~800-row pair among ~100-row peers — the shape where a
    /// static thread split strands workers and the batch runner's
    /// work-stealing queue earns its keep. `1.0` (the default) disables the
    /// skew and reproduces the pre-knob generation exactly.
    pub skew: f64,
}

impl Default for RepositoryConfig {
    fn default() -> Self {
        Self {
            pairs: 12,
            rows_per_pair: 100,
            noise: 0.05,
            decoy_fraction: 0.25,
            skew: 1.0,
        }
    }
}

/// The format families joinable pairs cycle through.
const FAMILIES: [Family; 6] = [
    Family::NameAbbrev,
    Family::Email,
    Family::Phone,
    Family::Date,
    Family::ProductCode,
    Family::UserId,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    NameAbbrev,
    Email,
    Phone,
    Date,
    ProductCode,
    UserId,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::NameAbbrev => "names",
            Family::Email => "emails",
            Family::Phone => "phones",
            Family::Date => "dates",
            Family::ProductCode => "products",
            Family::UserId => "userids",
        }
    }
}

impl RepositoryConfig {
    /// Convenience constructor for the common (pairs, rows) shape with the
    /// default noise and decoy mix.
    pub fn new(pairs: usize, rows_per_pair: usize) -> Self {
        Self {
            pairs,
            rows_per_pair,
            ..Self::default()
        }
    }

    /// Builder-style setter for the noise fraction.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Builder-style setter for the decoy fraction.
    pub fn with_decoys(mut self, decoy_fraction: f64) -> Self {
        self.decoy_fraction = decoy_fraction;
        self
    }

    /// Generates the repository deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Vec<ColumnPair> {
        assert!(
            (0.0..=1.0).contains(&self.noise),
            "noise must be within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.decoy_fraction),
            "decoy_fraction must be within [0, 1]"
        );
        assert!(self.rows_per_pair >= 1, "rows_per_pair must be at least 1");
        assert!(
            self.skew >= 1.0 && self.skew.is_finite(),
            "skew must be a finite multiplier >= 1.0"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let decoys = (self.pairs as f64 * self.decoy_fraction).round() as usize;
        let mut out = Vec::with_capacity(self.pairs);
        let mut family_cursor = 0usize;
        for i in 0..self.pairs {
            // Bresenham spread: pair i is a decoy when the running decoy
            // quota crosses an integer at i.
            let is_decoy =
                self.pairs > 0 && ((i + 1) * decoys) / self.pairs > (i * decoys) / self.pairs;
            let rows = self.rows_per_pair + rng.gen_range(0..=self.rows_per_pair / 5);
            // The skew multiplies the first pair's row count after the
            // jitter draw; `skew = 1.0` reproduces the pre-knob generation
            // exactly. (A larger first pair consumes more rng draws, so
            // later pairs' *content* shifts with the skew — generation
            // stays deterministic per (seed, config).)
            let rows = if i == 0 {
                (rows as f64 * self.skew).round() as usize
            } else {
                rows
            };
            if is_decoy {
                out.push(decoy_pair(i, rows, &mut rng));
            } else {
                let family = FAMILIES[family_cursor % FAMILIES.len()];
                family_cursor += 1;
                out.push(joinable_pair(i, family, rows, self.noise, &mut rng));
            }
        }
        out
    }
}

/// Ground-truth decoy label for generated repositories: the non-joinable
/// decoys are exactly the pairs with an *empty* golden mapping — joinable
/// pairs always carry a full-length golden mapping, even for noise rows
/// (noise caps attainable recall; it never empties the mapping). Discovery
/// quality — shortlist recall over joinable pairs, precision against
/// decoys — is measured against this label rather than the `-decoy` name
/// suffix, so hand-built repositories get the same treatment.
pub fn is_decoy(pair: &ColumnPair) -> bool {
    pair.golden.is_empty()
}

/// Generates `count` fresh joinable rows in the same format family as a
/// generated pair — the raw material for append workloads: every returned
/// `(source, target)` row is the same entity in the pair's two surface
/// formats, coverable by the same transformations as the pair's existing
/// rows.
///
/// The family is recovered from the generated pair's `-<family>` name
/// suffix; returns `None` for decoys and for hand-built pairs whose name
/// carries no known family. Deterministic per `(pair name, seed)` — the
/// rows do not depend on the pair's content, so repeated calls with
/// distinct seeds extend a pair without replaying its generation stream.
pub fn joinable_rows(pair: &ColumnPair, count: usize, seed: u64) -> Option<Vec<(String, String)>> {
    let suffix = pair.name.rsplit('-').next()?;
    let family = FAMILIES.iter().copied().find(|f| f.name() == suffix)?;
    let mut rng = StdRng::seed_from_u64(seed);
    Some((0..count).map(|_| family_row(family, &mut rng)).collect())
}

fn random_person(rng: &mut StdRng) -> PersonName {
    let first = corpus::FIRST_NAMES[rng.gen_range(0..corpus::FIRST_NAMES.len())];
    let last = corpus::LAST_NAMES[rng.gen_range(0..corpus::LAST_NAMES.len())];
    PersonName::new(first, last)
}

/// One joinable row of a family: `(source_value, target_value)`, same
/// entity in two surface formats, coverable by a string transformation.
fn family_row(family: Family, rng: &mut StdRng) -> (String, String) {
    match family {
        Family::NameAbbrev => {
            let p = random_person(rng);
            let src = format_person(&p, PersonStyle::LastCommaFirst);
            let tgt = if rng.gen_bool(0.6) {
                format_person(&p, PersonStyle::InitialLast)
            } else {
                format_person(&p, PersonStyle::InitialDotLast)
            };
            (src, tgt)
        }
        Family::Email => {
            let p = random_person(rng);
            (
                format_person(&p, PersonStyle::LastCommaFirst),
                format_person(&p, PersonStyle::Email { domain: "example.org" }),
            )
        }
        Family::Phone => {
            let area = ["780", "403", "587", "825"][rng.gen_range(0..4)];
            let digits = format!("{}{:07}", area, rng.gen_range(0..10_000_000u32));
            let src = format_phone(&digits, PhoneStyle::Parenthesized);
            let tgt = if rng.gen_bool(0.5) {
                format_phone(&digits, PhoneStyle::Dashed)
            } else {
                format_phone(&digits, PhoneStyle::International)
            };
            (src, tgt)
        }
        Family::Date => {
            let (y, m, d) = (
                rng.gen_range(1950..2024),
                rng.gen_range(1..=12),
                rng.gen_range(1..=28),
            );
            (
                format_date(y, m, d, DateStyle::DayMonthYearSlash),
                format_date(y, m, d, DateStyle::Iso),
            )
        }
        Family::ProductCode => {
            // Twelve brands keep the matcher's brand-gram fan-out small
            // (candidate sets ~8 rows per brand at 100 rows), and the
            // uniform 3-character series keeps the pair coverable by ONE
            // rule — so its support stays clear of the paper's 5% floor
            // instead of splitting across per-length variants.
            let brand = [
                "Nova", "Apex", "Zenith", "Orion", "Vertex", "Atlas", "Quasar", "Pulsar",
                "Nimbus", "Helix", "Argon", "Krypton",
            ][rng.gen_range(0..12)];
            let series = ["Pro", "Air", "Max"][rng.gen_range(0..3)];
            let num = rng.gen_range(100..999);
            (format!("{brand} {series}-{num}"), format!("{brand}{series}{num}"))
        }
        Family::UserId => {
            let p = random_person(rng);
            (
                format_person(&p, PersonStyle::LastCommaFirst),
                format_person(&p, PersonStyle::UserId),
            )
        }
    }
}

/// Scrambles a target value beyond the reach of any string transformation
/// of its source (character swap, drop, or an appended marker). The marker
/// carries a per-row random number so that no single literal-suffix rule
/// can cover the marked rows collectively — a uniform marker would be
/// reachable by `<covering rule, Literal(marker)>` and clear the support
/// floor once the noise fraction is high enough, silently re-joining rows
/// this module promises are unjoinable.
fn noisify(value: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = value.chars().collect();
    match rng.gen_range(0..3) {
        0 => {
            if chars.len() >= 4 {
                let i = rng.gen_range(1..chars.len() - 2);
                chars.swap(i, i + 1);
            }
            chars.into_iter().collect()
        }
        1 => {
            if chars.len() >= 3 {
                let i = rng.gen_range(1..chars.len() - 1);
                chars.remove(i);
            }
            chars.into_iter().collect()
        }
        _ => format!("{value} ({:03})", rng.gen_range(0..1000u32)),
    }
}

fn joinable_pair(
    index: usize,
    family: Family,
    rows: usize,
    noise: f64,
    rng: &mut StdRng,
) -> ColumnPair {
    let mut source = Vec::with_capacity(rows);
    let mut target = Vec::with_capacity(rows);
    for _ in 0..rows {
        let (src, tgt) = family_row(family, rng);
        let tgt = if rng.gen_bool(noise) { noisify(&tgt, rng) } else { tgt };
        source.push(src);
        target.push(tgt);
    }
    ColumnPair::aligned(format!("repo-{index:03}-{}", family.name()), source, target)
}

/// A non-joinable decoy: real-looking source values against token gibberish
/// targets sharing no transformable structure, with an empty golden
/// mapping.
fn decoy_pair(index: usize, rows: usize, rng: &mut StdRng) -> ColumnPair {
    let mut source = Vec::with_capacity(rows);
    let mut target = Vec::with_capacity(rows);
    for _ in 0..rows {
        let p = random_person(rng);
        source.push(format_person(&p, PersonStyle::LastCommaFirst));
        let letters: String = (0..4)
            .map(|_| (b'q' + rng.gen_range(0..8u8)) as char)
            .collect();
        target.push(format!("{letters}-{:04}-{}", rng.gen_range(0..10_000u32), rng.gen_range(0..100u32)));
    }
    ColumnPair::new(format!("repo-{index:03}-decoy"), source, target, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let config = RepositoryConfig::new(8, 30);
        assert_eq!(config.generate(5), config.generate(5));
        assert_ne!(config.generate(5)[0].source, config.generate(6)[0].source);
    }

    #[test]
    fn decoy_quota_and_spread() {
        let repo = RepositoryConfig::new(12, 10).with_decoys(0.25).generate(1);
        let decoys: Vec<usize> = repo
            .iter()
            .enumerate()
            .filter(|(_, p)| p.name.ends_with("-decoy"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(decoys.len(), 3);
        // Spread through the repository, not bunched at the tail.
        assert!(decoys[0] < 6, "decoys bunched: {decoys:?}");
        for p in &repo {
            if p.name.ends_with("-decoy") {
                assert!(p.golden.is_empty());
            } else {
                assert_eq!(p.golden.len(), p.source.len());
            }
        }
    }

    #[test]
    fn decoy_label_matches_the_name_convention() {
        let repo = RepositoryConfig::new(12, 10).with_decoys(0.25).generate(7);
        for p in &repo {
            assert_eq!(is_decoy(p), p.name.ends_with("-decoy"), "{}", p.name);
        }
    }

    #[test]
    fn families_are_heterogeneous() {
        let repo = RepositoryConfig::new(12, 10).with_decoys(0.0).generate(2);
        let families: std::collections::HashSet<&str> = repo
            .iter()
            .map(|p| p.name.rsplit('-').next().unwrap())
            .collect();
        assert!(families.len() >= 6, "families: {families:?}");
    }

    #[test]
    fn noise_rows_present_at_requested_rate() {
        let noisy = RepositoryConfig::new(4, 200).with_noise(0.5).with_decoys(0.0).generate(3);
        let clean = RepositoryConfig::new(4, 200).with_noise(0.0).with_decoys(0.0).generate(3);
        // With 50% noise the two repositories must disagree on many target
        // values; with 0% they are fully structured.
        assert_ne!(noisy[0].target, clean[0].target);
    }

    #[test]
    fn row_counts_near_base() {
        let repo = RepositoryConfig::new(6, 50).generate(4);
        for p in &repo {
            assert!((50..=60).contains(&p.source.len()), "{} rows", p.source.len());
            assert_eq!(p.source.len(), p.target.len());
        }
    }

    #[test]
    fn skew_inflates_the_first_pair() {
        let base = RepositoryConfig::new(6, 50).with_decoys(0.0);
        let flat = base.clone().generate(9);
        let skewed = RepositoryConfig { skew: 8.0, ..base.clone() }.generate(9);
        // The first pair dominates: exactly 8x its unskewed row count,
        // while every other pair keeps the base-range count.
        assert_eq!(skewed[0].source.len(), flat[0].source.len() * 8);
        for p in skewed.iter().skip(1) {
            assert!((50..=60).contains(&p.source.len()), "{} rows", p.source.len());
            assert_eq!(p.source.len(), p.target.len());
        }
        assert_eq!(skewed, RepositoryConfig { skew: 8.0, ..base.clone() }.generate(9));
        // The explicit default skew reproduces the pre-knob generation.
        assert_eq!(flat, RepositoryConfig { skew: 1.0, ..base }.generate(9));
    }

    #[test]
    #[should_panic(expected = "skew")]
    fn invalid_skew_rejected() {
        let _ = RepositoryConfig { skew: 0.5, ..RepositoryConfig::new(2, 10) }.generate(0);
    }

    #[test]
    #[should_panic(expected = "noise")]
    fn invalid_noise_rejected() {
        let _ = RepositoryConfig::new(2, 10).with_noise(1.5).generate(0);
    }

    #[test]
    fn empty_repository_allowed() {
        assert!(RepositoryConfig::new(0, 10).generate(0).is_empty());
    }
}
