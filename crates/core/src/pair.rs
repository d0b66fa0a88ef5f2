//! Input pairs: the candidate source/target rows synthesis runs on.

use serde::{Deserialize, Serialize};
use tjoin_text::{checked_row_count, normalize_for_matching, NormalizeOptions};
use tjoin_units::CharStr;

/// One candidate joinable row pair, already normalized.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputPair {
    /// Normalized source value.
    pub source: String,
    /// Normalized target value.
    pub target: String,
}

impl InputPair {
    /// Builds a pair, applying the given normalization to both sides.
    pub fn new(source: &str, target: &str, normalize: &NormalizeOptions) -> Self {
        Self {
            source: normalize_for_matching(source, normalize),
            target: normalize_for_matching(target, normalize),
        }
    }
}

/// The prepared set of input pairs: normalized values plus per-row
/// character-indexed views of the source (the hot structure for unit
/// application).
#[derive(Debug, Clone)]
pub struct PairSet {
    pairs: Vec<InputPair>,
    sources: Vec<CharStr>,
}

impl PairSet {
    /// Prepares a pair set from raw (source, target) strings.
    pub fn from_strings<S: AsRef<str>, T: AsRef<str>>(
        raw: &[(S, T)],
        normalize: &NormalizeOptions,
    ) -> Self {
        let pairs: Vec<InputPair> = raw
            .iter()
            .map(|(s, t)| InputPair::new(s.as_ref(), t.as_ref(), normalize))
            .collect();
        Self::from_pairs(pairs)
    }

    /// Prepares a pair set from already-normalized pairs.
    ///
    /// Panics when the pair count exceeds the `u32` row-id space — this is
    /// the single admission check every downstream `row as u32` cast in the
    /// coverage scans relies on.
    pub fn from_pairs(pairs: Vec<InputPair>) -> Self {
        if let Err(e) = checked_row_count(pairs.len()) {
            panic!("pair set exceeds the u32 row-id space: {e}");
        }
        let sources = pairs.iter().map(|p| CharStr::new(p.source.clone())).collect();
        Self { pairs, sources }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The prepared source view at `idx`.
    pub fn source(&self, idx: usize) -> &CharStr {
        &self.sources[idx]
    }

    /// The target string at `idx`.
    pub fn target(&self, idx: usize) -> &str {
        &self.pairs[idx].target
    }

    /// A new pair set containing only the rows at `indices` (used by
    /// sampling). Indices out of range are ignored.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let pairs: Vec<InputPair> = indices
            .iter()
            .filter_map(|&i| self.pairs.get(i).cloned())
            .collect();
        Self::from_pairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_applied() {
        let p = InputPair::new("  Rafiei,   Davood ", "D RAFIEI", &NormalizeOptions::default());
        assert_eq!(p.source, "rafiei, davood");
        assert_eq!(p.target, "d rafiei");
        let p = InputPair::new(" A ", "B", &NormalizeOptions::none());
        assert_eq!(p.source, " A ");
    }

    #[test]
    fn pair_set_accessors() {
        let set = PairSet::from_strings(
            &[("Rafiei, Davood", "D Rafiei"), ("Bowling, Michael", "M Bowling")],
            &NormalizeOptions::default(),
        );
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.target(0), "d rafiei");
        assert_eq!(set.source(1).as_str(), "bowling, michael");
    }

    #[test]
    fn subset_selects_rows() {
        let set = PairSet::from_strings(
            &[("a", "1"), ("b", "2"), ("c", "3")],
            &NormalizeOptions::none(),
        );
        let sub = set.subset(&[2, 0, 99]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.pairs[0].source, "c");
        assert_eq!(sub.pairs[1].source, "a");
    }

    #[test]
    fn empty_set() {
        let set = PairSet::from_pairs(vec![]);
        assert!(set.is_empty());
    }
}
