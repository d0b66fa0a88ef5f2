//! Input pairs: the candidate source/target rows synthesis runs on.

use tjoin_text::{checked_row_count, normalize_for_matching, NormalizeOptions};
use tjoin_units::CharStr;

/// The prepared set of input pairs: per-row normalized sources, indexed by
/// character (the hot structure for unit application), and normalized
/// targets.
#[derive(Debug, Clone)]
pub struct PairSet {
    sources: Vec<CharStr>,
    targets: Vec<String>,
}

impl PairSet {
    /// Prepares a pair set from raw (source, target) strings, normalizing
    /// both sides.
    ///
    /// Panics when the pair count exceeds the `u32` row-id space — this is
    /// the single admission check every downstream `row as u32` cast in the
    /// coverage scans relies on — or when a normalized target exceeds
    /// `u32::MAX` bytes, the bound the coverage scan's `u32` output spans
    /// rely on (`CharStr::new` bounds sources the same way).
    pub fn from_strings<S: AsRef<str>, T: AsRef<str>>(
        raw: &[(S, T)],
        normalize: &NormalizeOptions,
    ) -> Self {
        if let Err(e) = checked_row_count(raw.len()) {
            panic!("pair set exceeds the u32 row-id space: {e}");
        }
        let targets: Vec<String> = raw
            .iter()
            .map(|(_, t)| normalize_for_matching(t.as_ref(), normalize))
            .collect();
        if let Some(long) = targets.iter().find(|t| u32::try_from(t.len()).is_err()) {
            panic!("a target exceeds the u32 byte-offset space ({} bytes)", long.len());
        }
        let sources = raw
            .iter()
            .map(|(s, _)| CharStr::new(normalize_for_matching(s.as_ref(), normalize)))
            .collect();
        Self { sources, targets }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The prepared source view at `idx`.
    pub fn source(&self, idx: usize) -> &CharStr {
        &self.sources[idx]
    }

    /// The target string at `idx`.
    pub fn target(&self, idx: usize) -> &str {
        &self.targets[idx]
    }

    /// A new pair set containing only the rows at `indices` (used by
    /// sampling), cloned from this one's prepared rows. Indices out of
    /// range are ignored.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let (sources, targets) = indices
            .iter()
            .filter(|&&i| i < self.len())
            .map(|&i| (self.sources[i].clone(), self.targets[i].clone()))
            .unzip();
        Self { sources, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_applied() {
        let set = PairSet::from_strings(
            &[("  Rafiei,   Davood ", "D RAFIEI")],
            &NormalizeOptions::default(),
        );
        assert_eq!(set.source(0).as_str(), "rafiei, davood");
        assert_eq!(set.target(0), "d rafiei");
        let set = PairSet::from_strings(&[(" A ", "B")], &NormalizeOptions::none());
        assert_eq!(set.source(0).as_str(), " A ");
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
        // Each kept row keeps both its source and its target text.
        assert_eq!((sub.source(0).as_str(), sub.target(0)), ("c", "3"));
        assert_eq!((sub.source(1).as_str(), sub.target(1)), ("a", "1"));
    }

    #[test]
    fn empty_set() {
        let set = PairSet::from_strings::<&str, &str>(&[], &NormalizeOptions::none());
        assert!(set.is_empty());
    }
}
