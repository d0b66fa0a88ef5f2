//! Common-substring detection between a source and a target string.
//!
//! A *placeholder* (Definition 4 of the paper) is a contiguous block of the
//! target that can be produced from the source by a non-constant unit — with
//! copy-based units this is exactly a common substring of the two strings.
//! The synthesis engine works with *maximal-length* placeholders (Section
//! 4.1.3): common blocks of the target that cannot be extended on either side
//! and still occur in the source. This module computes those blocks, plus the
//! classic longest-common-substring used by the Auto-FuzzyJoin baseline's
//! similarity measures.

use serde::{Deserialize, Serialize};

/// A maximal common block of the target with respect to the source.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommonMatch {
    /// Start character position of the block in the *target*.
    pub target_start: usize,
    /// End character position (exclusive) of the block in the target.
    pub target_end: usize,
    /// Every character position in the *source* where the block occurs.
    pub source_positions: Vec<usize>,
}


/// Finds, for every target position, the length of the longest substring of
/// the target starting there that also occurs in the source, and keeps the
/// *maximal* ones: blocks that are not contained in a longer block starting
/// earlier. This is exactly the set of maximal-length placeholders of the
/// pair (Section 4.1.3).
///
/// The comparison is case-sensitive; callers wanting the paper's
/// case-insensitive behaviour normalize first (see
/// [`crate::normalize::normalize_for_matching`]).
///
/// Complexity: O(|target| · |source| · L) in the worst case with the simple
/// scanning strategy used here (L = average match length); row values in the
/// paper's datasets are at most a few hundred characters, where this is
/// faster in practice than building a suffix automaton per row.
pub fn common_substring_matches(source: &str, target: &str) -> Vec<CommonMatch> {
    let s: Vec<char> = source.chars().collect();
    let t: Vec<char> = target.chars().collect();
    if s.is_empty() || t.is_empty() {
        return Vec::new();
    }

    // max_len[i] = length of the longest common block starting at target i.
    let mut max_len = vec![0usize; t.len()];
    for i in 0..t.len() {
        let mut best = 0usize;
        for j in 0..s.len() {
            if s[j] != t[i] {
                continue;
            }
            let mut l = 1usize;
            while i + l < t.len() && j + l < s.len() && t[i + l] == s[j + l] {
                l += 1;
            }
            best = best.max(l);
        }
        max_len[i] = best;
    }

    let mut out = Vec::new();
    for i in 0..t.len() {
        if max_len[i] == 0 {
            continue;
        }
        // Maximal on the left: not a proper suffix of the block starting at i-1.
        if i > 0 && max_len[i - 1] > max_len[i] {
            continue;
        }
        let source_positions = find_char_positions(&s, &t[i..i + max_len[i]]);
        debug_assert!(!source_positions.is_empty());
        out.push(CommonMatch {
            target_start: i,
            target_end: i + max_len[i],
            source_positions,
        });
    }
    out
}

/// All character positions in `haystack` where `needle` occurs (overlapping
/// matches included); both are given as char slices.
fn find_char_positions(haystack: &[char], needle: &[char]) -> Vec<usize> {
    if needle.is_empty() || needle.len() > haystack.len() {
        return Vec::new();
    }
    (0..=haystack.len() - needle.len())
        .filter(|&i| &haystack[i..i + needle.len()] == needle)
        .collect()
}

/// The longest common substring of `a` and `b`.
///
/// Returns `(length, start_in_a, start_in_b)` in character positions; a zero
/// length means the strings share no characters.
pub fn longest_common_substring(a: &str, b: &str) -> (usize, usize, usize) {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    if av.is_empty() || bv.is_empty() {
        return (0, 0, 0);
    }
    // Rolling DP over b to keep memory at O(|b|).
    let mut prev = vec![0usize; bv.len() + 1];
    let mut best = (0usize, 0usize, 0usize);
    for (i, &ca) in av.iter().enumerate() {
        let mut curr = vec![0usize; bv.len() + 1];
        for (j, &cb) in bv.iter().enumerate() {
            if ca == cb {
                let l = prev[j] + 1;
                curr[j + 1] = l;
                if l > best.0 {
                    best = (l, i + 1 - l, j + 1 - l);
                }
            }
        }
        prev = curr;
    }
    best
}

/// Length of the longest common substring normalized by the length of the
/// shorter string (in `0.0..=1.0`); one of the similarity signals used by the
/// Auto-FuzzyJoin baseline.
pub fn lcs_ratio(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let min = la.min(lb);
    if min == 0 {
        return 0.0;
    }
    longest_common_substring(a, b).0 as f64 / min as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(source: &str, target: &str) -> Vec<(String, usize)> {
        common_substring_matches(source, target)
            .into_iter()
            .map(|m| {
                let t: Vec<char> = target.chars().collect();
                (
                    t[m.target_start..m.target_end].iter().collect(),
                    m.source_positions.len(),
                )
            })
            .collect()
    }

    #[test]
    fn paper_email_example() {
        // source "bowling, michael", target "michael.bowling@ualberta.ca":
        // the copied blocks "michael" and "bowling" must both be found.
        let found = blocks("bowling, michael", "michael.bowling@ualberta.ca");
        let texts: Vec<&str> = found.iter().map(|(t, _)| t.as_str()).collect();
        assert!(texts.contains(&"michael"), "found: {texts:?}");
        assert!(texts.contains(&"bowling"), "found: {texts:?}");
    }

    #[test]
    fn maximality_no_contained_blocks() {
        // Every reported block must not be extendable to the left:
        // "abcd" in source, target "abcdx": block "abcd" only, not "bcd".
        let found = blocks("abcd", "abcdx");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, "abcd");
    }

    #[test]
    fn multiple_source_occurrences_counted() {
        let m = common_substring_matches("abab", "ab");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].source_positions, vec![0, 2]);
        assert_eq!((m[0].target_start, m[0].target_end), (0, 2));
    }

    #[test]
    fn disjoint_strings_have_no_matches() {
        assert!(common_substring_matches("abc", "xyz").is_empty());
        assert!(common_substring_matches("", "xyz").is_empty());
        assert!(common_substring_matches("abc", "").is_empty());
    }

    #[test]
    fn overlapping_blocks_reported_when_maximal() {
        // source "abcd efg", target "abcdefg": target block "abcd" (from pos 0)
        // and "defg"? t="abcdefg": at i=0 longest common with "abcd efg" is
        // "abcd" (len 4). At i=1 "bcd" (len 3) -> suffix of previous, skipped.
        // At i=3 "d" ... longest starting at 3: "defg"? source has "d efg" so
        // "d" then space; longest is "d" (len 1) -> contained. At i=4 "efg"
        // (len 3) not contained since max_len[3] = 1 < 3+1. So blocks: abcd, efg.
        let found = blocks("abcd efg", "abcdefg");
        let texts: Vec<&str> = found.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(texts, vec!["abcd", "efg"]);
    }

    #[test]
    fn single_characters_can_be_blocks() {
        let found = blocks("xay", "a-a");
        let texts: Vec<&str> = found.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(texts, vec!["a", "a"]);
    }

    #[test]
    fn longest_common_substring_basic() {
        let (len, pa, pb) = longest_common_substring("hello world", "yellow");
        // "ello" is common: a[1..5], b[1..5]
        assert_eq!((len, pa, pb), (4, 1, 1));
        assert_eq!(longest_common_substring("", "abc"), (0, 0, 0));
        assert_eq!(longest_common_substring("abc", ""), (0, 0, 0));
        assert_eq!(longest_common_substring("abc", "abc"), (3, 0, 0));
    }

    #[test]
    fn lcs_ratio_bounds() {
        assert!((lcs_ratio("abc", "abc") - 1.0).abs() < 1e-12);
        assert_eq!(lcs_ratio("", "abc"), 0.0);
        let r = lcs_ratio("abcdef", "xxabxx");
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    fn unicode_blocks() {
        let found = blocks("café au lait", "the café");
        let texts: Vec<&str> = found.iter().map(|(t, _)| t.as_str()).collect();
        assert!(texts.iter().any(|t| t.contains("café")), "found {texts:?}");
    }
}
