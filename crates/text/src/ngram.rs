//! Character n-gram extraction.
//!
//! Placeholders are "common n-grams among the source and the target for all
//! values of n" (Section 4.1.1) and row matching selects a *representative*
//! n-gram per size per source row (Section 4.2.1, Algorithm 1). Both consume
//! the extraction routines in this module.

use crate::fxhash::FxHashSet;

/// All character n-grams of exactly length `n` (in characters) of `text`, in
/// order of occurrence, including duplicates.
///
/// Returns an empty vector when `n == 0` or `n` exceeds the character length.
///
/// ```
/// use tjoin_text::char_ngrams;
/// assert_eq!(char_ngrams("abcd", 2), vec!["ab", "bc", "cd"]);
/// assert_eq!(char_ngrams("abcd", 5), Vec::<&str>::new());
/// ```
pub fn char_ngrams(text: &str, n: usize) -> Vec<&str> {
    if n == 0 {
        return Vec::new();
    }
    let boundaries: Vec<usize> = text
        .char_indices()
        .map(|(b, _)| b)
        .chain(std::iter::once(text.len()))
        .collect();
    let chars = boundaries.len() - 1;
    if n > chars {
        return Vec::new();
    }
    (0..=chars - n)
        .map(|i| &text[boundaries[i]..boundaries[i + n]])
        .collect()
}

/// Calls `f` with every n-gram of `text` for sizes `n_min..=n_max`, size-
/// major and in occurrence order within each size — the same stream
/// [`char_ngrams`] yields per size, but with the char-boundary pass done
/// once for all sizes and zero intermediate `Vec`s. This is the hot-loop
/// form used by arena-backed [`crate::ColumnStats`] / fingerprint builds.
///
/// Matches `char_ngrams` edge behaviour: `n_min == 0` yields nothing (the
/// per-size loop in the reference breaks on the first empty size), and
/// sizes beyond the char count are skipped.
pub fn for_each_ngram_in_sizes<'t>(
    text: &'t str,
    n_min: usize,
    n_max: usize,
    f: &mut impl FnMut(&'t str),
) {
    if n_min == 0 {
        return;
    }
    let boundaries: Vec<usize> = text
        .char_indices()
        .map(|(b, _)| b)
        .chain(std::iter::once(text.len()))
        .collect();
    let chars = boundaries.len() - 1;
    for n in n_min..=n_max.min(chars) {
        for i in 0..=chars - n {
            f(&text[boundaries[i]..boundaries[i + n]]);
        }
    }
}

/// The set of *distinct* n-grams of length `n`.
pub fn distinct_char_ngrams(text: &str, n: usize) -> FxHashSet<&str> {
    char_ngrams(text, n).into_iter().collect()
}

/// Jaccard similarity of the distinct n-gram sets of two strings; used by the
/// Auto-FuzzyJoin baseline's similarity-measure family.
pub fn ngram_jaccard(a: &str, b: &str, n: usize) -> f64 {
    let sa = distinct_char_ngrams(a, n);
    let sb = distinct_char_ngrams(b, n);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// Containment similarity |A ∩ B| / |A| of distinct n-gram sets (asymmetric);
/// Auto-FuzzyJoin favours containment-style measures when one side is longer.
pub fn ngram_containment(a: &str, b: &str, n: usize) -> f64 {
    let sa = distinct_char_ngrams(a, n);
    if sa.is_empty() {
        return 0.0;
    }
    let sb = distinct_char_ngrams(b, n);
    let inter = sa.intersection(&sb).count();
    inter as f64 / sa.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngrams_basic() {
        assert_eq!(char_ngrams("abcd", 1), vec!["a", "b", "c", "d"]);
        assert_eq!(char_ngrams("abcd", 2), vec!["ab", "bc", "cd"]);
        assert_eq!(char_ngrams("abcd", 4), vec!["abcd"]);
        assert_eq!(char_ngrams("abcd", 5), Vec::<&str>::new());
        assert_eq!(char_ngrams("abcd", 0), Vec::<&str>::new());
        assert_eq!(char_ngrams("", 1), Vec::<&str>::new());
    }

    #[test]
    fn ngrams_unicode() {
        assert_eq!(char_ngrams("héllo", 2), vec!["hé", "él", "ll", "lo"]);
    }

    #[test]
    fn fused_stream_matches_per_size_reference() {
        for text in ["", "a", "héllo", "abcdef", "αβγδ"] {
            for (n_min, n_max) in [(0, 3), (1, 1), (1, 4), (2, 10), (4, 2)] {
                let mut fused = Vec::new();
                for_each_ngram_in_sizes(text, n_min, n_max, &mut |g| fused.push(g));
                let mut reference = Vec::new();
                for n in n_min..=n_max {
                    if n == 0 {
                        reference.clear();
                        break;
                    }
                    reference.extend(char_ngrams(text, n));
                }
                assert_eq!(fused, reference, "text {text:?} range {n_min}..={n_max}");
            }
        }
    }

    #[test]
    fn distinct_counts() {
        assert_eq!(distinct_char_ngrams("aaaa", 1).len(), 1);
        assert_eq!(distinct_char_ngrams("aaaa", 2).len(), 1);
        assert_eq!(distinct_char_ngrams("abab", 2).len(), 2);
        assert_eq!(distinct_char_ngrams("", 2).len(), 0);
    }

    #[test]
    fn jaccard() {
        assert!((ngram_jaccard("abcd", "abcd", 2) - 1.0).abs() < 1e-12);
        assert!((ngram_jaccard("abcd", "wxyz", 2) - 0.0).abs() < 1e-12);
        assert!((ngram_jaccard("", "", 2) - 1.0).abs() < 1e-12);
        assert!((ngram_jaccard("ab", "", 2) - 0.0).abs() < 1e-12);
        // "abc" vs "abd": 2-grams {ab, bc} vs {ab, bd} -> 1/3
        assert!((ngram_jaccard("abc", "abd", 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        assert!((ngram_containment("ab", "xxabxx", 2) - 1.0).abs() < 1e-12);
        assert!((ngram_containment("abcd", "ab", 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ngram_containment("", "abc", 2), 0.0);
    }
}
