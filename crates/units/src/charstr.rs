//! Character-indexed string view.
//!
//! Transformation units operate on *character* positions (the paper's
//! examples are position based: `Substr(0,7)` means "the first seven
//! characters"). Rust strings are UTF-8 byte sequences, so slicing by
//! character index requires a scan. [`CharStr`] caches the byte offset of
//! every character boundary once, making every subsequent character-range
//! slice O(1). The synthesis engine builds one `CharStr` per row and applies
//! thousands to millions of candidate units against it, so this caching is on
//! the hot path.

use std::fmt;
use std::ops::Range;

/// An owned string together with a precomputed map from character index to
/// byte offset, enabling O(1) character-range slicing.
///
/// ```
/// use tjoin_units::CharStr;
/// let s = CharStr::new("naïve café");
/// assert_eq!(s.char_len(), 10);
/// assert_eq!(s.slice(0, 5), Some("naïve"));
/// assert_eq!(s.slice(6, 10), Some("café"));
/// assert_eq!(s.slice(6, 11), None); // out of range
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CharStr {
    text: String,
    /// Byte offset of the start of each character, plus a trailing entry equal
    /// to `text.len()`; `offsets.len() == char_len + 1`.
    offsets: Vec<u32>,
}

impl CharStr {
    /// Builds a `CharStr` from any string-like value.
    pub fn new(text: impl Into<String>) -> Self {
        let text = text.into();
        // Checked, not `as`: a release-mode truncation would silently
        // corrupt every character lookup on the string.
        let offset = |byte: usize| {
            u32::try_from(byte).expect("CharStr input exceeds the u32 offset space")
        };
        let mut offsets = Vec::with_capacity(text.len() + 1);
        for (byte, _) in text.char_indices() {
            offsets.push(offset(byte));
        }
        offsets.push(offset(text.len()));
        Self { text, offsets }
    }

    /// The underlying string.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Number of characters (not bytes).
    #[inline]
    pub fn char_len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Character at character position `idx`, if in range.
    #[inline]
    pub fn char_at(&self, idx: usize) -> Option<char> {
        if idx >= self.char_len() {
            return None;
        }
        let start = self.offsets[idx] as usize;
        self.text[start..].chars().next()
    }

    /// The substring spanning character positions `[start, end)`.
    ///
    /// Returns `None` when the range is invalid (reversed or out of bounds).
    /// An empty range inside bounds yields `Some("")`.
    #[inline]
    pub fn slice(&self, start: usize, end: usize) -> Option<&str> {
        if start > end || end > self.char_len() {
            return None;
        }
        let b0 = self.offsets[start] as usize;
        let b1 = self.offsets[end] as usize;
        Some(&self.text[b0..b1])
    }

    /// The substring for a character range.
    #[inline]
    pub fn slice_range(&self, range: Range<usize>) -> Option<&str> {
        self.slice(range.start, range.end)
    }

    /// Iterates over the characters of the string.
    pub fn chars(&self) -> impl Iterator<Item = char> + '_ {
        self.text.chars()
    }

    /// Splits on a single delimiter character and returns the pieces as
    /// character ranges (delimiters excluded). Mirrors `str::split`: `n`
    /// delimiters yield `n + 1` pieces, some possibly empty.
    pub fn split_ranges(&self, delim: char) -> Vec<Range<usize>> {
        self.split_ranges_by(|c| c == delim)
    }

    /// Splits on either of two delimiter characters; see [`Self::split_ranges`].
    pub fn split_ranges2(&self, d1: char, d2: char) -> Vec<Range<usize>> {
        self.split_ranges_by(|c| c == d1 || c == d2)
    }

    /// Splits on an arbitrary character predicate, returning character ranges.
    pub fn split_ranges_by(&self, mut is_delim: impl FnMut(char) -> bool) -> Vec<Range<usize>> {
        let mut ranges = Vec::new();
        let mut start = 0usize;
        for (i, c) in self.chars().enumerate() {
            if is_delim(c) {
                ranges.push(start..i);
                start = i + 1;
            }
        }
        ranges.push(start..self.char_len());
        ranges
    }

    /// The `index`-th piece of the character range `within` split on the
    /// characters where `is_delim` holds, as a character range of the whole
    /// string; `None` when `within` has fewer pieces. Without allocating, this
    /// is what [`Self::split_ranges_by`] on the text of `within` yields at
    /// `index`, shifted by `within.start`.
    pub(crate) fn piece(
        &self,
        within: Range<usize>,
        index: usize,
        mut is_delim: impl FnMut(char) -> bool,
    ) -> Option<Range<usize>> {
        let text = self.slice_range(within.clone())?;
        let mut start = within.start;
        let mut delims = 0;
        for (i, c) in (within.start..).zip(text.chars()) {
            if is_delim(c) {
                if delims == index {
                    return Some(start..i);
                }
                delims += 1;
                start = i + 1;
            }
        }
        (delims == index).then_some(start..within.end)
    }

    /// All character positions at which `needle` occurs as a substring
    /// (positions are character indices of the first character of the match).
    /// Matches may overlap. An empty needle yields no positions.
    pub fn find_all(&self, needle: &str) -> Vec<usize> {
        if needle.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut byte_pos = 0usize;
        while let Some(found) = self.text[byte_pos..].find(needle) {
            let abs_byte = byte_pos + found;
            // Binary search the offsets table for the character index.
            let char_idx = self
                .offsets
                .binary_search_by_key(&abs_byte, |&offset| offset as usize)
                .expect("match must start at a char boundary");
            out.push(char_idx);
            // Advance by one character to allow overlapping matches.
            byte_pos = self.offsets[char_idx + 1] as usize;
        }
        out
    }
}

impl From<&str> for CharStr {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for CharStr {
    fn from(s: String) -> Self {
        Self::new(s)
    }
}

impl fmt::Display for CharStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl AsRef<str> for CharStr {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `piece` is `split_ranges_by(pred).get(index)`, on multi-byte text
        /// with leading, trailing and repeated delimiters and indexes past
        /// the last piece; within an outer piece, it is the split of that
        /// piece's text, shifted to the piece.
        #[test]
        fn piece_is_the_indexed_split_range(
            s in "[abé€,; ]{0,24}",
            d1 in prop_oneof![Just(','), Just('€')],
            d2 in prop_oneof![Just(' '), Just('é')],
            outer in 0usize..6,
            index in 0usize..8,
        ) {
            let cs = CharStr::new(s);
            let whole = 0..cs.char_len();
            let two = |c: char| c == d1 || c == d2;
            prop_assert_eq!(cs.piece(whole.clone(), index, two), cs.split_ranges_by(two).get(index).cloned());
            let single = |c: char| c == d1;
            prop_assert_eq!(cs.piece(whole, outer, single), cs.split_ranges(d1).get(outer).cloned());
            if let Some(piece) = cs.split_ranges(d1).get(outer).cloned() {
                let text = CharStr::new(cs.slice_range(piece.clone()).unwrap());
                let shifted = text
                    .split_ranges(d2)
                    .get(index)
                    .map(|r| r.start + piece.start..r.end + piece.start);
                prop_assert_eq!(cs.piece(piece, index, |c| c == d2), shifted);
            }
        }
    }

    #[test]
    fn char_len_ascii() {
        let s = CharStr::new("hello");
        assert_eq!(s.char_len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn char_len_empty() {
        let s = CharStr::new("");
        assert_eq!(s.char_len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.slice(0, 0), Some(""));
        assert_eq!(s.slice(0, 1), None);
    }

    #[test]
    fn char_len_unicode() {
        let s = CharStr::new("naïve café");
        assert_eq!(s.char_len(), 10);
        assert_eq!(s.slice(2, 3), Some("ï"));
        assert_eq!(s.slice(0, 10), Some("naïve café"));
    }

    #[test]
    fn slice_bounds() {
        let s = CharStr::new("abcdef");
        assert_eq!(s.slice(0, 6), Some("abcdef"));
        assert_eq!(s.slice(2, 4), Some("cd"));
        assert_eq!(s.slice(4, 2), None);
        assert_eq!(s.slice(0, 7), None);
        assert_eq!(s.slice(6, 6), Some(""));
    }

    #[test]
    fn char_at() {
        let s = CharStr::new("a€c");
        assert_eq!(s.char_at(0), Some('a'));
        assert_eq!(s.char_at(1), Some('€'));
        assert_eq!(s.char_at(2), Some('c'));
        assert_eq!(s.char_at(3), None);
    }

    #[test]
    fn split_ranges_basic() {
        let s = CharStr::new("a,b,,c");
        let ranges = s.split_ranges(',');
        let pieces: Vec<&str> = ranges
            .iter()
            .map(|r| s.slice_range(r.clone()).unwrap())
            .collect();
        assert_eq!(pieces, vec!["a", "b", "", "c"]);
    }

    #[test]
    fn split_ranges_no_delim() {
        let s = CharStr::new("abc");
        let ranges = s.split_ranges(',');
        assert_eq!(ranges, vec![0..3]);
    }

    #[test]
    fn split_ranges_leading_trailing() {
        let s = CharStr::new(",abc,");
        let pieces: Vec<&str> = s
            .split_ranges(',')
            .into_iter()
            .map(|r| s.slice_range(r).unwrap())
            .collect();
        assert_eq!(pieces, vec!["", "abc", ""]);
    }

    #[test]
    fn split_ranges_two_delims() {
        let s = CharStr::new("a-b c-d");
        let pieces: Vec<&str> = s
            .split_ranges2('-', ' ')
            .into_iter()
            .map(|r| s.slice_range(r).unwrap())
            .collect();
        assert_eq!(pieces, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn find_all_non_overlapping() {
        let s = CharStr::new("abcabcabc");
        assert_eq!(s.find_all("abc"), vec![0, 3, 6]);
        assert_eq!(s.find_all("zzz"), Vec::<usize>::new());
    }

    #[test]
    fn find_all_overlapping() {
        let s = CharStr::new("aaaa");
        assert_eq!(s.find_all("aa"), vec![0, 1, 2]);
    }

    #[test]
    fn find_all_empty_needle() {
        let s = CharStr::new("abc");
        assert_eq!(s.find_all(""), Vec::<usize>::new());
    }

    #[test]
    fn find_all_unicode() {
        let s = CharStr::new("héllo héllo");
        assert_eq!(s.find_all("héllo"), vec![0, 6]);
    }

    #[test]
    fn display_and_as_ref() {
        let s = CharStr::new("xyz");
        assert_eq!(s.to_string(), "xyz");
        assert_eq!(s.as_ref(), "xyz");
        assert_eq!(s.as_str(), "xyz");
    }

    #[test]
    fn from_impls() {
        let a: CharStr = "abc".into();
        let b: CharStr = String::from("abc").into();
        assert_eq!(a, b);
    }
}
