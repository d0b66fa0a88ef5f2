//! Transformation units (Definition 1 of the paper).

use crate::charstr::CharStr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a [`Unit`], without its parameters.
///
/// Useful for grouping statistics ("how many `Split` candidates were
/// generated?") and for the Auto-Join baseline, which enumerates units kind
/// by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnitKind {
    /// `Substr(start, end)`.
    Substr,
    /// `Split(delim, index)`.
    Split,
    /// `SplitSubstr(delim, index, start, end)`.
    SplitSubstr,
    /// `TwoCharSplitSubstr(d1, d2, index, start, end)`.
    TwoCharSplitSubstr,
    /// `SplitSplitSubstr(d1, i1, d2, i2, start, end)` — Auto-Join's unit.
    SplitSplitSubstr,
    /// `Literal(text)`.
    Literal,
}

impl UnitKind {
    /// All kinds in the order the paper lists them (Literal last).
    pub const ALL: [UnitKind; 6] = [
        UnitKind::Substr,
        UnitKind::Split,
        UnitKind::SplitSubstr,
        UnitKind::TwoCharSplitSubstr,
        UnitKind::SplitSplitSubstr,
        UnitKind::Literal,
    ];

    /// The unit kinds used by the paper's own experiments (Section 6.2
    /// excludes `TwoCharSplitSubstr` for runtime manageability and the paper's
    /// unit set never includes Auto-Join's `SplitSplitSubstr`).
    pub const PAPER_EXPERIMENT_SET: [UnitKind; 4] = [
        UnitKind::Substr,
        UnitKind::Split,
        UnitKind::SplitSubstr,
        UnitKind::Literal,
    ];

    /// Whether every parameterization of this kind produces the same output on
    /// every input (true only for `Literal`). Non-constant kinds are the ones
    /// that can witness a *placeholder* (Definition 4).
    pub fn is_constant(self) -> bool {
        matches!(self, UnitKind::Literal)
    }

    /// A short stable name.
    pub fn name(self) -> &'static str {
        match self {
            UnitKind::Substr => "Substr",
            UnitKind::Split => "Split",
            UnitKind::SplitSubstr => "SplitSubstr",
            UnitKind::TwoCharSplitSubstr => "TwoCharSplitSubstr",
            UnitKind::SplitSplitSubstr => "SplitSplitSubstr",
            UnitKind::Literal => "Literal",
        }
    }
}

impl fmt::Display for UnitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A transformation unit: a function from an input string to an output string
/// that either copies part of the input or emits a constant (Definition 1).
///
/// All positions are 0-based character indices; ranges are half-open.
/// Split semantics mirror [`str::split`]: `n` delimiter occurrences produce
/// `n + 1` pieces (possibly empty), and an input without the delimiter is a
/// single piece. A unit *fails* (returns `None`) when a requested piece or
/// character range does not exist; failing is normal during synthesis.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Unit {
    /// Copy the character range `[start, end)` of the input.
    Substr {
        /// Start character position (inclusive).
        start: u16,
        /// End character position (exclusive).
        end: u16,
    },
    /// Split the input on `delim` and copy the `index`-th piece.
    Split {
        /// Delimiter character.
        delim: char,
        /// 0-based piece index.
        index: u16,
    },
    /// Split the input on `delim`, take the `index`-th piece, then copy the
    /// character range `[start, end)` *of that piece*.
    SplitSubstr {
        /// Delimiter character.
        delim: char,
        /// 0-based piece index.
        index: u16,
        /// Start character position within the piece (inclusive).
        start: u16,
        /// End character position within the piece (exclusive).
        end: u16,
    },
    /// Split the input on *either* `delim1` or `delim2`, take the `index`-th
    /// piece, then copy the character range `[start, end)` of that piece.
    TwoCharSplitSubstr {
        /// First delimiter character.
        delim1: char,
        /// Second delimiter character.
        delim2: char,
        /// 0-based piece index.
        index: u16,
        /// Start character position within the piece (inclusive).
        start: u16,
        /// End character position within the piece (exclusive).
        end: u16,
    },
    /// Auto-Join's nested split: split on `delim1`, take piece `index1`,
    /// split that piece on `delim2`, take piece `index2`, then copy the
    /// character range `[start, end)` of that inner piece.
    SplitSplitSubstr {
        /// Outer delimiter character.
        delim1: char,
        /// Outer 0-based piece index.
        index1: u16,
        /// Inner delimiter character.
        delim2: char,
        /// Inner 0-based piece index.
        index2: u16,
        /// Start character position within the inner piece (inclusive).
        start: u16,
        /// End character position within the inner piece (exclusive).
        end: u16,
    },
    /// Emit `text`, ignoring the input.
    Literal {
        /// The constant text emitted.
        text: String,
    },
}

impl Unit {
    /// Convenience constructor for [`Unit::Substr`].
    pub fn substr(start: usize, end: usize) -> Self {
        Unit::Substr {
            start: start as u16,
            end: end as u16,
        }
    }

    /// Convenience constructor for [`Unit::Split`].
    pub fn split(delim: char, index: usize) -> Self {
        Unit::Split {
            delim,
            index: index as u16,
        }
    }

    /// Convenience constructor for [`Unit::SplitSubstr`].
    pub fn split_substr(delim: char, index: usize, start: usize, end: usize) -> Self {
        Unit::SplitSubstr {
            delim,
            index: index as u16,
            start: start as u16,
            end: end as u16,
        }
    }

    /// Convenience constructor for [`Unit::TwoCharSplitSubstr`].
    pub fn two_char_split_substr(
        delim1: char,
        delim2: char,
        index: usize,
        start: usize,
        end: usize,
    ) -> Self {
        Unit::TwoCharSplitSubstr {
            delim1,
            delim2,
            index: index as u16,
            start: start as u16,
            end: end as u16,
        }
    }

    /// Convenience constructor for [`Unit::SplitSplitSubstr`].
    pub fn split_split_substr(
        delim1: char,
        index1: usize,
        delim2: char,
        index2: usize,
        start: usize,
        end: usize,
    ) -> Self {
        Unit::SplitSplitSubstr {
            delim1,
            index1: index1 as u16,
            delim2,
            index2: index2 as u16,
            start: start as u16,
            end: end as u16,
        }
    }

    /// Convenience constructor for [`Unit::Literal`].
    pub fn literal(text: impl Into<String>) -> Self {
        Unit::Literal { text: text.into() }
    }

    /// The kind of this unit.
    pub fn kind(&self) -> UnitKind {
        match self {
            Unit::Substr { .. } => UnitKind::Substr,
            Unit::Split { .. } => UnitKind::Split,
            Unit::SplitSubstr { .. } => UnitKind::SplitSubstr,
            Unit::TwoCharSplitSubstr { .. } => UnitKind::TwoCharSplitSubstr,
            Unit::SplitSplitSubstr { .. } => UnitKind::SplitSplitSubstr,
            Unit::Literal { .. } => UnitKind::Literal,
        }
    }

    /// Whether the unit output is the same for every input.
    pub fn is_constant(&self) -> bool {
        self.kind().is_constant()
    }

    /// Applies the unit to an input and appends the output to `out`.
    ///
    /// Returns `false` (leaving `out` untouched) when the unit does not apply
    /// to this input. This is the hot-path entry point used by coverage
    /// checking; [`Self::apply`] wraps it.
    pub fn apply_into(&self, input: &CharStr, out: &mut String) -> bool {
        match self.output_on(input) {
            Some(s) => {
                out.push_str(&s);
                true
            }
            None => false,
        }
    }

    /// The output of the unit on `input`, or `None` when it does not apply.
    pub fn output_on(&self, input: &CharStr) -> Option<std::borrow::Cow<'_, str>> {
        use std::borrow::Cow;
        match self {
            Unit::Substr { start, end } => input
                .slice(*start as usize, *end as usize)
                .map(|s| Cow::Owned(s.to_owned())),
            Unit::Split { delim, index } => {
                let ranges = input.split_ranges(*delim);
                let r = ranges.get(*index as usize)?;
                input.slice_range(r.clone()).map(|s| Cow::Owned(s.to_owned()))
            }
            Unit::SplitSubstr {
                delim,
                index,
                start,
                end,
            } => {
                let ranges = input.split_ranges(*delim);
                let piece = ranges.get(*index as usize)?;
                slice_within(input, piece.clone(), *start as usize, *end as usize)
                    .map(|s| Cow::Owned(s.to_owned()))
            }
            Unit::TwoCharSplitSubstr {
                delim1,
                delim2,
                index,
                start,
                end,
            } => {
                let ranges = input.split_ranges2(*delim1, *delim2);
                let piece = ranges.get(*index as usize)?;
                slice_within(input, piece.clone(), *start as usize, *end as usize)
                    .map(|s| Cow::Owned(s.to_owned()))
            }
            Unit::SplitSplitSubstr {
                delim1,
                index1,
                delim2,
                index2,
                start,
                end,
            } => {
                let outer = input.split_ranges(*delim1);
                let piece = outer.get(*index1 as usize)?.clone();
                // Split the selected piece again on the inner delimiter.
                let inner = split_piece(input, piece, *delim2);
                let piece2 = inner.get(*index2 as usize)?.clone();
                slice_within(input, piece2, *start as usize, *end as usize)
                    .map(|s| Cow::Owned(s.to_owned()))
            }
            Unit::Literal { text } => Some(Cow::Borrowed(text.as_str())),
        }
    }

    /// Applies the unit to a plain `&str` (builds a temporary [`CharStr`]).
    pub fn apply(&self, input: &str) -> Option<String> {
        let cs = CharStr::new(input);
        self.output_on(&cs).map(|c| c.into_owned())
    }

    /// Exact output length in characters when it can be known without the
    /// input (only `Literal` and `Substr` expose this); used for cheap
    /// pre-filters in the synthesis engine.
    pub fn fixed_output_char_len(&self) -> Option<usize> {
        match self {
            Unit::Literal { text } => Some(text.chars().count()),
            Unit::Substr { start, end } => Some((*end as usize).saturating_sub(*start as usize)),
            Unit::SplitSubstr { start, end, .. }
            | Unit::TwoCharSplitSubstr { start, end, .. }
            | Unit::SplitSplitSubstr { start, end, .. } => {
                Some((*end as usize).saturating_sub(*start as usize))
            }
            Unit::Split { .. } => None,
        }
    }
}

/// Slices the character range `[start, end)` *relative to* `piece` (a
/// character range of `input`), returning `None` when it falls outside the
/// piece.
#[inline]
fn slice_within(
    input: &CharStr,
    piece: std::ops::Range<usize>,
    start: usize,
    end: usize,
) -> Option<&str> {
    let len = piece.end - piece.start;
    if start > end || end > len {
        return None;
    }
    input.slice(piece.start + start, piece.start + end)
}

/// Splits the character range `piece` of `input` on `delim`, returning
/// absolute character ranges.
fn split_piece(
    input: &CharStr,
    piece: std::ops::Range<usize>,
    delim: char,
) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = piece.start;
    for i in piece.clone() {
        if input.char_at(i) == Some(delim) {
            ranges.push(start..i);
            start = i + 1;
        }
    }
    ranges.push(start..piece.end);
    ranges
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unit::Substr { start, end } => write!(f, "Substr({start},{end})"),
            Unit::Split { delim, index } => write!(f, "Split({delim:?},{index})"),
            Unit::SplitSubstr {
                delim,
                index,
                start,
                end,
            } => write!(f, "SplitSubstr({delim:?},{index},{start},{end})"),
            Unit::TwoCharSplitSubstr {
                delim1,
                delim2,
                index,
                start,
                end,
            } => write!(
                f,
                "TwoCharSplitSubstr({delim1:?},{delim2:?},{index},{start},{end})"
            ),
            Unit::SplitSplitSubstr {
                delim1,
                index1,
                delim2,
                index2,
                start,
                end,
            } => write!(
                f,
                "SplitSplitSubstr({delim1:?},{index1},{delim2:?},{index2},{start},{end})"
            ),
            Unit::Literal { text } => write!(f, "Literal({text:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(s: &str) -> CharStr {
        CharStr::new(s)
    }

    #[test]
    fn substr_basic() {
        assert_eq!(Unit::substr(0, 3).apply("abcdef").as_deref(), Some("abc"));
        assert_eq!(Unit::substr(2, 6).apply("abcdef").as_deref(), Some("cdef"));
        assert_eq!(Unit::substr(0, 0).apply("abcdef").as_deref(), Some(""));
        assert_eq!(Unit::substr(0, 7).apply("abcdef"), None);
        assert_eq!(Unit::substr(4, 2).apply("abcdef"), None);
    }

    #[test]
    fn split_basic() {
        // paper example: Split(',', index of first piece) on "prus-czarnecki, andrzej"
        assert_eq!(
            Unit::split(',', 0).apply("prus-czarnecki, andrzej").as_deref(),
            Some("prus-czarnecki")
        );
        assert_eq!(
            Unit::split(',', 1).apply("prus-czarnecki, andrzej").as_deref(),
            Some(" andrzej")
        );
        assert_eq!(Unit::split(',', 2).apply("prus-czarnecki, andrzej"), None);
    }

    #[test]
    fn split_missing_delimiter_is_single_piece() {
        assert_eq!(Unit::split(',', 0).apply("abc").as_deref(), Some("abc"));
        assert_eq!(Unit::split(',', 1).apply("abc"), None);
    }

    #[test]
    fn split_substr_paper_example() {
        // SplitSubstr(' ', 2nd piece, 0, 1) extracts the first initial of the
        // first name in "gosgnach, simon" -> "s".
        assert_eq!(
            Unit::split_substr(' ', 1, 0, 1).apply("gosgnach, simon").as_deref(),
            Some("s")
        );
    }

    #[test]
    fn split_substr_out_of_piece() {
        assert_eq!(Unit::split_substr(' ', 1, 0, 20).apply("a bc"), None);
        assert_eq!(Unit::split_substr(' ', 5, 0, 1).apply("a bc"), None);
    }

    #[test]
    fn two_char_split_substr() {
        let u = Unit::two_char_split_substr('-', ' ', 1, 0, 4);
        assert_eq!(u.apply("10230 - 124 STREET"), None); // piece 1 is "" (between ' ' and '-')
        let u = Unit::two_char_split_substr('(', ')', 1, 0, 3);
        assert_eq!(u.apply("(780) 433-6545").as_deref(), Some("780"));
    }

    #[test]
    fn split_split_substr_autojoin_unit() {
        // "john.smith@ualberta.ca": split on '@' -> piece 0 "john.smith",
        // split that on '.' -> piece 1 "smith", substr(0,5).
        let u = Unit::split_split_substr('@', 0, '.', 1, 0, 5);
        assert_eq!(u.apply("john.smith@ualberta.ca").as_deref(), Some("smith"));
    }

    #[test]
    fn literal_ignores_input() {
        let u = Unit::literal("@ualberta.ca");
        assert_eq!(u.apply("anything").as_deref(), Some("@ualberta.ca"));
        assert_eq!(u.apply("").as_deref(), Some("@ualberta.ca"));
        assert!(u.is_constant());
    }

    #[test]
    fn kind_and_constness() {
        assert_eq!(Unit::substr(0, 1).kind(), UnitKind::Substr);
        assert!(!UnitKind::Split.is_constant());
        assert!(UnitKind::Literal.is_constant());
    }

    #[test]
    fn apply_into_appends_or_leaves_untouched() {
        let mut out = String::from("x");
        assert!(Unit::substr(0, 2).apply_into(&cs("abc"), &mut out));
        assert_eq!(out, "xab");
        assert!(!Unit::substr(0, 9).apply_into(&cs("abc"), &mut out));
        assert_eq!(out, "xab");
    }

    #[test]
    fn fixed_output_len() {
        assert_eq!(Unit::literal("abc").fixed_output_char_len(), Some(3));
        assert_eq!(Unit::substr(2, 5).fixed_output_char_len(), Some(3));
        assert_eq!(Unit::split(',', 0).fixed_output_char_len(), None);
        assert_eq!(
            Unit::split_substr(',', 0, 1, 4).fixed_output_char_len(),
            Some(3)
        );
    }

    #[test]
    fn display_round_readable() {
        assert_eq!(Unit::substr(0, 3).to_string(), "Substr(0,3)");
        assert_eq!(Unit::split(',', 1).to_string(), "Split(',',1)");
        assert_eq!(
            Unit::split_substr(' ', 1, 0, 1).to_string(),
            "SplitSubstr(' ',1,0,1)"
        );
        assert_eq!(Unit::literal("a b").to_string(), "Literal(\"a b\")");
    }

    #[test]
    fn unicode_inputs() {
        assert_eq!(Unit::substr(0, 4).apply("café au lait").as_deref(), Some("café"));
        assert_eq!(
            Unit::split(' ', 1).apply("café au lait").as_deref(),
            Some("au")
        );
    }

    #[test]
    fn serde_round_trip_via_display_eq() {
        // serde derives exist for persistence of discovered transformations;
        // check a unit survives a JSON-like round trip through serde_test-free
        // means: use serde's in-memory representation via bincode-free check.
        // (We only assert the derive compiles and Clone/Eq behave.)
        let u = Unit::two_char_split_substr('(', ')', 1, 0, 3);
        let v = u.clone();
        assert_eq!(u, v);
    }

    #[test]
    fn lemma1_case_between_delims() {
        // SplitSplitSubstr selecting text between c1 and c2 is expressible
        // with TwoCharSplitSubstr (Lemma 1 case 3).
        let input = "aaa,bbb;ccc";
        let ssub = Unit::split_split_substr(',', 1, ';', 0, 0, 3); // "bbb"
        let two = Unit::two_char_split_substr(',', ';', 1, 0, 3); // "bbb"
        assert_eq!(ssub.apply(input), two.apply(input));
        assert_eq!(ssub.apply(input).as_deref(), Some("bbb"));
    }

    #[test]
    fn lemma1_case_no_delim_is_substr() {
        // Neither delimiter occurs: SplitSplitSubstr == Substr (Lemma 1 case 1).
        let input = "abcdef";
        let ssub = Unit::split_split_substr(',', 0, ';', 0, 1, 4);
        assert_eq!(ssub.apply(input), Unit::substr(1, 4).apply(input));
    }
}
