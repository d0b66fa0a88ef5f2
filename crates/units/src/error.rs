//! Error types for the transformation-unit language.

use std::fmt;

/// Reasons a unit (or transformation) can fail to apply to an input string.
///
/// Failure to apply is a normal, expected outcome during synthesis — the
/// engine generates candidates from one row and probes them against others —
/// so the hot-path API ([`crate::Unit::apply`]) returns `Option` rather
/// than `Result`. `UnitError` exists for the diagnostic API
/// ([`crate::Unit::try_apply_to`]) used by examples, tests, and the
/// explain-style tooling where *why* a unit failed matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitError {
    /// A `Substr` range exceeded the input (or selected piece) length, or was
    /// reversed.
    RangeOutOfBounds {
        /// Requested start position (character index).
        start: usize,
        /// Requested end position (exclusive character index).
        end: usize,
        /// Actual character length of the string being sliced.
        len: usize,
    },
    /// A split-based unit requested a piece index past the number of pieces.
    PieceOutOfBounds {
        /// Requested piece index (0-based).
        index: usize,
        /// Number of pieces produced by the split.
        pieces: usize,
    },
    /// A split-based unit was applied to an input that does not contain the
    /// delimiter at all, in strict mode (the permissive mode treats the whole
    /// input as the single piece, mirroring `str::split`).
    DelimiterMissing {
        /// The delimiter that did not occur.
        delim: char,
    },
    /// The transformation is empty (contains no units).
    EmptyTransformation,
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::RangeOutOfBounds { start, end, len } => write!(
                f,
                "substring range [{start}, {end}) out of bounds for length {len}"
            ),
            UnitError::PieceOutOfBounds { index, pieces } => write!(
                f,
                "split piece index {index} out of bounds ({pieces} pieces)"
            ),
            UnitError::DelimiterMissing { delim } => {
                write!(f, "delimiter {delim:?} does not occur in the input")
            }
            UnitError::EmptyTransformation => write!(f, "transformation has no units"),
        }
    }
}

impl std::error::Error for UnitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = UnitError::RangeOutOfBounds {
            start: 2,
            end: 9,
            len: 5,
        };
        assert!(e.to_string().contains("[2, 9)"));
        let e = UnitError::PieceOutOfBounds { index: 3, pieces: 2 };
        assert!(e.to_string().contains("index 3"));
        let e = UnitError::DelimiterMissing { delim: ',' };
        assert!(e.to_string().contains("','"));
        assert!(UnitError::EmptyTransformation.to_string().contains("no units"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(UnitError::EmptyTransformation);
        assert!(!e.to_string().is_empty());
    }
}
