//! # tjoin-units
//!
//! The transformation-unit language of *"Efficiently Transforming Tables for
//! Joinability"* (Nobari & Rafiei, ICDE 2022).
//!
//! A [`Unit`] is a small string function that copies either a part of its
//! input or a constant literal to the output (Definition 1 in the paper). A
//! [`Transformation`] is a sequence of units whose outputs are concatenated
//! (Definition 2). Two differently formatted columns become equi-joinable
//! when a (set of) transformation(s) maps the values of one column onto the
//! values of the other.
//!
//! The unit inventory follows Section 2 of the paper:
//!
//! * [`Unit::Substr`] — copy the character range `[start, end)` of the input.
//! * [`Unit::Split`] — split the input on a delimiter and copy the `index`-th
//!   piece.
//! * [`Unit::SplitSubstr`] — split, take the `index`-th piece, then take a
//!   character range of that piece.
//! * [`Unit::TwoCharSplitSubstr`] — split on *either* of two delimiters, take
//!   the `index`-th piece, then take a character range of that piece.
//! * [`Unit::SplitSplitSubstr`] — Auto-Join's nested split (split, take a
//!   piece, split that piece again, take a piece, then a character range).
//!   Included so the Auto-Join baseline can be expressed exactly and so that
//!   Lemma 1 (the first four units subsume this one) can be tested.
//! * [`Unit::Literal`] — emit a constant string, ignoring the input.
//!
//! All positions and indexes in this crate are **0-based** and character
//! (not byte) oriented; ranges are half-open (`end` is exclusive). The paper
//! prints split indexes 1-based — the [`std::fmt::Display`] impls keep the
//! 0-based convention and document it so programmatic output is unambiguous.
//!
//! ```
//! use tjoin_units::{Unit, Transformation};
//!
//! // "bowling, michael" -> "michael.bowling@ualberta.ca"
//! let t = Transformation::new(vec![
//!     Unit::split_substr(' ', 1, 0, 7),    // "michael"
//!     Unit::literal("."),
//!     Unit::split_substr(',', 0, 0, 7),    // "bowling"
//!     Unit::literal("@ualberta.ca"),
//! ]);
//! assert_eq!(
//!     t.apply("bowling, michael").as_deref(),
//!     Some("michael.bowling@ualberta.ca")
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::cast_possible_truncation)]

pub mod charstr;
pub mod pool;
pub mod transformation;
pub mod unit;

pub use charstr::CharStr;
pub use pool::{IdTransformation, UnitId, UnitPool};
pub use transformation::{
    min_rows_for_support, CoveredTransformation, Transformation, TransformationSet,
};
pub use unit::{Unit, UnitKind};
