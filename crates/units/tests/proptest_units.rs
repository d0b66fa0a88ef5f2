//! Property-based tests for the transformation-unit language.
//!
//! These check structural invariants promised by the crate documentation:
//! units only ever *copy* text (non-literal outputs are substrings of the
//! input), application is deterministic, `CharStr` slicing agrees with a
//! naive char-vector implementation, unit outputs borrow exactly what the
//! split-then-slice oracle picks, and Lemma 1's subsumption argument holds
//! on randomly generated inputs.

use proptest::prelude::*;
use std::ops::Range;
use tjoin_units::{CharStr, Transformation, Unit};

/// Strategy for short, mostly-ASCII strings with realistic delimiters.
fn input_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9,;.@ _-]{0,40}").unwrap()
}

/// Strategy for strings of a few letters, some multi-byte, and many
/// delimiters, so pieces are often empty, leading, trailing or repeated.
fn delimited_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[abé€,; ]{0,24}").unwrap()
}

fn any_unit(max_pos: usize) -> impl Strategy<Value = Unit> {
    let pos = 0..=max_pos;
    let delim = prop_oneof![
        Just(','),
        Just(';'),
        Just(' '),
        Just('-'),
        Just('.'),
        Just('@'),
        Just('€')
    ];
    prop_oneof![
        (pos.clone(), pos.clone()).prop_map(|(a, b)| Unit::substr(a.min(b), a.max(b))),
        (delim.clone(), 0usize..5).prop_map(|(d, i)| Unit::split(d, i)),
        (delim.clone(), 0usize..5, pos.clone(), pos.clone())
            .prop_map(|(d, i, a, b)| Unit::split_substr(d, i, a.min(b), a.max(b))),
        (delim.clone(), delim.clone(), 0usize..5, pos.clone(), pos.clone())
            .prop_map(|(d1, d2, i, a, b)| Unit::two_char_split_substr(d1, d2, i, a.min(b), a.max(b))),
        (delim.clone(), 0usize..5, delim.clone(), 0usize..5, pos.clone(), pos.clone()).prop_map(
            |(d1, i1, d2, i2, a, b)| Unit::split_split_substr(d1, i1, d2, i2, a.min(b), a.max(b))
        ),
        "[a-z@. ]{0,6}".prop_map(Unit::literal),
    ]
}

/// The unit's output on a plain `&str`, owned.
fn apply(unit: &Unit, input: &str) -> Option<String> {
    unit.output_on(&CharStr::new(input)).map(str::to_owned)
}

/// The output as the units computed it before they borrowed: split the
/// whole input into every piece, pick one, then slice within it.
fn split_then_slice<'a>(unit: &'a Unit, input: &'a CharStr) -> Option<&'a str> {
    let within = |piece: Range<usize>, start: u16, end: u16| {
        let (start, end) = (usize::from(start), usize::from(end));
        if start > end || end > piece.len() {
            return None;
        }
        input.slice(piece.start + start, piece.start + end)
    };
    match unit {
        Unit::Substr { start, end } => input.slice(usize::from(*start), usize::from(*end)),
        Unit::Split { delim, index } => {
            input.slice_range(input.split_ranges(*delim).get(usize::from(*index))?.clone())
        }
        Unit::SplitSubstr { delim, index, start, end } => {
            within(input.split_ranges(*delim).get(usize::from(*index))?.clone(), *start, *end)
        }
        Unit::TwoCharSplitSubstr { delim1, delim2, index, start, end } => within(
            input.split_ranges2(*delim1, *delim2).get(usize::from(*index))?.clone(),
            *start,
            *end,
        ),
        Unit::SplitSplitSubstr { delim1, index1, delim2, index2, start, end } => {
            let outer = input.split_ranges(*delim1).get(usize::from(*index1))?.clone();
            let mut inner = Vec::new();
            let mut piece_start = outer.start;
            for i in outer.clone() {
                if input.char_at(i) == Some(*delim2) {
                    inner.push(piece_start..i);
                    piece_start = i + 1;
                }
            }
            inner.push(piece_start..outer.end);
            within(inner.get(usize::from(*index2))?.clone(), *start, *end)
        }
        Unit::Literal { text } => Some(text),
    }
}

proptest! {
    /// Non-literal unit outputs are always contiguous substrings of the input.
    #[test]
    fn non_literal_output_is_substring_of_input(s in input_string(), u in any_unit(40)) {
        if let Some(out) = apply(&u, &s) {
            if !u.is_constant() {
                prop_assert!(s.contains(&out), "output {:?} not a substring of {:?} for {}", out, s, u);
            }
        }
    }

    /// Application is deterministic.
    #[test]
    fn application_is_deterministic(s in input_string(), u in any_unit(40)) {
        prop_assert_eq!(apply(&u, &s), apply(&u, &s));
    }

    /// `CharStr::slice` agrees with a naive `Vec<char>` implementation.
    #[test]
    fn charstr_slice_agrees_with_naive(s in "\\PC{0,30}", a in 0usize..35, b in 0usize..35) {
        let cs = CharStr::new(s.clone());
        let chars: Vec<char> = s.chars().collect();
        let (lo, hi) = (a.min(b), a.max(b));
        let expected = if hi <= chars.len() {
            Some(chars[lo..hi].iter().collect::<String>())
        } else {
            None
        };
        prop_assert_eq!(cs.slice(lo, hi).map(str::to_owned), expected);
    }

    /// `CharStr::find_all` finds exactly the positions where the needle occurs.
    #[test]
    fn find_all_positions_are_correct(s in "[ab]{0,20}", n in "[ab]{1,3}") {
        let cs = CharStr::new(s.clone());
        let chars: Vec<char> = s.chars().collect();
        let needle: Vec<char> = n.chars().collect();
        let mut expected = Vec::new();
        if needle.len() <= chars.len() {
            for i in 0..=(chars.len() - needle.len()) {
                if chars[i..i + needle.len()] == needle[..] {
                    expected.push(i);
                }
            }
        }
        prop_assert_eq!(cs.find_all(&n), expected);
    }

    /// A transformation's output is the concatenation of its units' outputs.
    #[test]
    fn transformation_is_concatenation(s in input_string(), us in prop::collection::vec(any_unit(40), 1..4)) {
        let t = Transformation::new(us.clone());
        let piecewise: Option<String> = us
            .iter()
            .map(|u| apply(u, &s))
            .collect::<Option<Vec<_>>>()
            .map(|v| v.concat());
        prop_assert_eq!(t.apply(&s), piecewise);
    }

    /// Every kind's output is the very slice the split-then-slice oracle
    /// picks, on inputs with multi-byte characters, runs of delimiters and
    /// piece indexes past the last piece.
    #[test]
    fn output_on_is_the_split_then_slice_slice(
        s in delimited_string(),
        u in any_unit(12),
        d1 in prop_oneof![Just(','), Just(' '), Just('€')],
        d2 in prop_oneof![Just(';'), Just(' '), Just('é')],
        i1 in 0usize..8,
        i2 in 0usize..8,
        a in 0usize..8,
        b in 0usize..8,
    ) {
        let cs = CharStr::new(s);
        let (lo, hi) = (a.min(b), a.max(b));
        let units = [
            u,
            Unit::split(d1, i1),
            Unit::split_substr(d1, i1, lo, hi),
            Unit::two_char_split_substr(d1, d2, i1, lo, hi),
            Unit::split_split_substr(d1, i1, d2, i2, lo, hi),
            Unit::split_split_substr(d1, i1, d2, i2, 0, hi),
        ];
        for unit in &units {
            let (new, old) = (unit.output_on(&cs), split_then_slice(unit, &cs));
            prop_assert_eq!(new, old, "{} on {:?}", unit, cs.as_str());
            prop_assert_eq!(new.map(str::as_ptr), old.map(str::as_ptr), "{}", unit);
        }
    }

    /// A literal's output is its own text, not a copy of it.
    #[test]
    fn literal_output_is_its_own_text(s in input_string(), text in "[a-z€ ]{0,6}") {
        let unit = Unit::literal(text);
        let Unit::Literal { text } = &unit else { unreachable!() };
        prop_assert_eq!(unit.output_on(&CharStr::new(s)).map(str::as_ptr), Some(text.as_ptr()));
    }

    /// Lemma 1 (spot-check): every SplitSplitSubstr output on a random input is
    /// reproducible by some unit from {Substr, SplitSubstr, TwoCharSplitSubstr}.
    #[test]
    fn lemma1_splitsplitsubstr_is_subsumed(
        s in "[a-c,;]{1,20}",
        i1 in 0usize..3,
        i2 in 0usize..3,
        a in 0usize..6,
        b in 0usize..6,
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        let u = Unit::split_split_substr(',', i1, ';', i2, lo, hi);
        if let Some(expected) = apply(&u, &s) {
            let cs = CharStr::new(s.clone());
            let len = cs.char_len();
            let mut found = false;
            'outer: for st in 0..=len {
                for en in st..=len {
                    if apply(&Unit::substr(st, en), &s).as_deref() == Some(expected.as_str()) {
                        found = true;
                        break 'outer;
                    }
                }
            }
            if !found {
                // Try split-based reproductions with either delimiter and both orders.
                'outer2: for d in [',', ';'] {
                    for idx in 0..=len {
                        for st in 0..=len {
                            for en in st..=len {
                                if apply(&Unit::split_substr(d, idx, st, en), &s).as_deref()
                                    == Some(expected.as_str())
                                {
                                    found = true;
                                    break 'outer2;
                                }
                            }
                        }
                    }
                }
            }
            if !found {
                'outer3: for idx in 0..=len {
                    for st in 0..=len {
                        for en in st..=len {
                            if apply(&Unit::two_char_split_substr(',', ';', idx, st, en), &s)
                                .as_deref()
                                == Some(expected.as_str())
                            {
                                found = true;
                                break 'outer3;
                            }
                        }
                    }
                }
            }
            prop_assert!(found, "output {:?} of {} on {:?} not reproducible", expected, u, s);
        }
    }
}
