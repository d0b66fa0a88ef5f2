//! Candidate unit extraction (Section 4.1.4 of the paper).
//!
//! Given a placeholder (its text, and where that text occurs in the source),
//! this module produces every transformation unit that emits the placeholder
//! text from the source. Because the expected output *and* its source
//! occurrences are known, the parameter search is direct rather than a blind
//! sweep over the whole parameter space — this is the paper's key argument
//! for why the per-placeholder parameter space is effectively O(1).

use crate::config::SynthesisConfig;
use crate::placeholder::Placeholder;
use tjoin_text::FxHashSet;
use tjoin_units::{CharStr, Unit, UnitId, UnitKind, UnitPool};

/// Candidate units that replace `placeholder`, i.e. that produce exactly the
/// placeholder text when applied to `source`, interned into `pool`.
///
/// The unit kinds considered are controlled by the configuration; a
/// `Literal` of the placeholder text is always included (Section 4.1.4,
/// point 5: "each placeholder may also be replaced with a literal ... useful
/// in cases where a constant in the target text occurs in the source by
/// chance"). The list is deduplicated (by interned id — no unit cloning or
/// re-hashing) and capped at `config.max_units_per_placeholder`.
///
/// Units address the first 65,535 characters and pieces of a source (their
/// parameters are `u16`): a candidate whose position or piece index lies
/// beyond is not generated.
pub fn candidate_unit_ids(
    placeholder: &Placeholder,
    source: &CharStr,
    config: &SynthesisConfig,
    pool: &mut UnitPool,
) -> Vec<UnitId> {
    let text = placeholder.text.as_str();
    let len = placeholder.char_len();
    let fits = |param: usize| u16::try_from(param).is_ok();
    let mut seen: FxHashSet<UnitId> = FxHashSet::default();
    let mut out: Vec<UnitId> = Vec::new();
    let mut push = |u: Unit, pool: &mut UnitPool, out: &mut Vec<UnitId>| {
        if out.len() < config.max_units_per_placeholder {
            let id = pool.intern(u);
            if seen.insert(id) {
                out.push(id);
            }
        }
    };

    // (1) Substr(s, e) for each source occurrence.
    if config.kind_enabled(UnitKind::Substr) {
        for &s in placeholder.source_positions.iter().filter(|&&s| fits(s + len)) {
            push(Unit::substr(s, s + len), pool, &mut out);
        }
    }

    // (2) Split(c, i): c is the character immediately before or after an
    // occurrence, c must not occur inside the placeholder text, and i is the
    // index of a split piece equal to the text.
    if config.kind_enabled(UnitKind::Split) {
        let mut delims: FxHashSet<char> = FxHashSet::default();
        for &s in &placeholder.source_positions {
            if s > 0 {
                if let Some(c) = source.char_at(s - 1) {
                    delims.insert(c);
                }
            }
            if let Some(c) = source.char_at(s + len) {
                delims.insert(c);
            }
        }
        for c in delims {
            if text.contains(c) {
                continue;
            }
            for (i, range) in source.split_ranges(c).into_iter().enumerate() {
                if fits(i) && source.slice_range(range) == Some(text) {
                    push(Unit::split(c, i), pool, &mut out);
                }
            }
        }
    }

    // (3) SplitSubstr(c, i, s, e): c is a source character not occurring in
    // the placeholder text; the occurrence then lies inside a single piece of
    // the split, at a known offset. Candidate delimiters are evidence-guided:
    // characters adjacent to an occurrence of the placeholder plus any
    // separator character of the source (the paper allows *any* source
    // character; restricting to evidence-adjacent and separator characters
    // keeps the per-placeholder candidate pool O(1) without losing the
    // delimiters that generalize).
    if config.kind_enabled(UnitKind::SplitSubstr) {
        let mut distinct_chars: FxHashSet<char> = source
            .chars()
            .filter(|c| tjoin_text::is_separator_char(*c))
            .collect();
        for &s in &placeholder.source_positions {
            if s > 0 {
                if let Some(c) = source.char_at(s - 1) {
                    distinct_chars.insert(c);
                }
            }
            if let Some(c) = source.char_at(s + len) {
                distinct_chars.insert(c);
            }
        }
        for &c in distinct_chars.iter().filter(|c| !text.contains(**c)) {
            let ranges = source.split_ranges(c);
            for &occ in &placeholder.source_positions {
                if let Some((i, piece)) = ranges
                    .iter()
                    .enumerate()
                    .find(|(_, r)| r.start <= occ && occ + len <= r.end)
                {
                    let offset = occ - piece.start;
                    if fits(i) && fits(offset + len) {
                        push(Unit::split_substr(c, i, offset, offset + len), pool, &mut out);
                    }
                }
            }
        }
    }

    // (4) TwoCharSplitSubstr(c1, c2, i, s, e): as (3) but with a pair of
    // delimiters. Delimiter pairs are drawn from the separator characters of
    // the source to keep the candidate count small (the paper excludes this
    // unit from its experiments for runtime reasons; it is available here but
    // disabled in the default configuration).
    if config.kind_enabled(UnitKind::TwoCharSplitSubstr) {
        let separators: Vec<char> = {
            let distinct: FxHashSet<char> = source
                .chars()
                .filter(|c| tjoin_text::is_separator_char(*c) && !text.contains(*c))
                .collect();
            let mut v: Vec<char> = distinct.into_iter().collect();
            v.sort_unstable();
            v
        };
        for (a_idx, &c1) in separators.iter().enumerate() {
            for &c2 in separators.iter().skip(a_idx + 1) {
                let ranges = source.split_ranges2(c1, c2);
                for &occ in &placeholder.source_positions {
                    if let Some((i, piece)) = ranges
                        .iter()
                        .enumerate()
                        .find(|(_, r)| r.start <= occ && occ + len <= r.end)
                    {
                        let offset = occ - piece.start;
                        if fits(i) && fits(offset + len) {
                            push(
                                Unit::two_char_split_substr(c1, c2, i, offset, offset + len),
                                pool,
                                &mut out,
                            );
                        }
                    }
                }
            }
        }
    }

    // (5) Literal(text).
    push(Unit::literal(text), pool, &mut out);

    debug_assert!(
        out.iter().all(|&id| pool
            .get(id)
            .output_on(source)
            .map(|o| o == placeholder.text)
            .unwrap_or(false)),
        "every candidate unit must emit the placeholder text"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placeholder::maximal_placeholders;

    /// The candidate units of `placeholder`, resolved to owned values.
    fn candidate_units(
        placeholder: &Placeholder,
        source: &CharStr,
        config: &SynthesisConfig,
    ) -> Vec<Unit> {
        let mut pool = UnitPool::new();
        candidate_unit_ids(placeholder, source, config, &mut pool)
            .into_iter()
            .map(|id| pool.get(id).clone())
            .collect()
    }

    fn placeholder_for(source: &str, target: &str, text: &str) -> (CharStr, Placeholder) {
        let src = CharStr::new(source);
        let p = maximal_placeholders(&src, target)
            .into_iter()
            .find(|p| p.text == text)
            .unwrap_or_else(|| panic!("placeholder {text:?} not found"));
        (src, p)
    }

    #[test]
    fn all_candidates_emit_the_placeholder_text() {
        let config = SynthesisConfig::default();
        let (src, p) = placeholder_for("bowling, michael", "michael.bowling@x.ca", "michael");
        let units = candidate_units(&p, &src, &config);
        assert!(!units.is_empty());
        for u in &units {
            assert_eq!(u.output_on(&src), Some("michael"), "unit {u}");
        }
    }

    #[test]
    fn units_past_the_65535th_character_are_not_generated() {
        // `Substr(70001, 70004)` would wrap to `Substr(4465, 4468)`, "aaa".
        let source = format!("{} xyz", "a".repeat(70_000));
        let (src, p) = placeholder_for(&source, "xyz", "xyz");
        let units = candidate_units(&p, &src, &SynthesisConfig::default());
        assert!(units.contains(&Unit::split(' ', 1)), "{units:?}");
        for u in &units {
            assert_eq!(u.output_on(&src), Some("xyz"), "unit {u}");
        }
    }

    #[test]
    fn substr_and_literal_always_present() {
        let config = SynthesisConfig::default();
        let (src, p) = placeholder_for("abcdef", "cde", "cde");
        let units = candidate_units(&p, &src, &config);
        assert!(units.contains(&Unit::substr(2, 5)));
        assert!(units.contains(&Unit::literal("cde")));
    }

    #[test]
    fn split_candidate_found_for_comma_separated_name() {
        let config = SynthesisConfig::default();
        // "gosgnach" is the piece before the comma.
        let (src, p) = placeholder_for("gosgnach, simon", "s gosgnach", "gosgnach");
        let units = candidate_units(&p, &src, &config);
        assert!(
            units.iter().any(|u| matches!(u, Unit::Split { delim: ',', index: 0 })),
            "expected Split(',', 0) among {units:?}"
        );
    }

    #[test]
    fn split_substr_candidate_extracts_initial() {
        let config = SynthesisConfig::default();
        // "s" = first char of the second space-separated piece.
        let (src, p) = placeholder_for("gosgnach, simon", "s gosgnach", "s");
        let units = candidate_units(&p, &src, &config);
        assert!(
            units
                .iter()
                .any(|u| matches!(u, Unit::SplitSubstr { delim: ' ', index: 1, start: 0, end: 1 })),
            "expected SplitSubstr(' ',1,0,1) among {units:?}"
        );
    }

    #[test]
    fn delimiters_inside_placeholder_text_rejected_for_split() {
        let config = SynthesisConfig::default();
        // Placeholder "a,b" contains the comma, so Split(',', _) may not be
        // produced for it.
        let src = CharStr::new("xx a,b yy");
        let p = Placeholder {
            target_start: 0,
            target_end: 3,
            text: "a,b".into(),
            source_positions: vec![3],
        };
        let units = candidate_units(&p, &src, &config);
        assert!(units
            .iter()
            .all(|u| !matches!(u, Unit::Split { delim: ',', .. })));
        // But a space-based SplitSubstr is fine.
        assert!(units
            .iter()
            .any(|u| matches!(u, Unit::SplitSubstr { delim: ' ', .. })));
    }

    #[test]
    fn two_char_split_substr_generated_when_enabled() {
        let mut config = SynthesisConfig::default();
        config.unit_kinds.push(UnitKind::TwoCharSplitSubstr);
        // "780" sits between '(' and ')'.
        let (src, p) = placeholder_for("(780) 433-6545", "780 433 6545", "780");
        let units = candidate_units(&p, &src, &config);
        assert!(
            units
                .iter()
                .any(|u| matches!(u, Unit::TwoCharSplitSubstr { .. })),
            "expected a TwoCharSplitSubstr among {units:?}"
        );
        for u in &units {
            assert_eq!(u.output_on(&src), Some("780"), "unit {u}");
        }
    }

    #[test]
    fn candidate_cap_respected() {
        let config = SynthesisConfig {
            max_units_per_placeholder: 3,
            ..SynthesisConfig::default()
        };
        let (src, p) = placeholder_for("aaaaaaaaaa", "aaa", "aaa");
        let units = candidate_units(&p, &src, &config);
        assert!(units.len() <= 3);
    }

    #[test]
    fn substr_disabled_when_not_in_kind_list() {
        let config = SynthesisConfig {
            unit_kinds: vec![UnitKind::Split],
            ..SynthesisConfig::default()
        };
        let (src, p) = placeholder_for("abc,def", "def", "def");
        let units = candidate_units(&p, &src, &config);
        assert!(units.iter().all(|u| u.kind() != UnitKind::Substr));
        assert!(units.iter().any(|u| u.kind() == UnitKind::Split));
        // Literal is always allowed.
        assert!(units.iter().any(|u| u.kind() == UnitKind::Literal));
    }
}
