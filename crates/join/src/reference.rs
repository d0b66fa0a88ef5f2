//! The retained serial equi-join oracle.
//!
//! This is the pre-fingerprint `JoinPipeline::equi_join` loop, kept
//! verbatim as the differential oracle for the fingerprint join in
//! [`crate::pipeline`]: the target column hashed by owned normalized
//! strings, a transformation-outer apply loop over all source rows, and a
//! global seen-set dedup in discovery order. The production join must
//! produce bit-identical, identically ordered predicted pairs;
//! `crates/join/tests/proptest_join.rs` holds it to that.

use std::collections::HashMap;
use tjoin_datasets::{row_id, ColumnPair};
use tjoin_text::{normalize_for_matching, NormalizeOptions};
use tjoin_units::Transformation;

/// Applies every transformation to every source row and hash-joins the
/// transformed values against the (normalized) target column, keyed by
/// owned strings (the retained oracle). A source row matching several
/// target rows yields all pairs (many-to-many, as the paper assumes when
/// the relationship is unspecified).
pub fn equi_join_reference<'a, I>(
    pair: &ColumnPair,
    transformations: I,
    normalize: &NormalizeOptions,
) -> Vec<(u32, u32)>
where
    I: IntoIterator<Item = &'a Transformation>,
{
    pair.assert_row_indexable();
    // Hash the target column on normalized values.
    let mut target_index: HashMap<String, Vec<u32>> = HashMap::new();
    for (row, value) in pair.target.iter().enumerate() {
        target_index
            .entry(normalize_for_matching(value, normalize))
            .or_default()
            .push(row_id(row));
    }

    let sources_normalized: Vec<String> = pair
        .source
        .iter()
        .map(|v| normalize_for_matching(v, normalize))
        .collect();

    let mut predicted: Vec<(u32, u32)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for transformation in transformations {
        for (src_row, src_value) in sources_normalized.iter().enumerate() {
            let Some(out) = transformation.apply(src_value) else {
                continue;
            };
            if let Some(targets) = target_index.get(&out) {
                for &tgt_row in targets {
                    if seen.insert((row_id(src_row), tgt_row)) {
                        predicted.push((row_id(src_row), tgt_row));
                    }
                }
            }
        }
    }
    predicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_units::Unit;

    #[test]
    fn oracle_joins_the_paper_example() {
        let pair = ColumnPair::aligned(
            "staff",
            vec!["Rafiei, Davood".into(), "Bowling, Michael".into()],
            vec!["D Rafiei".into(), "M Bowling".into()],
        );
        let t = Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ]);
        let predicted = equi_join_reference(&pair, [&t], &NormalizeOptions::default());
        assert_eq!(predicted, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn oracle_dedups_across_transformations() {
        let pair = ColumnPair::aligned("x", vec!["ab".into()], vec!["ab".into()]);
        let t1 = Transformation::new(vec![Unit::substr(0, 2)]);
        let t2 = Transformation::new(vec![Unit::split(',', 0)]);
        let predicted = equi_join_reference(&pair, [&t1, &t2], &NormalizeOptions::default());
        assert_eq!(predicted, vec![(0, 0)]);
    }
}
