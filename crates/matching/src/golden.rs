//! Golden (oracle) row matching.
//!
//! The paper evaluates transformation discovery both on pairs found by its
//! n-gram matcher and on ground-truth pairs ("golden row matching"); the
//! latter isolates synthesis quality from row-matching noise.

use tjoin_datasets::ColumnPair;

/// Returns the ground-truth joinable pairs of a column pair as
/// `(source_row, target_row)` indices — simply the golden mapping carried by
/// the dataset, validated against the column lengths.
pub fn golden_pairs(pair: &ColumnPair) -> Vec<(u32, u32)> {
    pair.golden
        .iter()
        .copied()
        .filter(|&(s, t)| (s as usize) < pair.source.len() && (t as usize) < pair.target.len())
        .collect()
}

/// [`golden_pairs`] as borrowed (source value, target value) cells, through
/// `ColumnPair::row_values`. Kept only because the benchmark harness names
/// it.
pub fn golden_value_pairs(pair: &ColumnPair) -> Vec<(&str, &str)> {
    pair.row_values(&golden_pairs(pair))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> ColumnPair {
        ColumnPair {
            name: "t".into(),
            source: vec!["a".into(), "b".into()],
            target: vec!["A".into(), "B".into()],
            golden: vec![(0, 0), (1, 1), (7, 9)], // last one is out of range
        }
    }

    #[test]
    fn out_of_range_golden_entries_dropped() {
        assert_eq!(golden_pairs(&pair()), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn value_pairs_materialized() {
        assert_eq!(
            golden_value_pairs(&pair()),
            vec![("a", "A"), ("b", "B")]
        );
    }

    #[test]
    fn empty_golden() {
        let p = ColumnPair {
            golden: vec![],
            ..pair()
        };
        assert!(golden_pairs(&p).is_empty());
        assert!(golden_value_pairs(&p).is_empty());
    }
}
