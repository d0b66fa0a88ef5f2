//! Transformations: sequences of units (Definition 2) and sets of
//! transformations (Definition 3).

use crate::charstr::CharStr;
use crate::unit::Unit;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::fmt;

/// A transformation is a sequence of [`Unit`]s; applying it to an input
/// concatenates the units' outputs (Definition 2 of the paper).
///
/// The transformation *covers* a source/target pair when its output on the
/// source equals the target exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transformation {
    units: Vec<Unit>,
}

impl Transformation {
    /// Builds a transformation from a sequence of units.
    pub fn new(units: Vec<Unit>) -> Self {
        Self { units }
    }

    /// The units of the transformation, in application order.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the transformation has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The transformation length measured as the paper does for the
    /// minimality criterion: the number of *non-constant* units
    /// (placeholders) it contains.
    pub fn placeholder_count(&self) -> usize {
        self.units.iter().filter(|u| !u.is_constant()).count()
    }

    /// Number of literal units.
    pub fn literal_count(&self) -> usize {
        self.units.iter().filter(|u| u.is_constant()).count()
    }

    /// Whether every unit is a literal (such a transformation covers at most
    /// target values identical to its concatenated literals and is usually
    /// undesirable).
    pub fn is_all_literal(&self) -> bool {
        !self.units.is_empty() && self.units.iter().all(Unit::is_constant)
    }

    /// Applies the transformation to `input`: the concatenated unit outputs,
    /// or `None` when any unit fails or there are no units.
    pub fn apply(&self, input: &str) -> Option<String> {
        if self.units.is_empty() {
            return None;
        }
        let input = CharStr::new(input);
        let mut out = String::new();
        for unit in &self.units {
            out.push_str(unit.output_on(&input)?);
        }
        Some(out)
    }
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_units(f, &self.units)
    }
}

/// Writes `units` the way a [`Transformation`] of them displays:
/// `<unit, unit, ...>`.
pub(crate) fn write_units<'a>(
    out: &mut impl fmt::Write,
    units: impl IntoIterator<Item = &'a Unit>,
) -> fmt::Result {
    out.write_char('<')?;
    for (i, u) in units.into_iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write!(out, "{u}")?;
    }
    out.write_char('>')
}

impl From<Vec<Unit>> for Transformation {
    fn from(units: Vec<Unit>) -> Self {
        Self::new(units)
    }
}

impl FromIterator<Unit> for Transformation {
    fn from_iter<T: IntoIterator<Item = Unit>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// The least covered-row count `c` whose support fraction
/// `c as f64 / total_rows as f64` reaches `min_support`, and never below 1
/// (a transformation that covers no row is never kept).
///
/// `ceil(min_support * total_rows)` is not this count: the float product
/// can land just above a whole number (`0.07 * 100.0` is `7.000000000000001`),
/// and the ceiling then asks for one row more than the fraction needs. The
/// ceiling is only the starting estimate here; the fraction test decides.
pub fn min_rows_for_support(total_rows: usize, min_support: f64) -> usize {
    let meets = |rows: usize| rows as f64 / total_rows as f64 >= min_support;
    // A float-to-integer `as` saturates; the fraction test below decides.
    #[allow(clippy::cast_possible_truncation)]
    let estimate = (min_support * total_rows as f64).ceil() as usize;
    (estimate.saturating_sub(1)..=estimate.saturating_add(1))
        .find(|&rows| meets(rows))
        .unwrap_or(estimate)
        .max(1)
}

/// A set of transformations together with the rows each covers — the output
/// of synthesis (Definition 3: a covering transformation set).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransformationSet {
    /// The selected transformations, ordered by decreasing marginal coverage
    /// (the greedy set-cover selection order).
    pub transformations: Vec<CoveredTransformation>,
    /// Total number of input pairs the set was computed against.
    pub total_pairs: usize,
}

/// One selected transformation plus the indices of the input pairs it covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoveredTransformation {
    /// The transformation program.
    pub transformation: Transformation,
    /// Indices (into the input pair list) of rows this transformation covers.
    pub covered_rows: Vec<u32>,
}

impl CoveredTransformation {
    /// Number of covered rows.
    pub fn coverage(&self) -> usize {
        self.covered_rows.len()
    }
}

impl TransformationSet {
    /// Number of transformations in the set.
    pub fn len(&self) -> usize {
        self.transformations.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.transformations.is_empty()
    }

    /// Coverage fraction of the single best transformation ("Top Cov." in
    /// Table 2 of the paper).
    pub fn top_coverage(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        self.transformations
            .iter()
            .map(CoveredTransformation::coverage)
            .max()
            .unwrap_or(0) as f64
            / self.total_pairs as f64
    }

    /// Coverage fraction of the whole set, counting each row once
    /// ("Coverage" in Table 2 of the paper).
    pub fn set_coverage(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        let mut covered: Vec<bool> = vec![false; self.total_pairs];
        for t in &self.transformations {
            for &r in &t.covered_rows {
                if let Some(slot) = covered.get_mut(r as usize) {
                    *slot = true;
                }
            }
        }
        covered.iter().filter(|c| **c).count() as f64 / self.total_pairs as f64
    }

    /// The transformation with maximum coverage, if any; the first of tied
    /// maxima. For a greedy covering set this is its first pick.
    pub fn best(&self) -> Option<&CoveredTransformation> {
        // `min_by_key` keeps the first of equal keys (`max_by_key` the last).
        self.transformations
            .iter()
            .min_by_key(|t| Reverse(t.coverage()))
    }

    /// Drops transformations whose coverage fraction is below
    /// `min_support` (the paper applies a support threshold of 1–5 % on noisy
    /// data to discard bogus transformations produced by false row matches).
    pub fn filter_by_support(&self, min_support: f64) -> Self {
        let min_rows = min_rows_for_support(self.total_pairs, min_support);
        Self {
            transformations: self
                .transformations
                .iter()
                .filter(|t| t.coverage() >= min_rows)
                .cloned()
                .collect(),
            total_pairs: self.total_pairs,
        }
    }

    /// Plain iteration over the transformations.
    pub fn iter(&self) -> impl Iterator<Item = &CoveredTransformation> {
        self.transformations.iter()
    }
}

impl fmt::Display for TransformationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TransformationSet: {} transformations over {} pairs (top {:.2}, set {:.2})",
            self.len(),
            self.total_pairs,
            self.top_coverage(),
            self.set_coverage()
        )?;
        for t in &self.transformations {
            writeln!(f, "  [{} rows] {}", t.coverage(), t.transformation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_to_initial_last() -> Transformation {
        // "gosgnach, simon" -> "s gosgnach"
        Transformation::new(vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ])
    }

    #[test]
    fn paper_example_transformation() {
        let t = name_to_initial_last();
        assert_eq!(t.apply("gosgnach, simon").as_deref(), Some("s gosgnach"));
        assert_eq!(t.apply("bowling, michael").as_deref(), Some("m bowling"));
        assert_eq!(
            t.apply("prus-czarnecki, andrzej").as_deref(),
            Some("a prus-czarnecki")
        );
    }

    #[test]
    fn apply_fails_when_any_unit_fails() {
        let t = name_to_initial_last();
        // No space after the comma and no second word: SplitSubstr piece 1 missing.
        assert_eq!(t.apply("gosgnach"), None);
    }

    #[test]
    fn empty_transformation_never_applies() {
        let t = Transformation::new(vec![]);
        assert_eq!(t.apply("abc"), None);
        assert!(t.is_empty());
    }

    #[test]
    fn placeholder_and_literal_counts() {
        let t = name_to_initial_last();
        assert_eq!(t.len(), 3);
        assert_eq!(t.placeholder_count(), 2);
        assert_eq!(t.literal_count(), 1);
        assert!(!t.is_all_literal());
        let all_lit = Transformation::new(vec![Unit::literal("a"), Unit::literal("b")]);
        assert!(all_lit.is_all_literal());
        assert_eq!(all_lit.apply("whatever").as_deref(), Some("ab"));
    }

    #[test]
    fn display_matches_paper_notation() {
        let t = name_to_initial_last();
        assert_eq!(
            t.to_string(),
            "<SplitSubstr(' ',1,0,1), Literal(\" \"), Split(',',0)>"
        );
    }

    #[test]
    fn from_iterator_and_vec() {
        let t: Transformation = vec![Unit::literal("x")].into();
        assert_eq!(t.len(), 1);
        let t: Transformation = std::iter::once(Unit::literal("y")).collect();
        assert_eq!(t.apply("z").as_deref(), Some("y"));
    }

    #[test]
    fn set_coverage_accounting() {
        let t1 = CoveredTransformation {
            transformation: Transformation::new(vec![Unit::substr(0, 1)]),
            covered_rows: vec![0, 1, 2],
        };
        let t2 = CoveredTransformation {
            transformation: Transformation::new(vec![Unit::substr(0, 2)]),
            covered_rows: vec![2, 3],
        };
        let set = TransformationSet {
            transformations: vec![t1, t2],
            total_pairs: 5,
        };
        assert_eq!(set.len(), 2);
        assert!((set.top_coverage() - 0.6).abs() < 1e-9);
        assert!((set.set_coverage() - 0.8).abs() < 1e-9);
        assert_eq!(set.best().unwrap().coverage(), 3);
    }

    #[test]
    fn best_is_first_of_tied_maxima() {
        let mk = |units: Vec<Unit>, rows: Vec<u32>| CoveredTransformation {
            transformation: Transformation::new(units),
            covered_rows: rows,
        };
        let first = mk(vec![Unit::substr(0, 1)], vec![0, 1]);
        let set = TransformationSet {
            transformations: vec![
                mk(vec![Unit::literal("a")], vec![4]),
                first.clone(),
                mk(vec![Unit::substr(0, 2)], vec![2, 3]),
            ],
            total_pairs: 5,
        };
        assert_eq!(set.best(), Some(&first));
    }

    #[test]
    fn support_filter() {
        let mk = |rows: Vec<u32>| CoveredTransformation {
            transformation: Transformation::new(vec![Unit::substr(0, 1)]),
            covered_rows: rows,
        };
        let set = TransformationSet {
            transformations: vec![mk(vec![0, 1, 2, 3]), mk(vec![4])],
            total_pairs: 100,
        };
        // 2% support over 100 pairs = at least 2 rows.
        let filtered = set.filter_by_support(0.02);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.transformations[0].coverage(), 4);
        // zero support keeps everything with >=1 row
        assert_eq!(set.filter_by_support(0.0).len(), 2);
        // Exactly 4 % support passes a 4 % floor.
        assert_eq!(set.filter_by_support(0.04).len(), 1);
    }

    #[test]
    fn support_floor_is_exact_at_float_boundaries() {
        // `0.07 * 100.0` rounds to just above 7, whose ceiling is 8.
        assert_eq!(min_rows_for_support(100, 0.07), 7);
        assert_eq!(min_rows_for_support(100, 0.0), 1);
        assert_eq!(min_rows_for_support(0, 0.05), 1);
        assert_eq!(min_rows_for_support(3, 0.5), 2);
        for percent in 0..=100usize {
            for rows in (0..=1_000usize).chain([4_096, 65_537, 1_000_000]) {
                let expected = (percent * rows).div_ceil(100).max(1);
                assert_eq!(
                    min_rows_for_support(rows, percent as f64 / 100.0),
                    expected,
                    "{percent} % of {rows} rows"
                );
            }
        }
    }

    #[test]
    fn empty_set_statistics() {
        let set = TransformationSet { transformations: Vec::new(), total_pairs: 0 };
        assert_eq!(set.top_coverage(), 0.0);
        assert_eq!(set.set_coverage(), 0.0);
        assert!(set.best().is_none());
        assert!(set.is_empty());
    }

    #[test]
    fn display_of_set_mentions_counts() {
        let set = TransformationSet { transformations: Vec::new(), total_pairs: 3 };
        let s = set.to_string();
        assert!(s.contains("0 transformations over 3 pairs"));
    }
}
