//! Unit interning: the [`UnitPool`] arena and ID-based transformations.
//!
//! Candidate transformations are Cartesian products over a small per-row
//! unit pool, so the same [`Unit`] value recurs in hundreds of candidates.
//! Interning every distinct unit once and referring to it by a dense
//! [`UnitId`] lets the hot coverage loop replace unit hashing and cloning
//! with array indexing:
//!
//! * duplicate removal of generated transformations hashes small `u32`
//!   vectors instead of unit vectors with embedded strings;
//! * the coverage engine memoizes `output_on` per `(row, unit)` in a dense
//!   table indexed by `UnitId`, so a unit is evaluated at most once per row
//!   no matter how many transformations contain it;
//! * the non-covering-unit cache (the paper's Section 4.1.5 pruning) becomes
//!   a bitset indexed by `UnitId` — O(1) lookup, zero hashing.

use crate::transformation::Transformation;
use crate::unit::Unit;
use std::collections::HashMap;

/// A dense identifier of an interned [`Unit`] within its [`UnitPool`].
///
/// IDs are assigned contiguously from zero in interning order, so they can
/// index plain vectors and bitsets sized [`UnitPool::len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(u32);

impl UnitId {
    /// The dense index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena interning every distinct [`Unit`] once.
///
/// ```
/// use tjoin_units::{Unit, UnitPool};
///
/// let mut pool = UnitPool::new();
/// let a = pool.intern(Unit::substr(0, 3));
/// let b = pool.intern(Unit::substr(0, 3));
/// assert_eq!(a, b);
/// assert_eq!(pool.len(), 1);
/// assert_eq!(pool.get(a), &Unit::substr(0, 3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnitPool {
    units: Vec<Unit>,
    index: HashMap<Unit, UnitId>,
    /// Memoized adjacent-literal concatenations (see
    /// [`UnitPool::concat_literals`]).
    literal_merges: HashMap<(UnitId, UnitId), UnitId>,
}

impl UnitPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct units interned.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Interns `unit`, returning the id of the (unique) pool entry equal to
    /// it.
    pub fn intern(&mut self, unit: Unit) -> UnitId {
        if let Some(&id) = self.index.get(&unit) {
            return id;
        }
        let id = UnitId(u32::try_from(self.units.len()).expect("unit pool overflow"));
        self.index.insert(unit.clone(), id);
        self.units.push(unit);
        id
    }

    /// The unit behind `id`. Panics if `id` is from a different pool with
    /// more entries.
    #[inline]
    pub fn get(&self, id: UnitId) -> &Unit {
        &self.units[id.index()]
    }

    /// Whether `id`'s unit is a literal.
    #[inline]
    pub fn is_literal(&self, id: UnitId) -> bool {
        matches!(self.get(id), Unit::Literal { .. })
    }

    /// Interns the concatenation of two literal units (used by candidate
    /// generation to canonicalize adjacent literals). Memoized, so repeated
    /// merges of the same pair are O(1). Panics when either id is not a
    /// literal.
    pub fn concat_literals(&mut self, a: UnitId, b: UnitId) -> UnitId {
        if let Some(&merged) = self.literal_merges.get(&(a, b)) {
            return merged;
        }
        let (Unit::Literal { text: ta }, Unit::Literal { text: tb }) = (self.get(a), self.get(b))
        else {
            panic!("concat_literals called on non-literal units");
        };
        let merged = self.intern(Unit::literal(format!("{ta}{tb}")));
        self.literal_merges.insert((a, b), merged);
        merged
    }

    /// Materializes an ID transformation back into an owned
    /// [`Transformation`].
    pub fn resolve(&self, transformation: &IdTransformation) -> Transformation {
        Transformation::new(
            transformation
                .unit_ids()
                .iter()
                .map(|&id| self.get(id).clone())
                .collect(),
        )
    }
}

/// A transformation represented as a sequence of [`UnitId`]s over a
/// [`UnitPool`] — the compact form the generation and coverage phases work
/// with. Equality/hashing over the id vector is equivalent to
/// equality/hashing of the canonical unit sequence because interning is
/// injective.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IdTransformation {
    units: Vec<UnitId>,
}

impl IdTransformation {
    /// Builds an ID transformation from a unit-id sequence.
    pub fn new(units: Vec<UnitId>) -> Self {
        Self { units }
    }

    /// The unit ids, in application order.
    #[inline]
    pub fn unit_ids(&self) -> &[UnitId] {
        &self.units
    }

    /// Whether every unit is a literal (cf.
    /// [`Transformation::is_all_literal`]).
    pub fn is_all_literal(&self, pool: &UnitPool) -> bool {
        !self.units.is_empty() && self.units.iter().all(|&id| pool.is_literal(id))
    }
}

impl From<Vec<UnitId>> for IdTransformation {
    fn from(units: Vec<UnitId>) -> Self {
        Self::new(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut pool = UnitPool::new();
        let a = pool.intern(Unit::split(',', 0));
        let b = pool.intern(Unit::split(',', 1));
        let a2 = pool.intern(Unit::split(',', 0));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(pool.index.get(&Unit::split(',', 1)).copied(), Some(b));
        assert_eq!(pool.index.get(&Unit::split(',', 9)).copied(), None);
    }

    #[test]
    fn resolve_round_trips() {
        let mut pool = UnitPool::new();
        let units = vec![
            Unit::split_substr(' ', 1, 0, 1),
            Unit::literal(" "),
            Unit::split(',', 0),
        ];
        let ids: Vec<UnitId> = units.iter().map(|u| pool.intern(u.clone())).collect();
        let idt = IdTransformation::new(ids);
        assert_eq!(pool.resolve(&idt), Transformation::new(units));
    }

    #[test]
    fn literal_concatenation_is_memoized_and_correct() {
        let mut pool = UnitPool::new();
        let a = pool.intern(Unit::literal("ab"));
        let b = pool.intern(Unit::literal("cd"));
        let m1 = pool.concat_literals(a, b);
        let m2 = pool.concat_literals(a, b);
        assert_eq!(m1, m2);
        assert_eq!(pool.get(m1), &Unit::literal("abcd"));
        // The merged literal is interned like any other unit.
        assert_eq!(pool.index.get(&Unit::literal("abcd")).copied(), Some(m1));
    }

    #[test]
    fn id_equality_matches_unit_equality() {
        let mut pool = UnitPool::new();
        let t1 = IdTransformation::new(vec![
            pool.intern(Unit::substr(0, 1)),
            pool.intern(Unit::literal("x")),
        ]);
        let t2 = IdTransformation::new(vec![
            pool.intern(Unit::substr(0, 1)),
            pool.intern(Unit::literal("x")),
        ]);
        let t3 = IdTransformation::new(vec![pool.intern(Unit::substr(0, 2))]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert!(!t1.is_all_literal(&pool));
        assert!(IdTransformation::new(vec![pool.intern(Unit::literal("y"))]).is_all_literal(&pool));
        assert!(!IdTransformation::new(vec![]).is_all_literal(&pool));
    }
}
