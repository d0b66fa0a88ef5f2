//! 64-bit string fingerprints.
//!
//! Identity-carrying hashes shared by the inverted n-gram index (posting
//! lists keyed by gram fingerprint instead of owned gram text) and the
//! fingerprint equi-join (target rows bucketed by the fingerprint of their
//! normalized value, with an exact-string confirm on probe).
//!
//! The rotate-multiply Fx hash is NOT used here: it lacks avalanche and
//! produces real collisions on short structured strings, which is fine for
//! a `HashMap`'s bucket index but not for a fingerprint that stands in for
//! the string itself. This fingerprint seeds with the byte length (so
//! prefixes of different sizes cannot collide structurally) and runs the
//! splitmix64 finalizer per 8-byte chunk — full avalanche, and at 64 bits a
//! corpus would need billions of distinct strings before collisions become
//! likely. Callers that cannot tolerate even that (the equi-join) confirm
//! with an exact string comparison after the fingerprint lookup.

/// The splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive chaining of a running fingerprint with the next
/// element's fingerprint — the same absorb-and-mix step [`fingerprint64`]
/// applies per 8-byte chunk, exposed so sequences can be fingerprinted
/// element-wise. The gram corpus keys whole *columns* with it: fold every
/// cell's `fingerprint64` into a length-seeded accumulator and two columns
/// collide only if the 64-bit chain does.
#[inline]
pub fn fingerprint64_chain(acc: u64, next: u64) -> u64 {
    mix64(acc ^ next)
}

/// An **appendable** column content fingerprint: the order-sensitive chain
/// of per-cell [`fingerprint64`]s plus the cell count, folded together only
/// at [`Self::finish`]. Because the count is absorbed at the *end* (not in
/// the seed), the running state after absorbing rows `0..k` is exactly the
/// prefix state a fresh fold over the final column passes through — which
/// is what makes incremental corpus appends produce **bit-identical** keys
/// to a from-scratch fingerprint of the final column. The finished value is
/// still both order- and length-sensitive: two columns collide only if the
/// 64-bit chain does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnFingerprint {
    chain: u64,
    count: u64,
}

impl ColumnFingerprint {
    /// The fingerprint state of an empty column.
    pub fn empty() -> Self {
        Self { chain: 0x9E37_79B9_7F4A_7C15, count: 0 }
    }

    /// Absorbs one more cell (appended at the end of the column).
    #[inline]
    pub fn absorb(&mut self, cell: &str) {
        self.absorb_fingerprint(fingerprint64(cell));
    }

    /// Absorbs a cell already reduced to its [`fingerprint64`].
    #[inline]
    pub fn absorb_fingerprint(&mut self, fingerprint: u64) {
        self.chain = fingerprint64_chain(self.chain, fingerprint);
        self.count += 1;
    }

    /// Cells absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The finished column fingerprint: the chain mixed with the cell
    /// count. Non-destructive — more cells can be absorbed afterwards and
    /// `finish` called again (the corpus re-keys an entry per append this
    /// way).
    #[inline]
    pub fn finish(&self) -> u64 {
        fingerprint64_chain(self.chain, self.count)
    }
}

impl Default for ColumnFingerprint {
    fn default() -> Self {
        Self::empty()
    }
}

/// The 64-bit fingerprint of a string: length-seeded splitmix64 mixing over
/// 8-byte chunks (see the module docs for the design rationale).
#[inline]
pub fn fingerprint64(text: &str) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (text.len() as u64);
    let mut chunks = text.as_bytes().chunks_exact(8);
    for chunk in &mut chunks {
        // Invariant is local (audited): `chunks_exact(8)` yields only
        // 8-byte slices by contract, so the array conversion cannot fail
        // regardless of the input text.
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = mix64(h ^ word);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = 0u64;
        for (i, b) in rem.iter().enumerate() {
            word |= (*b as u64) << (8 * i);
        }
        h = mix64(h ^ word);
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;

    #[test]
    fn deterministic() {
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
        assert_eq!(fingerprint64(""), fingerprint64(""));
    }

    #[test]
    fn length_seeding_separates_prefixes() {
        assert_ne!(fingerprint64("a"), fingerprint64("aa"));
        assert_ne!(fingerprint64("aa"), fingerprint64("aaa"));
    }

    #[test]
    fn chain_is_order_and_length_sensitive() {
        let fp = |values: &[&str]| {
            values.iter().fold(
                fingerprint64("") ^ values.len() as u64,
                |acc, v| fingerprint64_chain(acc, fingerprint64(v)),
            )
        };
        assert_eq!(fp(&["a", "b"]), fp(&["a", "b"]));
        assert_ne!(fp(&["a", "b"]), fp(&["b", "a"]));
        assert_ne!(fp(&["a"]), fp(&["a", "a"]));
        assert_ne!(fp(&["x", ""]), fp(&["", "x"]));
    }

    #[test]
    fn column_fingerprint_appends_are_prefix_consistent() {
        // The running state after absorbing a prefix, then the suffix, must
        // equal one pass over the whole column — the invariant incremental
        // corpus appends rely on.
        let cells = ["alpha", "beta", "", "gamma delta", "ε"];
        for split in 0..=cells.len() {
            let mut incremental = ColumnFingerprint::empty();
            for cell in &cells[..split] {
                incremental.absorb(cell);
            }
            for cell in &cells[split..] {
                incremental.absorb(cell);
            }
            let mut batch = ColumnFingerprint::empty();
            for cell in &cells {
                batch.absorb(cell);
            }
            assert_eq!(incremental, batch);
            assert_eq!(incremental.finish(), batch.finish());
        }
    }

    #[test]
    fn column_fingerprint_separates_shape() {
        let fp = |cells: &[&str]| {
            let mut f = ColumnFingerprint::empty();
            for cell in cells {
                f.absorb(cell);
            }
            f.finish()
        };
        assert_ne!(fp(&["a", "b"]), fp(&["b", "a"]));
        assert_ne!(fp(&["ab"]), fp(&["a", "b"]));
        assert_ne!(fp(&[]), fp(&[""]));
        assert_ne!(fp(&["a"]), fp(&["a", "a"]));
    }

    #[test]
    fn no_collisions_on_a_structured_corpus() {
        // Short structured strings are exactly where Fx-style hashes
        // collide; the splitmix fingerprint must keep them distinct.
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut count = 0usize;
        for i in 0..2000u32 {
            for s in [
                format!("value-{i:04}"),
                format!("{i:04}-value"),
                format!("(780) 433-{i:04}"),
            ] {
                assert!(seen.insert(fingerprint64(&s)), "collision on {s:?}");
                count += 1;
            }
        }
        assert_eq!(seen.len(), count);
    }
}
