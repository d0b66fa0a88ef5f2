//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim implements the
//! subset of proptest the workspace uses: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`, integer-range / tuple / `Just` / union / collection
//! strategies, a small regex-subset string generator
//! ([`string::string_regex`] and `&str`-literal strategies), and the
//! [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`] / [`prop_assert_eq!`]
//! macros.
//!
//! Differences from real proptest, acceptable for this workspace's tests:
//!
//! * **No shrinking** — a failing case panics with the generated inputs'
//!   `Debug` formatting where available (via the assert message).
//! * **Deterministic seeding** — cases derive from a hash of the test name,
//!   so runs are reproducible without a persistence file.
//! * **Regex subset** — only `[class]`, literal chars, `\PC` (printable) and
//!   `{m}` / `{m,n}` / `?` / `*` / `+` repetition are supported.

pub mod strategy;
pub mod string;
pub mod test_runner;

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive length range for collection strategies (subset of
    /// proptest's `SizeRange`). Built via `From` so plain `usize` ranges
    /// infer correctly at `vec()` call sites.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `proptest::collection::vec`: a vector strategy.
    pub fn vec<S>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S>
    where
        S: Strategy,
    {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = (self.len.min..=self.len.max).gen_value(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// The prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Picks uniformly among the branch strategies (subset of proptest's
/// weighted `prop_oneof!`; weights are not supported).
#[macro_export]
macro_rules! prop_oneof {
    ($($branch:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($branch))+
    };
}

/// Declares property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of `fn name(arg in strategy, ...)
/// { body }` items, mirroring the real macro's surface for that shape.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vec() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..10, 2..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -4i32..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in small_vec()) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_and_map(u in prop_oneof![
            Just(0usize),
            (1usize..5).prop_map(|x| x * 10),
        ]) {
            prop_assert!(u == 0 || (10..50).contains(&u));
        }

        #[test]
        fn string_literal_strategy(s in "[ab]{2,6}") {
            prop_assert!((2..=6).contains(&s.chars().count()));
            prop_assert!(s.chars().all(|c| c == 'a' || c == 'b'));
        }
    }

    #[test]
    fn string_regex_parses_used_patterns() {
        for pattern in [
            "[a-z]{3,8}",
            "[a-zA-Z0-9,;.@ _-]{0,40}",
            "[a-z@. ]{0,6}",
            "\\PC{0,30}",
            "[ab]{0,20}",
            "[a-c,;]{1,20}",
        ] {
            assert!(crate::string::string_regex(pattern).is_ok(), "{pattern}");
        }
    }
}
