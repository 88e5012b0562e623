//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Provides the [`proptest!`] macro, [`Strategy`] combinators
//! (`prop_map`/`prop_flat_map`), range/tuple/`Vec` strategies,
//! [`collection::vec`], [`option::of`], [`any`], and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros. Each test runs a
//! fixed number of random cases (default 64, override with
//! `ProptestConfig::with_cases`) from a generator seeded deterministically
//! from the test's module path and name, so failures reproduce across runs.
//! Unlike upstream there is no shrinking and no persistence file: a failing
//! case panics with the ordinary assertion message.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a generated case did not complete.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!`; it is skipped, not failed.
    Reject,
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { source: self, map: f }
    }

    /// Builds a second strategy from each generated value and samples it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { source: self, flat_map: f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        (self.map)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    source: S,
    flat_map: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.flat_map)(self.source.generate(rng)).generate(rng)
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

// A vector of strategies generates element-wise (one value per strategy).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen()
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<A> {
    _marker: std::marker::PhantomData<A>,
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;

    fn generate(&self, rng: &mut StdRng) -> A {
        A::arbitrary(rng)
    }
}

/// A strategy over every value of `A`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any { _marker: std::marker::PhantomData }
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// A half-open or inclusive length range for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Option strategies.
pub mod option {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            if rng.gen_range(0u32..5) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// A strategy producing `None` about 20% of the time and `Some` of the
    /// inner strategy otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Everything a proptest-using test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

#[doc(hidden)]
pub fn __test_rng(name: &str) -> StdRng {
    // FNV-1a over the fully qualified test name: deterministic per test,
    // different across tests.
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(hash)
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::__test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                // The immediately-called closure gives `$body` a `?`-capturing
                // scope, mirroring upstream proptest's test-case wrapper.
                #[allow(clippy::redundant_closure_call)]
                let __outcome = (move || -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match __outcome {
                    ::core::result::Result::Ok(()) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Reject) => {}
                }
            }
        }
    )*};
}

/// Asserts a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_name() {
        let mut a = crate::__test_rng("x::y");
        let mut b = crate::__test_rng("x::y");
        let s = 0.0..1.0f64;
        assert_eq!(s.generate(&mut a).to_bits(), s.generate(&mut b).to_bits());
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in -1.0..1.0f64, z in 1usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y));
            prop_assert!((1..=4).contains(&z));
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(0u32..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            for e in v {
                prop_assert!(e < 10);
            }
        }

        #[test]
        fn tuples_and_maps_compose(p in (0u32..5, 10u32..20).prop_map(|(a, b)| a + b)) {
            prop_assert!((10..25).contains(&p));
        }

        #[test]
        fn flat_map_chains(v in (1usize..4).prop_flat_map(|n| {
            let parts: Vec<_> = (0..n).map(|_| 0u32..10).collect();
            parts
        })) {
            prop_assert!((1..4).contains(&v.len()));
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn options_mix_none_and_some(v in crate::collection::vec(crate::option::of(0u32..3), 40..41)) {
            prop_assert!(v.len() == 40);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn config_override_applies(x in any::<u64>()) {
            // Just exercising the config-bearing form.
            let _ = x;
        }
    }
}
