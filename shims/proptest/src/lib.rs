//! Hermetic stand-in for `proptest`.
//!
//! Provides the subset of proptest's API this workspace's property tests
//! use — [`Strategy`] with `prop_map`, range and tuple strategies,
//! `proptest::collection::vec`, `proptest::option::of`, `prop_oneof!`,
//! and the `proptest!` / `prop_assert*` macros — as a deterministic
//! generate-and-check loop. There is **no shrinking**: a failing case
//! reports the values that failed (via the assertion message) and the
//! case index so it can be replayed. Case generation is seeded from the
//! test name, so runs are fully reproducible.

use std::fmt;
use std::ops::Range;

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps hermetic CI fast while the
        // heavier suites override per-file anyway.
        ProptestConfig { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` failed — skip the case, try another.
    Reject(String),
    /// `prop_assert*` failed — the property is violated.
    Fail(String),
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// An assumption rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(msg) => write!(f, "case rejected: {msg}"),
            TestCaseError::Fail(msg) => write!(f, "case failed: {msg}"),
        }
    }
}

/// Result type used by generated test case bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

// ---------------------------------------------------------------------------
// RNG (xoshiro256++, seeded by SplitMix64 — self-contained)
// ---------------------------------------------------------------------------

/// The deterministic RNG driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds from a 64-bit key (SplitMix64 expansion).
    pub fn seed_from_u64(mut state: u64) -> Self {
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Seeds deterministically from a test name and case index.
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift bounded sampling; bias is negligible for test
        // generation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(move |rng: &mut TestRng| self.generate(rng)),
        }
    }
}

/// `prop_map` adapter.
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<T> {
    #[allow(clippy::type_complexity)]
    inner: std::rc::Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    alternatives: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over the given alternatives (must be non-empty).
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Union { alternatives }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.alternatives.len() as u64) as usize;
        self.alternatives[idx].generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $ty
            }
        }
    )*};
}

impl_int_range_strategy!(u32, u64, usize, i64);

macro_rules! impl_int_range_inclusive_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $ty
            }
        }
    )*};
}

impl_int_range_inclusive_strategy!(u8, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($( ($($name:ident : $idx:tt),+) ),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7),
);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Sizes acceptable to [`vec()`]: a fixed length or a range.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// A strategy producing `Vec`s of `element` with a size from `size`.
    pub struct VecStrategy<S> {
        element: S,
        pick: Box<dyn Fn(&mut TestRng) -> usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = (self.pick)(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange + 'static) -> VecStrategy<S> {
        VecStrategy {
            element,
            pick: Box::new(move |rng| size.pick(rng)),
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// A strategy producing `None` 25% of the time (upstream default),
    /// otherwise `Some` of the inner strategy.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.unit_f64() < 0.25 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `proptest::option::of(strategy)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Runs one property test: `cases` random cases of `body` over values
/// drawn from the per-case RNG. Called by the `proptest!` macro.
pub fn run_property<F>(name: &str, config: &ProptestConfig, mut body: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let mut passed: u32 = 0;
    let mut rejected: u64 = 0;
    let max_rejects = 4096 + 16 * config.cases as u64;
    let mut case: u64 = 0;
    while passed < config.cases {
        let mut rng = TestRng::for_case(name, case);
        case += 1;
        match body(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!("{name}: too many prop_assume! rejections ({rejected})");
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{name}: property failed at case {} (replay seed): {msg}",
                    case - 1
                );
            }
        }
    }
}

/// Everything a property-test file usually imports.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, ProptestConfig, Strategy,
    };
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Fails the current case with a formatted message if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case if the two expressions are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Rejects the current case (not a failure) if `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests: each `fn name(bindings in strategies) { body }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            $crate::run_property(stringify!($name), &config, |__rng| {
                $(let $pat = $crate::Strategy::generate(&$strategy, __rng);)+
                $body
                ::std::result::Result::Ok(())
            });
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let strat = (0usize..100, 0.0f64..1.0);
        let a = strat.generate(&mut TestRng::for_case("t", 7));
        let b = strat.generate(&mut TestRng::for_case("t", 7));
        assert_eq!(a, b);
        let c = strat.generate(&mut TestRng::for_case("t", 8));
        assert_ne!(a, c);
    }

    #[test]
    fn vec_and_option_strategies() {
        let mut rng = TestRng::seed_from_u64(9);
        let xs = collection::vec(0usize..10, 2..5).generate(&mut rng);
        assert!((2..5).contains(&xs.len()));
        let mut nones = 0;
        for _ in 0..400 {
            if option::of(0usize..10).generate(&mut rng).is_none() {
                nones += 1;
            }
        }
        assert!((50..150).contains(&nones), "None rate off: {nones}/400");
    }

    #[test]
    fn oneof_hits_all_alternatives() {
        let strat = prop_oneof![1usize..2, 2usize..3, 3usize..4];
        let mut seen = [false; 4];
        let mut rng = TestRng::seed_from_u64(4);
        for _ in 0..100 {
            seen[strat.generate(&mut rng)] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_roundtrip(x in 0u64..1000, y in 0.0f64..1.0) {
            prop_assert!(x < 1000);
            prop_assert!((0.0..1.0).contains(&y), "y out of range: {y}");
            prop_assume!(x != 999);
            prop_assert!(x != 999);
        }
    }
}
