//! A dependency-free property-testing shim exposing the subset of the
//! `proptest` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the real `proptest`
//! cannot be fetched; this crate keeps the workspace's property tests —
//! written against the upstream API — compiling and running unmodified:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`,
//! * numeric-range and tuple strategies, [`collection::vec`],
//! * `prop::num::f64::{NORMAL, ZERO}` and strategy unions via `|`.
//!
//! Differences from upstream, deliberately accepted: no shrinking (failures
//! report the deterministic per-case seed instead, which reproduces the
//! case exactly), and a default of 64 cases per property (upstream: 256)
//! to keep the tier-1 test suite fast.
#![forbid(unsafe_code)]

/// Deterministic pseudo-random generation for test cases.
pub mod test_runner {
    /// SplitMix64: tiny, fast, and statistically solid for test-case
    /// generation. Deterministic by construction — every case's seed is
    /// derived from the test name and case index, so failures replay.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// An RNG seeded for one test case.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            // Modulo bias is negligible for the small spans test strategies
            // use (all far below 2^32).
            self.next_u64() % n
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed: the property is violated.
        Fail(String),
        /// `prop_assume!` rejected the generated inputs; the case is
        /// discarded, not failed.
        Reject,
    }

    impl TestCaseError {
        /// Construct a failure.
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }
    }

    /// Per-property configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// FNV-1a, used to derive a per-test base seed from its name.
    fn fnv1a(s: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        h
    }

    /// Drives one property: runs `config.cases` accepted cases, each with a
    /// deterministic seed, panicking on the first failure.
    pub fn run_property<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name);
        let mut accepted: u32 = 0;
        let mut attempt: u64 = 0;
        let mut rejects: u64 = 0;
        let max_rejects = (config.cases as u64).saturating_mul(16).max(1024);
        while accepted < config.cases {
            let seed = base ^ attempt.wrapping_mul(0x2545_F491_4F6C_DD1D);
            attempt += 1;
            let mut rng = TestRng::from_seed(seed);
            match case(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject) => {
                    rejects += 1;
                    assert!(
                        rejects <= max_rejects,
                        "property '{name}': too many prop_assume! rejections \
                         ({rejects}) — strategy rarely satisfies the assumption"
                    );
                }
                Err(TestCaseError::Fail(msg)) => panic!(
                    "property '{name}' failed at case {accepted} (seed {seed:#018x}): {msg}"
                ),
            }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Generates values of an associated type from an RNG. The shim has no
    /// shrinking: a strategy is just a generator.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Derive a second strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);

    /// A two-branch union: picks either side uniformly. Produced by `|` on
    /// strategies that support it (see [`crate::num::f64`]).
    #[derive(Debug, Clone)]
    pub struct Union<A, B> {
        /// Left branch.
        pub a: A,
        /// Right branch.
        pub b: B,
    }

    impl<V, A, B> Strategy for Union<A, B>
    where
        A: Strategy<Value = V>,
        B: Strategy<Value = V>,
    {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            if rng.below(2) == 0 {
                self.a.generate(rng)
            } else {
                self.b.generate(rng)
            }
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A half-open range of collection sizes. `usize` converts to the
    /// exact-size range, `Range<usize>` to itself.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy: `size` elements (a fixed count or a range), each
    /// generated by `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span == 0 { 0 } else { rng.below(span) as usize };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Numeric class strategies (`prop::num::f64::NORMAL | prop::num::f64::ZERO`).
pub mod num {
    /// `f64` classes.
    pub mod f64 {
        use crate::strategy::{Strategy, Union};
        use crate::test_runner::TestRng;

        /// Generates normal (neither zero, subnormal, infinite nor NaN)
        /// `f64` values of either sign across the full exponent range.
        #[derive(Debug, Clone, Copy)]
        pub struct NormalStrategy;

        /// Generates `0.0` or `-0.0`.
        #[derive(Debug, Clone, Copy)]
        pub struct ZeroStrategy;

        /// Normal `f64` values.
        pub const NORMAL: NormalStrategy = NormalStrategy;
        /// Signed zeros.
        pub const ZERO: ZeroStrategy = ZeroStrategy;

        impl Strategy for NormalStrategy {
            type Value = f64;
            fn generate(&self, rng: &mut TestRng) -> f64 {
                // Random sign and mantissa; biased exponent in [1, 2046]
                // (the normal range).
                let sign = rng.below(2) << 63;
                let exp = 1 + rng.below(2046);
                let mantissa = rng.next_u64() & ((1u64 << 52) - 1);
                f64::from_bits(sign | (exp << 52) | mantissa)
            }
        }

        impl Strategy for ZeroStrategy {
            type Value = f64;
            fn generate(&self, rng: &mut TestRng) -> f64 {
                if rng.below(2) == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
        }

        impl std::ops::BitOr<ZeroStrategy> for NormalStrategy {
            type Output = Union<NormalStrategy, ZeroStrategy>;
            fn bitor(self, rhs: ZeroStrategy) -> Self::Output {
                Union { a: self, b: rhs }
            }
        }

        impl std::ops::BitOr<NormalStrategy> for ZeroStrategy {
            type Output = Union<ZeroStrategy, NormalStrategy>;
            fn bitor(self, rhs: NormalStrategy) -> Self::Output {
                Union { a: self, b: rhs }
            }
        }
    }
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*` upstream.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// The `prop::` module path used by qualified calls
    /// (`prop::collection::vec`, `prop::num::f64::NORMAL`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::num;
    }
}

/// Define property tests. Mirrors upstream `proptest!`: an optional
/// `#![proptest_config(..)]` followed by `#[test]` functions whose
/// arguments are drawn from strategies with `name in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

/// Internal: expands each test function inside [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::test_runner::run_property(&config, stringify!($name), |__rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                #[allow(unreachable_code)]
                (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                })()
            });
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

/// Assert a condition inside a [`proptest!`] body; failure fails the case
/// with the (optional) formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), __l, __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+), __l, __r
                );
            }
        }
    };
}

/// Discard the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        $crate::prop_assume!($cond)
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_runner::TestRng::from_seed(42);
        let mut b = crate::test_runner::TestRng::from_seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.0f64..5.0), &mut rng);
            assert!((-2.0..5.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = crate::test_runner::TestRng::from_seed(9);
        for _ in 0..200 {
            let v = Strategy::generate(&prop::collection::vec(0u8..8, 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 8));
        }
        let fixed = Strategy::generate(&prop::collection::vec(0u64..3, 4usize), &mut rng);
        assert_eq!(fixed.len(), 4);
    }

    #[test]
    fn f64_classes_generate_their_class() {
        let mut rng = crate::test_runner::TestRng::from_seed(11);
        for _ in 0..500 {
            let n = Strategy::generate(&prop::num::f64::NORMAL, &mut rng);
            assert!(n.is_normal());
            let z = Strategy::generate(&prop::num::f64::ZERO, &mut rng);
            assert_eq!(z, 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: generation, assumption, assertion.
        #[test]
        fn macro_roundtrip(a in 1usize..50, b in 1usize..50) {
            prop_assume!(a != b);
            prop_assert!(a + b > 1);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
