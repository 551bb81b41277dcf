//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate reimplements
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_recursive` / `boxed`,
//! [`strategy::Just`], range and tuple strategies, `any::<T>()`,
//! `collection::vec`, `option::of`, the `proptest!` / `prop_oneof!` /
//! `prop_assert!` / `prop_assert_eq!` macros, and `ProptestConfig`.
//!
//! Differences from the real crate: cases are pure random samples (no
//! shrinking of failures), string strategies ignore their regex and produce
//! arbitrary short strings, and the per-test RNG is seeded from the test's
//! module path so runs are deterministic.

use std::rc::Rc;

/// The deterministic RNG driving every strategy.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from an arbitrary string (the test name).
    pub fn from_name(name: &str) -> TestRng {
        // FNV-1a over the name keeps runs deterministic per test.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform usize in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Runner configuration (`ProptestConfig` in the real crate).
pub mod test_runner {
    /// A failed property case. With no shrinking, assertions panic instead,
    /// so this mostly exists to type `Result<(), TestCaseError>` helpers.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "property case failed: {}", self.0)
        }
    }

    /// How many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Build recursive values: `recurse` receives a strategy for smaller
        /// instances and returns a strategy for one-level-larger ones.
        /// `depth` bounds the recursion tower; the size hints are ignored.
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let base = self.boxed();
            let mut tower = base.clone();
            for _ in 0..depth {
                // Mix the base back in so sampled depth is geometric, not
                // always maximal.
                tower = Union::new(vec![base.clone(), recurse(tower).boxed()]).boxed();
            }
            tower
        }

        /// Type-erase into a clonable, shareable strategy handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe sampling, used behind [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn sample_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// A clonable, type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample_dyn(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options` (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let ix = rng.below(self.options.len());
            self.options[ix].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                    self.start + unit * (self.end - self.start)
                }
            }
        )*};
    }
    impl_float_range_strategy!(f32, f64);

    /// String strategies: the pattern is treated as an opaque hint and the
    /// output is an arbitrary short string (the workspace only uses these
    /// for never-panics fuzzing).
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let len = rng.below(61);
            let mut s = String::with_capacity(len);
            for _ in 0..len {
                // Mostly printable ASCII with occasional newline/quote/unicode.
                let c = match rng.below(20) {
                    0 => '\'',
                    1 => '\n',
                    2 => '%',
                    3 => '_',
                    4 => 'λ',
                    _ => char::from(32 + rng.below(95) as u8),
                };
                s.push(c);
            }
            s
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),+) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

    /// `any::<T>()` support: the full value space of `T`.
    pub struct Any<T>(pub(crate) PhantomData<T>);

    /// Types with a canonical full-range strategy.
    pub trait ArbValue: Sized {
        /// Draw an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arb_int {
        ($($t:ty),*) => {$(
            impl ArbValue for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbValue for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl ArbValue for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, well-spread values; NaN/inf handling is not under test.
            let mantissa = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let scale = 10f64.powi(rng.below(13) as i32 - 6);
            let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
            sign * mantissa * scale
        }
    }

    impl<T: ArbValue> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// `proptest::collection` — container strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Vectors of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// Strategy for `Vec<S::Value>`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.end - self.size.start;
            let len = self.size.start + rng.below(span.max(1));
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `proptest::option` — optional values.
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    /// `Some(inner)` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// The full value space of `T` as a strategy.
pub fn any<T: strategy::ArbValue>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

/// The commonly imported surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Keep `Rc` referenced so the module-level import is not flagged unused.
#[doc(hidden)]
pub type _RcUnit = Rc<()>;

/// Define property tests: each `name(args in strategies) { body }` becomes a
/// `#[test]` that samples the strategies `cases` times and runs the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let mut __rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                // The closure gives `?` on `Result<_, TestCaseError>` a place
                // to land, as in the real crate's generated runner.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!("{e}");
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Uniform choice among strategy arms (all yielding the same type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Assertion inside a property (no shrinking, so a plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3i64..9, y in 0usize..4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(0u64..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn oneof_and_just(w in prop_oneof![Just("a"), Just("b")]) {
            prop_assert!(w == "a" || w == "b");
        }

        #[test]
        fn tuples_and_any(t in (0u8..6, any::<bool>())) {
            prop_assert!(t.0 < 6);
            let _ = t.1;
        }
    }

    #[test]
    fn prop_map_and_recursive_terminate() {
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum E {
            Leaf(i64),
            Add(Box<E>, Box<E>),
        }
        fn depth(e: &E) -> u32 {
            match e {
                E::Leaf(_) => 0,
                E::Add(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let leaf = (0i64..10).prop_map(E::Leaf);
        let expr = leaf.prop_recursive(3, 24, 2, |inner| {
            (inner.clone(), inner).prop_map(|(l, r)| E::Add(Box::new(l), Box::new(r)))
        });
        let mut rng = crate::TestRng::from_name("recursive");
        let mut saw_node = false;
        for _ in 0..200 {
            let e = expr.sample(&mut rng);
            assert!(depth(&e) <= 3, "depth bound violated: {e:?}");
            saw_node |= depth(&e) > 0;
        }
        assert!(saw_node, "recursion never produced a composite node");
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
