//! Minimal `proptest`-compatible property-testing harness for offline
//! builds.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case panics with the generated inputs
//!   visible in the assertion message; the seed is derived from the test
//!   name and case index, so every failure is reproducible by rerunning
//!   the test.
//! - **Deterministic.** Case `i` of test `t` always sees the same inputs,
//!   across runs and machines.
//! - Strategies are generator functions (`&self, &mut TestRng -> Value`);
//!   all combinators box, which keeps the `Strategy` trait tiny while
//!   supporting the same call sites.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

pub mod collection;
pub mod option;
pub mod string;

/// The deterministic RNG handed to strategies: a SplitMix64 stream.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of the test named `name` — a pure function of
    /// both, so failures reproduce across runs.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: hash ^ ((case as u64) << 1 | 1),
        }
    }

    /// Next raw word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from an integer range: the next word modulo the
    /// range's width, added to its start.
    pub(crate) fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (start, span) = range.start_and_span();
        R::from_i128(start + ((self.next_u64() as u128) % span) as i128)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits, exactly representable in f64.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p.clamp(0.0, 1.0)
    }
}

/// Integer ranges [`TestRng::gen_range`] samples.
pub(crate) trait SampleRange<T> {
    /// The range's first value and its (non-zero) count of values.
    fn start_and_span(self) -> (i128, u128);
    /// Narrow a value inside the range back to `T`.
    fn from_i128(v: i128) -> T;
}

macro_rules! sample_range_impl {
    ($($ty:ty),* $(,)?) => {
        $(
            impl SampleRange<$ty> for Range<$ty> {
                fn start_and_span(self) -> (i128, u128) {
                    assert!(self.start < self.end, "empty range");
                    (self.start as i128, (self.end as i128 - self.start as i128) as u128)
                }
                fn from_i128(v: i128) -> $ty {
                    v as $ty
                }
            }

            impl SampleRange<$ty> for RangeInclusive<$ty> {
                fn start_and_span(self) -> (i128, u128) {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range");
                    (start as i128, (end as i128 - start as i128) as u128 + 1)
                }
                fn from_i128(v: i128) -> $ty {
                    v as $ty
                }
            }
        )*
    };
}

sample_range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Configuration accepted by `proptest! { #![proptest_config(...)] ... }`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator.
pub trait Strategy: 'static {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U: 'static, F>(self, f: F) -> BoxedStrategy<U>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U + 'static,
    {
        let s = self;
        BoxedStrategy::from_fn(move |rng| f(s.generate(rng)))
    }

    /// Discard values failing `keep` (panics after 1000 consecutive
    /// rejections — `reason` names the filter in that message).
    fn prop_filter<F>(self, reason: impl Into<String>, keep: F) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
        Self::Value: 'static,
        F: Fn(&Self::Value) -> bool + 'static,
    {
        let reason = reason.into();
        let s = self;
        BoxedStrategy::from_fn(move |rng| {
            for _ in 0..1000 {
                let value = s.generate(rng);
                if keep(&value) {
                    return value;
                }
            }
            panic!("prop_filter `{reason}` rejected 1000 consecutive values");
        })
    }

    /// Derive a second strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> BoxedStrategy<S2::Value>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2 + 'static,
    {
        let s = self;
        BoxedStrategy::from_fn(move |rng| f(s.generate(rng)).generate(rng))
    }

    /// Recursive structures: `self` is the leaf case, `branch` builds one
    /// level on top of the strategy for the level below. `depth` bounds
    /// nesting; the size-hint parameters are accepted for API parity.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value>,
        F: Fn(BoxedStrategy<Self::Value>) -> S2 + 'static,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = branch(current).boxed();
            let leaf = leaf.clone();
            // Half the draws stay at the leaf so generated trees stay
            // bounded even at full depth.
            current = BoxedStrategy::from_fn(move |rng| {
                if rng.gen_bool(0.5) {
                    leaf.generate(rng)
                } else {
                    deeper.generate(rng)
                }
            });
        }
        current
    }

    /// Type-erase.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
        Self::Value: 'static,
    {
        BoxedStrategy::from_fn(move |rng| self.generate(rng))
    }
}

/// A type-erased, cheaply-cloneable strategy.
pub struct BoxedStrategy<T> {
    gen: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> BoxedStrategy<T> {
        BoxedStrategy {
            gen: Rc::clone(&self.gen),
        }
    }
}

impl<T: 'static> BoxedStrategy<T> {
    fn from_fn(f: impl Fn(&mut TestRng) -> T + 'static) -> BoxedStrategy<T> {
        BoxedStrategy { gen: Rc::new(f) }
    }
}

impl<T: 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen)(rng)
    }
}

/// Weighted union of boxed strategies (backs `prop_oneof!`).
pub fn union<T: 'static>(arms: Vec<(u32, BoxedStrategy<T>)>) -> BoxedStrategy<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "prop_oneof! weights sum to zero");
    BoxedStrategy::from_fn(move |rng| {
        let mut pick = rng.gen_range(0..total);
        for (weight, strat) in &arms {
            let weight = *weight as u64;
            if pick < weight {
                return strat.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("pick < total")
    })
}

/// Strategy producing one constant value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + 'static> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary: Sized + 'static {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($ty:ty),* $(,)?) => {
        $(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*
    };
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> i128 {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Raw bit patterns: covers subnormals, infinities, and NaN, which
        // is what codec roundtrip tests want to see (they filter finite
        // when equality matters).
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        // Mostly ASCII, occasionally any scalar value.
        if rng.gen_bool(0.9) {
            (rng.gen_range(0x20u32..0x7F)) as u8 as char
        } else {
            char::from_u32(rng.gen_range(0u32..0xD800)).expect("below surrogates")
        }
    }
}

/// Strategy for an [`Arbitrary`] type.
pub struct Any<T> {
    _marker: PhantomData<fn() -> T>,
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($ty:ty),* $(,)?) => {
        $(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    rng.gen_range(self.clone())
                }
            }
        )*
    };
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// String pattern shorthand: a `&str` is a regex-subset strategy (see
/// [`string::string_regex`] for the supported syntax).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        string::string_regex(self)
            .unwrap_or_else(|e| panic!("bad string strategy pattern `{self}`: {e}"))
            .generate(rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*
    };
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Fixed-shape vector: one strategy per element, in order.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// The glob-import surface tests use.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Union of strategies; arms may be plain or `weight => strategy`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::union(vec![$((($weight) as u32, $crate::Strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::union(vec![$((1u32, $crate::Strategy::boxed($strat))),+])
    };
}

/// Assertion inside a property (no shrinking: delegates to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    #[test]
    fn deterministic_across_rng_rebuilds() {
        let strat = crate::collection::vec(0u64..1000, 1..10);
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn ranges_and_tuples() {
        let mut rng = TestRng::for_case("rt", 0);
        for _ in 0..200 {
            let (a, b) = (1u8..=3, -5i64..5).generate(&mut rng);
            assert!((1..=3).contains(&a));
            assert!((-5..5).contains(&b));
        }
    }

    #[test]
    fn oneof_and_filter() {
        let strat = prop_oneof![Just(1u32), (10u32..20).prop_filter("even", |v| v % 2 == 0)];
        let mut rng = TestRng::for_case("of", 0);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!(v == 1 || ((10..20).contains(&v) && v % 2 == 0));
        }
    }

    #[test]
    fn recursive_bottoms_out() {
        #[derive(Debug)]
        enum Tree {
            #[allow(dead_code)]
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
            });
        let mut rng = TestRng::for_case("rec", 1);
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_form_works(x in 0u32..10, s in "[a-z]{1,4}", opt in crate::option::of(any::<bool>())) {
            prop_assert!(x < 10);
            prop_assert!((1..=4).contains(&s.len()));
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
            let _ = opt;
        }
    }
}
