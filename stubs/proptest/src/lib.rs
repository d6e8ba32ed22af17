//! Offline stand-in for `proptest`.
//!
//! Implements the strategy/macro subset the workspace's property tests use:
//! the [`Strategy`] trait with `prop_map`, range / `Just` / `any` / regex-lite
//! string strategies, `prop_oneof!`, `proptest::collection::{vec, btree_set}`,
//! and the `proptest!` / `prop_assert*` / `prop_assume!` macros. Cases are
//! generated from a deterministic per-test RNG (no shrinking, no persistence);
//! failures report the failing assertion like an ordinary panicking test.

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

pub mod test_runner;

use test_runner::TestRng;

/// Per-`proptest!` configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per property.
    pub cases: u32,
    /// Maximum `prop_assume!` rejections tolerated before the property is
    /// considered unsatisfiable.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 64,
            max_global_rejects: 1024,
        }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried, not failed.
    Reject,
    /// `prop_assert*!` failed with the given message.
    Fail(String),
}

/// A generator of arbitrary values.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through a function.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Boxes the strategy for heterogeneous composition (`prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A boxed strategy producing `T`.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of the given value.
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Creates a choice strategy.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
impl_range_strategy_float!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// String literals act as regex-lite string strategies.
///
/// Supported syntax: literal characters, `\x` escapes, `[a-z0-9_]` classes
/// and `{m}` / `{m,n}` repetition — the subset the workspace's tests use.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let alphabet: Vec<char> = match c {
            '[' => {
                let spec: Vec<char> = chars.by_ref().take_while(|&c| c != ']').collect();
                let mut class = Vec::new();
                let mut i = 0;
                while i < spec.len() {
                    // `lo-hi` range (the '-' must sit between two characters).
                    if i + 2 < spec.len() && spec[i + 1] == '-' {
                        class.extend(spec[i]..=spec[i + 2]);
                        i += 3;
                    } else {
                        class.push(spec[i]);
                        i += 1;
                    }
                }
                class
            }
            '\\' => vec![chars.next().unwrap_or('\\')],
            c => vec![c],
        };
        // Optional repetition.
        let (min, max) = if chars.peek() == Some(&'{') {
            chars.next();
            let spec: String = chars.by_ref().take_while(|&c| c != '}').collect();
            let mut parts = spec.splitn(2, ',');
            let m: usize = parts.next().unwrap_or("1").trim().parse().unwrap_or(1);
            let n: usize = parts
                .next()
                .map(|p| p.trim().parse().unwrap_or(m))
                .unwrap_or(m);
            (m, n.max(m))
        } else {
            (1, 1)
        };
        let count = min + rng.below((max - min + 1) as u64) as usize;
        for _ in 0..count {
            if alphabet.is_empty() {
                continue;
            }
            let i = rng.below(alphabet.len() as u64) as usize;
            out.push(alphabet[i]);
        }
    }
    out
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use super::*;

    /// Size specification for collection strategies.
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len =
                self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with *up to* the requested size
    /// (duplicates collapse, as in real proptest).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len =
                self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual `use proptest::prelude::*` surface.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests. See the crate docs for the supported shape.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( config = ($cfg:expr);
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                let mut passed = 0u32;
                let mut rejected = 0u32;
                while passed < config.cases {
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )*
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        Ok(()) => passed += 1,
                        Err($crate::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected <= config.max_global_rejects,
                                "too many prop_assume! rejections in {}",
                                stringify!($name)
                            );
                        }
                        Err($crate::TestCaseError::Fail(message)) => {
                            panic!("property {} failed: {}", stringify!($name), message);
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), left, right
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
                }
            }
        }
    };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                if *left == *right {
                    return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                        "assertion failed: `{} != {}`\n  both: {:?}",
                        stringify!($left), stringify!($right), left
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if *left == *right {
                    return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
                }
            }
        }
    };
}

/// Rejects the current case (retried with fresh inputs).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($strategy:expr),+ $(,)? ) => {
        $crate::OneOf::new(vec![ $( $crate::Strategy::boxed($strategy) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

        #[test]
        fn ranges_inclusive_and_exclusive(a in 3u32..10, b in 1usize..=4, f in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((1..=4).contains(&b));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn oneof_and_map_compose(s in prop_oneof![Just("a".to_string()), "[b-d]{2,3}"]) {
            prop_assert!(!s.is_empty());
            prop_assert!(s.chars().all(|c| ('a'..='d').contains(&c)), "got {s}");
        }

        #[test]
        fn collections_respect_sizes(
            v in crate::collection::vec(0u8..5, 2..6),
            set in crate::collection::btree_set(any::<u64>(), 0..10),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(set.len() < 10);
        }

        #[test]
        fn tuples_and_assume(pair in (1u32..5, any::<bool>())) {
            prop_assume!(pair.0 != 4);
            prop_assert_ne!(pair.0, 4);
            prop_assert_eq!(pair.0 < 5, true);
        }
    }

    #[test]
    fn pattern_generator_handles_escapes() {
        let mut rng = crate::test_runner::TestRng::deterministic("pattern");
        use crate::Strategy;
        for _ in 0..50 {
            let s = "[a-z]{2,4} \\+ [0-9]{1,2};".generate(&mut rng);
            let chars: Vec<char> = s.chars().collect();
            assert!(s.ends_with(';'), "got {s}");
            assert!(s.contains(" + "), "got {s}");
            assert!(chars[0].is_ascii_lowercase());
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics() {
        proptest! {
            #[allow(unused)]
            fn inner(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner();
    }
}
