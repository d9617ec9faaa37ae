//! In-tree stand-in for the subset of the `proptest` API used by the
//! workspace's property tests, so offline builds never touch a registry.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case reports the generated inputs
//!   verbatim; seeds are deterministic per test name, so failures
//!   reproduce exactly on re-run.
//! - **String "regex" strategies** ignore the pattern and generate
//!   arbitrary printable junk (plus quotes, braces, newlines) — which is
//!   precisely what the parser-totality fuzz tests want.
//! - Only the combinators the tests use exist: ranges, tuples,
//!   `prop::collection::{vec, btree_set}`, `prop::sample::select`,
//!   `any::<T>()`, and `Just`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 generator (the `rand` shim's) threaded
/// through strategies.
#[derive(Clone, Debug)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seed a generator; every stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// How many cases each property runs, set via
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[derive(Clone, Debug)]
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
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values (the shim keeps proptest's name but
/// drops shrinking entirely).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;
    /// Produce one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident/$i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / a / 0);
tuple_strategy!(A / a / 0, B / b / 1);
tuple_strategy!(A / a / 0, B / b / 1, C / c / 2);
tuple_strategy!(A / a / 0, B / b / 1, C / c / 2, D / d / 3);

/// A strategy producing one fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// String literals act as "regex" strategies. The shim ignores the
/// pattern and emits printable junk of length 0..=60 — adequate for
/// parser-totality fuzzing, where any input must be handled gracefully.
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const POOL: &[char] = &[
            'a',
            'b',
            'z',
            'A',
            'Z',
            '0',
            '9',
            '_',
            ' ',
            '\t',
            '\n',
            '"',
            '\\',
            '{',
            '}',
            '[',
            ']',
            ';',
            ',',
            '.',
            '@',
            '/',
            '*',
            '%',
            '\u{00e9}',
            '\u{4e16}',
            '\u{1F600}',
        ];
        let len = (rng.next_u64() % 61) as usize;
        (0..len)
            .map(|_| POOL[(rng.next_u64() as usize) % POOL.len()])
            .collect()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T` (`any::<u64>()`, `any::<bool>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Size specification for collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        let span = (self.hi_inclusive - self.lo) as u64 + 1;
        self.lo + (rng.next_u64() % span) as usize
    }
}

/// Collection strategies (`prop::collection::vec`, `...::btree_set`).
pub mod collection {
    use super::{BTreeSet, SizeRange, Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a random length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors of values from `element`, sized within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>`; duplicates collapse, so the
    /// final size may undershoot the requested range (as in proptest).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate sets of values from `element`, sized within `size`.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`prop::sample::select`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy choosing uniformly from a fixed list.
    pub struct SelectStrategy<T: Clone> {
        options: Vec<T>,
    }

    /// Choose uniformly among `options` (must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> SelectStrategy<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        SelectStrategy { options }
    }

    impl<T: Clone> Strategy for SelectStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[(rng.next_u64() as usize) % self.options.len()].clone()
        }
    }
}

/// Namespace mirror so `prop::collection::vec` paths work.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Everything a property test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestRng,
    };
}

/// Drives one property: seeds an RNG from the test name, runs
/// `config.cases` cases, and panics with the generated inputs on the
/// first failure. Called by the [`proptest!`] macro expansion.
pub fn run_property<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> (String, Result<(), String>),
{
    // FNV-1a over the test name: stable across runs and platforms.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed ^= u64::from(b);
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = TestRng::new(seed);
    for i in 0..config.cases {
        let (inputs, result) = case(&mut rng);
        if let Err(msg) = result {
            panic!(
                "property `{name}` failed at case {i}/{}:\n  {msg}\n  inputs: {inputs}",
                config.cases
            );
        }
    }
}

/// Declare property tests. Mirrors proptest's macro of the same name
/// for the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..10, ys in prop::collection::vec(any::<bool>(), 0..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_property(&$config, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&$strat, __rng);)+
                let __inputs = ::std::format!(
                    ::std::concat!($(::std::stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let __outcome: ::std::result::Result<(), ::std::string::String> =
                    (move || {
                        { $body }
                        Ok(())
                    })();
                (__inputs, __outcome)
            });
        }
        $crate::__proptest_items!(($config) $($rest)*);
    };
}

/// Assert inside a property; failures abort the case with its inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}: {}",
                ::std::stringify!($cond),
                ::std::format!($($fmt)+)
            ));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n    left: {:?}\n   right: {:?}",
                ::std::stringify!($left), ::std::stringify!($right), __l, __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`: {}\n    left: {:?}\n   right: {:?}",
                ::std::stringify!($left), ::std::stringify!($right),
                ::std::format!($($fmt)+), __l, __r
            ));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n    both: {:?}",
                ::std::stringify!($left),
                ::std::stringify!($right),
                __l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_collections_compose(
            x in 2u32..9,
            n in 1usize..=5,
            ys in prop::collection::vec((0usize..10, any::<bool>()), 0..6),
            pick in prop::sample::select(vec!["a", "b", "c"]),
            junk in "\\PC*",
        ) {
            prop_assert!((2..9).contains(&x));
            prop_assert!((1..=5).contains(&n));
            prop_assert!(ys.len() < 6);
            for (v, _flag) in &ys {
                prop_assert!(*v < 10, "v = {}", v);
            }
            prop_assert!(["a", "b", "c"].contains(&pick));
            prop_assert!(junk.chars().count() <= 60);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::new(5);
        let mut b = TestRng::new(5);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails`")]
    fn failures_panic_with_inputs() {
        crate::run_property(&ProptestConfig::with_cases(4), "always_fails", |_rng| {
            ("x = 1".to_string(), Err("nope".to_string()))
        });
    }
}
