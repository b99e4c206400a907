//! A minimal property-testing harness.
//!
//! Just enough of the proptest idea for this repository's suites:
//! composable [`Strategy`] values generate random inputs from a
//! [`TestRng`], the [`check_with`] runner drives a fixed number of
//! cases, and on failure a greedy shrinker minimizes the input before
//! panicking with the seed that replays the run.
//!
//! Replay: every failure message prints `UDMA_PROP_SEED=<n>`; setting
//! that variable reruns the exact same case sequence. `UDMA_PROP_CASES`
//! overrides the case count globally (useful for quick smoke runs or
//! overnight soaks).
//!
//! Shrinking is value-based and greedy: integers walk toward the low
//! end of their range, vectors drop chunks and then shrink elements in
//! place. Mapped strategies ([`Strategy::prop_map`]) do not shrink
//! through the map — the vector/tuple layers above them still do, which
//! in practice is what makes counterexamples readable.

use crate::rng::TestRng;
use std::fmt::Debug;
use std::ops::Range;
use std::rc::Rc;

/// Default number of cases per property (proptest's historical default).
pub const DEFAULT_CASES: u32 = 256;

/// Why a single case failed.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Human-readable assertion message.
    pub message: String,
}

impl CaseFailure {
    /// Creates a failure with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        CaseFailure { message: message.into() }
    }
}

/// The result of running one case of a property.
pub type CaseResult = Result<(), CaseFailure>;

/// A generator of random values with an optional shrinker.
pub trait Strategy: Clone {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. Candidates
    /// need not be regenerable by the strategy; they must only be valid
    /// inputs to the property.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Maps generated values through `f` (no shrinking through the map).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Clone + Debug,
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so heterogeneous strategies with the
    /// same value type can be combined (see [`OneOf`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        BoxedStrategy { inner: Rc::new(self) }
    }
}

/// Object-safe mirror of [`Strategy`] used by [`BoxedStrategy`].
trait DynStrategy<V> {
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
    fn shrink_dyn(&self, value: &V) -> Vec<V>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
    fn shrink_dyn(&self, value: &S::Value) -> Vec<S::Value> {
        self.shrink(value)
    }
}

/// A type-erased strategy ([`Strategy::boxed`]).
pub struct BoxedStrategy<V> {
    inner: Rc<dyn DynStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy { inner: Rc::clone(&self.inner) }
    }
}

impl<V: Clone + Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate_dyn(rng)
    }
    fn shrink(&self, value: &V) -> Vec<V> {
        self.inner.shrink_dyn(value)
    }
}

/// Always yields a clone of the given value; never shrinks.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Integer ranges are strategies: `0u64..8` generates uniformly and
/// shrinks toward the range start.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let (lo, v) = (self.start, *value);
                if v <= lo {
                    return Vec::new();
                }
                let mut out = vec![lo];
                let mid = lo + (v - lo) / 2;
                if mid != lo {
                    out.push(mid);
                }
                if v - 1 != mid {
                    out.push(v - 1);
                }
                out
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// Full-range strategy behind [`any`]: uniform bits, shrinking toward
/// zero by halving.
#[derive(Clone, Debug, Default)]
pub struct AnyInt<T> {
    _marker: std::marker::PhantomData<T>,
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyInt<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                if v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0, v / 2];
                out.push(v - 1);
                out.dedup();
                out
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64);

/// `any::<bool>()`: fair coin, `true` shrinks to `false`.
#[derive(Clone, Debug, Default)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        self::bool_from_bit(rng)
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

fn bool_from_bit(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 1
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy [`any`] returns for this type.
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = AnyInt<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyInt::default()
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64);

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> Self::Strategy {
        AnyBool
    }
}

/// The full domain of `T`: `any::<u64>()`, `any::<bool>()`, …
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// [`Strategy::prop_map`]'s output.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among several strategies with the same value type
/// (build with the [`one_of!`](crate::one_of) macro). Shrink candidates
/// are the union of every branch's candidates.
pub struct OneOf<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> OneOf<V> {
    /// Creates a choice among the given (non-empty) options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "one_of! needs at least one option");
        OneOf { options }
    }
}

impl<V> Clone for OneOf<V> {
    fn clone(&self) -> Self {
        OneOf { options: self.options.clone() }
    }
}

impl<V: Clone + Debug + 'static> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.gen_index(self.options.len());
        self.options[idx].generate(rng)
    }
    fn shrink(&self, value: &V) -> Vec<V> {
        self.options.iter().flat_map(|o| o.shrink(value)).collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// Vectors of `elem`-generated values with length drawn from `len`.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec length range is empty");
    VecStrategy { elem, len }
}

/// [`vec()`]'s output: generates `Vec<S::Value>`, shrinks by dropping
/// chunks/elements (never below the minimum length) and then by
/// shrinking elements in place.
#[derive(Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let min = self.len.start;
        let n = value.len();
        // 1. Structural: drop the front half, the back half, then each
        //    element individually — biggest cuts first, so the greedy
        //    loop converges in O(log n) rounds on size.
        if n > min {
            let half = (n / 2).max(min);
            if half < n {
                out.push(value[n - half..].to_vec());
                out.push(value[..half].to_vec());
            }
            if n > min {
                for i in 0..n {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
        }
        // 2. Element-wise: one shrunk element at a time.
        for (i, item) in value.iter().enumerate() {
            for cand in self.elem.shrink(item) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Cases to run before declaring the property passed.
    pub cases: u32,
    /// Cap on candidate evaluations during shrinking.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: DEFAULT_CASES, max_shrink_steps: 4096 }
    }
}

/// FNV-1a over the property name: a stable per-property default seed,
/// so runs are reproducible without any environment setup.
fn default_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("{key}={raw:?} is not a u64"),
    }
}

/// Runs `test` against [`Config::default`] (see [`check_with`]).
pub fn check<S: Strategy>(name: &str, strategy: S, test: impl Fn(&S::Value) -> CaseResult) {
    check_with(Config::default(), name, strategy, test);
}

/// Runs `test` over `cfg.cases` generated inputs; on failure, shrinks
/// greedily and panics with the minimal input and the replay seed.
///
/// Environment overrides: `UDMA_PROP_SEED` pins the seed (replay),
/// `UDMA_PROP_CASES` overrides the case count.
pub fn check_with<S: Strategy>(
    cfg: Config,
    name: &str,
    strategy: S,
    test: impl Fn(&S::Value) -> CaseResult,
) {
    let seed = env_u64("UDMA_PROP_SEED").unwrap_or_else(|| default_seed(name));
    let cases = env_u64("UDMA_PROP_CASES").map_or(cfg.cases, |c| c as u32);
    let mut rng = TestRng::seed_from_u64(seed);
    for case in 0..cases {
        let value = strategy.generate(&mut rng);
        if let Err(failure) = test(&value) {
            let (min_value, min_failure, steps) =
                shrink_failure(&strategy, value, failure, &test, cfg.max_shrink_steps);
            panic!(
                "property `{name}` failed at case {case}/{cases} (seed {seed})\n\
                 replay with: UDMA_PROP_SEED={seed}\n\
                 minimal input (after {steps} shrink steps): {min_value:#?}\n\
                 failure: {}",
                min_failure.message
            );
        }
    }
}

/// Greedy shrink: repeatedly adopt the first candidate that still
/// fails, until no candidate fails or the step budget runs out.
fn shrink_failure<S: Strategy>(
    strategy: &S,
    mut current: S::Value,
    mut failure: CaseFailure,
    test: &impl Fn(&S::Value) -> CaseResult,
    max_steps: u32,
) -> (S::Value, CaseFailure, u32) {
    let mut steps = 0;
    'outer: loop {
        for cand in strategy.shrink(&current) {
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(f) = test(&cand) {
                current = cand;
                failure = f;
                continue 'outer;
            }
        }
        break;
    }
    (current, failure, steps)
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::CaseFailure::new(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::CaseFailure::new(format!(
                "{} ({}:{})",
                format_args!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    l == r,
                    "assertion failed: `{:?}` == `{:?}`: {}",
                    l,
                    r,
                    format_args!($($fmt)+)
                );
            }
        }
    };
}

/// Fails the current property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    l != r,
                    "assertion failed: `{:?}` != `{:?}`: {}",
                    l,
                    r,
                    format_args!($($fmt)+)
                );
            }
        }
    };
}

/// Uniform choice among strategies that share a value type:
/// `one_of![Just(A), (0u64..4).prop_map(f)]`.
#[macro_export]
macro_rules! one_of {
    ($($strat:expr),+ $(,)?) => {
        $crate::prop::OneOf::new(vec![$($crate::prop::Strategy::boxed($strat)),+])
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs; use
/// `prop_assert!`-family macros inside the body. An optional leading
/// `config(cases = N);` sets the case count for every property in the
/// block.
///
/// ```
/// udma_testkit::props! {
///     config(cases = 64);
///
///     /// Addition commutes.
///     fn add_commutes(a in 0u64..1000, b in 0u64..1000) {
///         udma_testkit::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! props {
    (config(cases = $cases:expr); $($rest:tt)*) => {
        $crate::__props_impl! { $cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__props_impl! { $crate::prop::DEFAULT_CASES; $($rest)* }
    };
}

/// Implementation detail of [`props!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __props_impl {
    ($cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let __strategy = ($($strat,)+);
            $crate::prop::check_with(
                $crate::prop::Config { cases: $cases, ..::std::default::Default::default() },
                concat!(module_path!(), "::", stringify!($name)),
                __strategy,
                |__case| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(__case);
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_strategy_generates_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        let s = 5u64..10;
        for _ in 0..1000 {
            let v = s.generate(&mut rng);
            assert!((5..10).contains(&v));
        }
    }

    #[test]
    fn range_shrink_moves_toward_start() {
        let s = 5u64..100;
        for cand in s.shrink(&40) {
            assert!((5..40).contains(&cand), "candidate {cand} not smaller");
        }
        assert!(s.shrink(&5).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec(0u64..10, 2..8);
        let value = s.generate(&mut TestRng::seed_from_u64(2));
        for cand in s.shrink(&value) {
            assert!(cand.len() >= 2, "shrunk below min length: {cand:?}");
        }
    }

    #[test]
    fn one_of_only_yields_options() {
        let s = crate::one_of![Just(1u64), Just(5u64), Just(9u64)];
        let mut rng = TestRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen, [1u64, 5, 9].into_iter().collect());
    }

    #[test]
    fn tuple_shrink_changes_one_component() {
        let s = (0u64..10, 0u64..10);
        let cands = s.shrink(&(4, 6));
        assert!(!cands.is_empty());
        for (a, b) in cands {
            assert!((a == 4) ^ (b == 6) || (a < 4 && b == 6) || (a == 4 && b < 6));
        }
    }

    #[test]
    fn check_passes_a_tautology() {
        check("tautology", 0u64..100, |&v| {
            prop_assert!(v < 100);
            Ok(())
        });
    }

    #[test]
    fn failing_property_panics_with_seed_and_minimal_input() {
        let result = std::panic::catch_unwind(|| {
            check("find_big", crate::prop::vec(0u64..1000, 1..64), |v| {
                prop_assert!(!v.iter().any(|&x| x >= 10), "contains a big element");
                Ok(())
            });
        });
        let msg = *result.expect_err("property must fail").downcast::<String>().unwrap();
        assert!(msg.contains("UDMA_PROP_SEED="), "no replay seed in: {msg}");
        // Greedy shrinking must reach the canonical minimal
        // counterexample: a single element equal to 10.
        assert!(msg.contains("[\n    10,\n]") || msg.contains("[10]"), "not minimal: {msg}");
    }
}
