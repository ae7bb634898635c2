//! Offline stand-in for `proptest`.
//!
//! Runs each property over `cases` deterministic pseudo-random inputs and,
//! on failure, reports the inputs that broke it. No shrinking — the
//! failing case is printed as-is. Covered strategy surface: integer and
//! float ranges, `any::<T>()`, tuples, `prop_map`, `prop::collection::vec`,
//! and simple `"[class]{lo,hi}"` string patterns.

#![warn(missing_docs)]

/// Deterministic generator backing every strategy (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name so every test gets a stable stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h = 0xcbf29ce484222325_u64; // FNV-1a
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        self.next_u64() % bound
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// A generator of random values for one property argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for MapStrategy<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }
    )*};
}
float_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws from the full domain of `Self`.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, sign-balanced, wide dynamic range.
        let mag = (rng.unit_f64() * 600.0) - 300.0;
        let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
        sign * 10f64.powf(mag / 10.0)
    }
}

/// Strategy over `T`'s full domain.
#[derive(Debug, Clone)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T` (`any::<u64>()`, ...).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Simple pattern strategy: `"[class]{lo,hi}"` with ranges (`a-z`),
/// literal characters, and `\n`/`\t`/`\\` escapes inside the class.
/// Any other pattern generates itself literally.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        match parse_pattern(self) {
            Some((chars, lo, hi)) if !chars.is_empty() => {
                let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                (0..len)
                    .map(|_| chars[rng.below(chars.len() as u64) as usize])
                    .collect()
            }
            _ => (*self).to_owned(),
        }
    }
}

fn parse_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = rest[..close].chars().collect();
    let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match counts.split_once(',') {
        Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
        None => {
            let n = counts.trim().parse().ok()?;
            (n, n)
        }
    };
    let mut chars = Vec::new();
    let mut i = 0;
    while i < class.len() {
        match class[i] {
            '\\' if i + 1 < class.len() => {
                chars.push(match class[i + 1] {
                    'n' => '\n',
                    't' => '\t',
                    c => c,
                });
                i += 2;
            }
            c if i + 2 < class.len() && class[i + 1] == '-' => {
                let end = class[i + 2];
                for v in (c as u32)..=(end as u32) {
                    chars.extend(char::from_u32(v));
                }
                i += 3;
            }
            c => {
                chars.push(c);
                i += 1;
            }
        }
    }
    Some((chars, lo, hi))
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for vectors with random length in `len` and elements
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };

    /// Namespace mirror so `prop::collection::vec` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { ... }`
/// becomes a `#[test]` running the body over random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation expansion for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! proptest_body {
    { ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )* } => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = [$(format!("{} = {:?}", stringify!($arg), &$arg)),+].join(", ");
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(move || {
                    $body
                }));
                if let ::std::result::Result::Err(cause) = outcome {
                    eprintln!(
                        "proptest {}: case {case}/{} failed with inputs: {inputs}",
                        stringify!($name),
                        config.cases,
                    );
                    ::std::panic::resume_unwind(cause);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::deterministic("t");
        for _ in 0..200 {
            let v = (3_usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (0.5_f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
            let (a, b) = (1_u32..4, any::<u64>()).generate(&mut rng);
            assert!((1..4).contains(&a));
            let _ = b;
            let neg = (-18_i32..6).generate(&mut rng);
            assert!((-18..6).contains(&neg));
        }
    }

    #[test]
    fn string_pattern_respects_class_and_length() {
        let mut rng = TestRng::deterministic("s");
        let strat = "[a-c0-1.\\n]{2,5}";
        for _ in 0..100 {
            let s = strat.generate(&mut rng);
            assert!((2..=5).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| "abc01.\n".contains(c)), "{s:?}");
        }
    }

    #[test]
    fn vec_and_map_compose() {
        let mut rng = TestRng::deterministic("v");
        let strat = collection::vec(0.5_f64..100.0, 2..40).prop_map(|v| v.len());
        for _ in 0..50 {
            let n = strat.generate(&mut rng);
            assert!((2..40).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_smoke(x in 1_usize..10, seed in any::<u64>()) {
            prop_assert!((1..10).contains(&x));
            prop_assert_eq!(seed, seed);
        }
    }
}
