//! Offline shim for `proptest`: generate-only property testing.
//!
//! Differences from upstream that test authors should know:
//!
//! - **No shrinking.** A failing case panics with the generated inputs'
//!   `Debug` rendering (tests bind inputs by name, and assertion messages
//!   include them), but is not minimised. As the panic unwinds the runner
//!   prints one line naming the test, the case index, the case count and
//!   the effective `PROPTEST_SEED`; `PROPTEST_CASES=<index + 1>` replays
//!   up to exactly that case.
//! - Generation is deterministic: each test derives its RNG seed from the
//!   test name, so reruns reproduce the same cases. Set `PROPTEST_SEED`
//!   to explore a different stream, `PROPTEST_CASES` to change volume.
//! - The string strategy supports the regex-lite subset the workspace
//!   uses: concatenations of literals and `[a-z]`-style classes, each
//!   optionally quantified with `{n}` / `{m,n}` / `?` / `*` / `+`
//!   (unbounded quantifiers cap at 16 repeats).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Failure type for helper functions returning `Result<(), TestCaseError>`.
/// Under this shim `prop_assert!` panics rather than returning `Err`, so
/// this exists purely so upstream-style signatures typecheck.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-test RNG (xoshiro via the rand shim).
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeded from the test name (stable across runs) XOR the optional
    /// `PROPTEST_SEED` environment override.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.parse::<u64>() {
                h ^= extra;
            }
        }
        TestRng(StdRng::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Resolve the effective case count (`PROPTEST_CASES` overrides config).
pub fn resolved_cases(cfg: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(cfg.cases)
}

/// Names the case a property test is in. The runner holds one per case;
/// dropped during a panic — a failed `prop_assert!`, an `Err` return or a
/// strategy that panicked — it prints the line that replays the case.
pub struct CaseGuard {
    /// The test function's name.
    pub test: &'static str,
    /// Index of the running case.
    pub case: u32,
    /// Cases the run was going to draw.
    pub cases: u32,
}

impl CaseGuard {
    /// The replay line: the first `case + 1` cases of the same seed end on
    /// this one, because each test draws all its inputs from one stream.
    pub fn replay_hint(&self) -> String {
        let seed = std::env::var("PROPTEST_SEED").unwrap_or_else(|_| "unset".into());
        format!(
            "proptest: {} failed at case {} of {} (PROPTEST_SEED {seed}); \
             PROPTEST_CASES={} replays it",
            self.test,
            self.case,
            self.cases,
            self.case + 1
        )
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            use std::io::Write;
            // A drop that runs during a panic must not panic itself.
            let _ = writeln!(std::io::stderr(), "{}", self.replay_hint());
        }
    }
}

/// A value generator. Unlike upstream there is no `ValueTree`/shrinking
/// layer: a strategy just draws a value from an RNG.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draw one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Regenerate until `f` accepts (giving up after 1000 draws).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, whence, f }
    }

    /// Type-erase for heterogeneous unions (`prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Strategy returning a constant.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn gen(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn gen(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.gen(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}` rejected 1000 consecutive draws", self.whence);
    }
}

/// Type-erased strategy (cheaply clonable).
pub struct BoxedStrategy<V>(Rc<dyn Strategy<Value = V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V: fmt::Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn gen(&self, rng: &mut TestRng) -> V {
        self.0.gen(rng)
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build from the already-boxed alternatives.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
        Union { options }
    }
}

impl<V: fmt::Debug> Strategy for Union<V> {
    type Value = V;
    fn gen(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].gen(rng)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: ranges, tuples, any::<T>(), regex-lite strings.
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.gen(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draw an unconstrained value.
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
    /// Full bit-pattern range (includes infinities and NaN, like
    /// upstream's unconstrained `any::<f64>()` in spirit).
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f32::from_bits(rng.next_u32())
    }
}

/// Marker strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// --- regex-lite string strategy -------------------------------------------

enum RegexPiece {
    Literal(char),
    Class(Vec<(char, char)>),
}

struct RegexAtom {
    piece: RegexPiece,
    min: usize,
    max: usize,
}

fn parse_regex_lite(pattern: &str) -> Vec<RegexAtom> {
    let mut chars = pattern.chars().peekable();
    let mut atoms = Vec::new();
    while let Some(c) = chars.next() {
        let piece = match c {
            '[' => {
                let mut ranges = Vec::new();
                let mut prev: Option<char> = None;
                loop {
                    let c = chars
                        .next()
                        .unwrap_or_else(|| panic!("unterminated character class in `{pattern}`"));
                    match c {
                        ']' => break,
                        '-' if prev.is_some() && chars.peek() != Some(&']') => {
                            let lo = prev.take().expect("range start");
                            let hi = chars.next().expect("range end");
                            ranges.push((lo, hi));
                        }
                        c => {
                            if let Some(p) = prev.replace(c) {
                                ranges.push((p, p));
                            }
                        }
                    }
                }
                if let Some(p) = prev {
                    ranges.push((p, p));
                }
                assert!(!ranges.is_empty(), "empty character class in `{pattern}`");
                RegexPiece::Class(ranges)
            }
            '\\' => RegexPiece::Literal(
                chars.next().unwrap_or_else(|| panic!("dangling escape in `{pattern}`")),
            ),
            c => RegexPiece::Literal(c),
        };
        // Optional quantifier.
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut body = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    body.push(c);
                }
                if let Some((m, n)) = body.split_once(',') {
                    let min = m.trim().parse().unwrap_or(0);
                    let max = n.trim().parse().unwrap_or(min + 16);
                    (min, max)
                } else {
                    let n = body
                        .trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad quantifier `{{{body}}}` in `{pattern}`"));
                    (n, n)
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 16)
            }
            Some('+') => {
                chars.next();
                (1, 16)
            }
            _ => (1, 1),
        };
        assert!(min <= max, "inverted quantifier in `{pattern}`");
        atoms.push(RegexAtom { piece, min, max });
    }
    atoms
}

impl Strategy for &'static str {
    type Value = String;

    /// Interpret the string as a regex-lite pattern and draw a matching
    /// string.
    fn gen(&self, rng: &mut TestRng) -> String {
        let atoms = parse_regex_lite(self);
        let mut out = String::new();
        for atom in &atoms {
            let reps = rng.gen_range(atom.min..=atom.max);
            for _ in 0..reps {
                match &atom.piece {
                    RegexPiece::Literal(c) => out.push(*c),
                    RegexPiece::Class(ranges) => {
                        let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
                        let c = char::from_u32(rng.gen_range(lo as u32..=hi as u32)).unwrap_or(lo);
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::fmt;
    use std::ops::Range;

    /// Element-count specification for [`vec()`].
    pub trait IntoSizeRange {
        /// Lower/upper bound (upper exclusive).
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Build a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = len.bounds();
        assert!(min < max, "empty length range for collection::vec");
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.min..self.max);
            (0..n).map(|_| self.element.gen(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Shim `proptest!`: expands each case into a `#[test]` that draws
/// `cases` inputs and runs the body. No shrinking on failure.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr);
        $(
            #[test]
            fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __cases = $crate::resolved_cases(&__cfg);
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..__cases {
                    let _guard =
                        $crate::CaseGuard { test: stringify!($name), case: __case, cases: __cases };
                    $(
                        let $arg = $crate::Strategy::gen(&($strat), &mut __rng);
                    )+
                    // Closure so bodies may use `?` with TestCaseError,
                    // as under upstream proptest.
                    let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__e) = __outcome {
                        panic!("proptest case {__case} failed: {__e}");
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Shim `prop_assert!`: plain `assert!` (panics instead of returning a
/// `TestCaseError`; equivalent under this runner).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Shim `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Shim `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Shim `prop_oneof!`: uniform choice among alternatives.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_hint_names_test_case_count_and_the_replaying_case_count() {
        let hint = CaseGuard { test: "prop_x", case: 6, cases: 64 }.replay_hint();
        assert!(hint.contains("prop_x failed at case 6 of 64"), "{hint}");
        assert!(hint.contains("PROPTEST_SEED"), "{hint}");
        assert!(hint.ends_with("PROPTEST_CASES=7 replays it"), "{hint}");
        assert!(!hint.contains('\n'), "one line: {hint}");
    }

    #[test]
    fn a_panicking_case_still_unwinds_through_the_guard() {
        let died = std::thread::spawn(|| {
            let _guard = CaseGuard { test: "prop_unwinds", case: 0, cases: 1 };
            panic!("the property failed");
        })
        .join();
        assert!(died.is_err(), "the guard reports, it does not swallow the panic");
    }
}
