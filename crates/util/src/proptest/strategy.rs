//! Composable value generators with shrinking.
//!
//! A [`Strategy`] produces random values of one type and, for the types
//! where it is meaningful (integers, floats, vectors, strings), a list
//! of *simpler* candidate values used to shrink a failing input. Mapped
//! and flat-mapped strategies generate but do not shrink — the function
//! cannot be inverted — which matches how the workspace uses them
//! (composite fixtures whose components are already small).

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use crate::rng::{RngExt, StdRng};

/// A generator of test values, with optional shrinking.
pub trait Strategy: Clone {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Generate one value from the given deterministic generator.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. An empty
    /// vector means the strategy cannot shrink this value further.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Transform generated values with `f` (no shrinking through `f`).
    fn prop_map<O, F>(self, f: F) -> Map<Self, O>
    where
        O: Clone + Debug,
        F: Fn(Self::Value) -> O + 'static,
    {
        Map {
            inner: self,
            f: Rc::new(f),
        }
    }

    /// Build a second strategy from each generated value and draw from
    /// it (no shrinking through `f`).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, S2>
    where
        S2: Strategy,
        F: Fn(Self::Value) -> S2 + 'static,
    {
        FlatMap {
            inner: self,
            f: Rc::new(f),
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S: Strategy, O> {
    inner: S,
    f: Rc<dyn Fn(S::Value) -> O>,
}

impl<S: Strategy, O> Clone for Map<S, O> {
    fn clone(&self) -> Self {
        Map {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<S: Strategy, O: Clone + Debug> Strategy for Map<S, O> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S: Strategy, S2> {
    inner: S,
    f: Rc<dyn Fn(S::Value) -> S2>,
}

impl<S: Strategy, S2> Clone for FlatMap<S, S2> {
    fn clone(&self) -> Self {
        FlatMap {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
}

impl<S: Strategy, S2: Strategy> Strategy for FlatMap<S, S2> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        let source = self.inner.generate(rng);
        (self.f)(source).generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                if v != lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    if v - 1 != lo && (out.is_empty() || *out.last().unwrap() != v - 1) {
                        out.push(v - 1);
                    }
                }
                out
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                (*self.start()..(*self.end()).saturating_add(1)).shrink(value)
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                // shrink toward zero if in range, else toward the start
                let anchor: $t = if (self.start..self.end).contains(&0.0) {
                    0.0
                } else {
                    self.start
                };
                if v != anchor {
                    out.push(anchor);
                    let mid = anchor + (v - anchor) / 2.0;
                    if mid != anchor && mid != v {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

/// A size specification for collections: `n`, `a..b` or `a..=b`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::*;

    /// A vector of `size` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// See [`collection::vec`].
#[derive(Clone)]
pub struct VecStrategy<S: Strategy> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.random_range(self.size.min..=self.size.max);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // 1. Structural shrinks: shorter vectors (never below the minimum).
        if len > self.size.min {
            let half = (len / 2).max(self.size.min);
            if half < len {
                out.push(value[..half].to_vec());
            }
            out.push(value[..len - 1].to_vec());
            if len >= 2 {
                // drop the first element instead of the last
                out.push(value[1..].to_vec());
            }
        }
        // 2. Elementwise shrinks: simplify one position at a time (a few
        //    candidates each, a bounded number of positions).
        for i in 0..len.min(8) {
            for simpler in self.elem.shrink(&value[i]).into_iter().take(3) {
                let mut v = value.clone();
                v[i] = simpler;
                out.push(v);
            }
        }
        out
    }
}

/// A strategy for any value of a supported primitive type, over the
/// type's full domain: `any::<u8>()`.
pub fn any<T>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// See [`any`].
#[derive(Clone)]
pub struct AnyStrategy<T>(PhantomData<T>);

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random()
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    let mid = v / 2;
                    if mid != 0 && mid != v {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )*};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyStrategy<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.random()
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident/$idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx).into_iter().take(3) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng;

    #[test]
    fn int_range_generates_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = 5usize..50;
        for _ in 0..500 {
            assert!((5..50).contains(&s.generate(&mut rng)));
        }
    }

    #[test]
    fn int_shrink_moves_toward_start() {
        let s = 5usize..50;
        let cands = s.shrink(&40);
        assert!(cands.contains(&5));
        assert!(cands.iter().all(|&c| (5..40).contains(&c)));
        assert!(s.shrink(&5).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = collection::vec(0u8..10, 2..6);
        let v = vec![3, 7, 9, 1, 4];
        for cand in s.shrink(&v) {
            assert!(cand.len() >= 2, "{cand:?}");
            assert!(cand.len() <= v.len());
        }
        // shrinks exist and include a shorter vector
        assert!(s.shrink(&v).iter().any(|c| c.len() < v.len()));
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let s = (0u8..10, 0u8..10);
        let cands = s.shrink(&(4, 7));
        assert!(cands.iter().any(|&(a, b)| a < 4 && b == 7));
        assert!(cands.iter().any(|&(a, b)| a == 4 && b < 7));
    }

    #[test]
    fn map_and_flat_map_generate() {
        let mut rng = StdRng::seed_from_u64(2);
        let doubled = (1u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = doubled.generate(&mut rng);
            assert!(v % 2 == 0 && (2..20).contains(&v));
        }
        let pair = (1usize..4).prop_flat_map(|n| collection::vec(0u8..5, n..=n));
        for _ in 0..100 {
            let v = pair.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn float_shrink_targets_zero() {
        let s = -10.0f32..10.0;
        assert_eq!(s.shrink(&4.0)[0], 0.0);
        assert!(s.shrink(&0.0).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let s = collection::vec(0u32..1000, 0..20);
        let a = s.generate(&mut StdRng::seed_from_u64(9));
        let b = s.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
