//! Value-generation strategies (no shrinking).

use crate::test_runner::TestRng;
use rand::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then uses it to pick a second strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Discards generated values failing `pred` (re-rolls up to 1000 times).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// A boxed, type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

/// Boxes a strategy (helper used by [`crate::prop_oneof!`]).
pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
    Box::new(s)
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
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

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
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

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.whence
        );
    }
}

/// Weighted choice among boxed strategies; built by [`crate::prop_oneof!`].
pub struct Union<V: Debug> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V: Debug> Debug for Union<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Union")
            .field("arms", &self.arms.len())
            .finish()
    }
}

impl<V: Debug> Union<V> {
    /// Builds a union from `(weight, strategy)` pairs.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! weights must not all be zero");
        Self { arms, total }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let mut roll = rng.rng().gen_range(0..self.total);
        for (w, s) in &self.arms {
            if roll < *w as u64 {
                return s.generate(rng);
            }
            roll -= *w as u64;
        }
        unreachable!("weighted roll exceeded total weight")
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5),
);
