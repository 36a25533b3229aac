//! Deterministic hash collections.
//!
//! `std`'s `HashMap`/`HashSet` default to `RandomState`, which seeds the
//! hasher per process — iteration order changes run to run, and anything
//! result-affecting that iterates (BPE pair counting, vocab construction,
//! n-gram tallies) silently loses reproducibility. [`DetMap`]/[`DetSet`]
//! are the same containers with a **fixed-key** SipHash-1-3 build
//! (`DefaultHasher::new()`, which the standard library documents as
//! identical for every instance): same insertions → same iteration
//! order, every run on a given toolchain.
//!
//! `clippy.toml` bans the std types in every crate whose code feeds a
//! generation, a metric or a served response (`scripts/ci.sh` runs it),
//! and its reason points here; this module is where they are allowed.
//! DoS-resistance is what the random seed buys and what we give up —
//! fine for trusted, in-repo corpora. No map in the tree is keyed by
//! network input: serving's route table is a `BTreeMap` of registered
//! routes.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// A `BuildHasher` producing fixed-key hashers: every instance, every
/// process, the same hash function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DefaultHasher;

    fn build_hasher(&self) -> DefaultHasher {
        // `DefaultHasher::new()` is specified to create identical
        // instances, unlike `RandomState`'s per-process keys.
        DefaultHasher::new()
    }
}

/// `HashMap` with deterministic iteration order for a given insertion
/// sequence. Construct with `DetMap::default()` or [`det_map`].
pub type DetMap<K, V> = HashMap<K, V, DetState>;

/// `HashSet` with deterministic iteration order for a given insertion
/// sequence. Construct with `DetSet::default()` or [`det_set`].
pub type DetSet<T> = HashSet<T, DetState>;

/// An empty [`DetMap`] (the `HashMap::new()` replacement).
pub fn det_map<K, V>() -> DetMap<K, V> {
    HashMap::with_hasher(DetState)
}

/// An empty [`DetSet`] (the `HashSet::new()` replacement).
pub fn det_set<T>() -> DetSet<T> {
    HashSet::with_hasher(DetState)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_a_pure_function_of_insertions() {
        let build = || {
            let mut m = det_map();
            for i in 0..256u32 {
                m.insert(i.wrapping_mul(2654435761), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());

        let sets = || {
            let mut s = det_set();
            for w in ["flour", "water", "salt", "yeast", "olive oil"] {
                s.insert(w);
            }
            s.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(sets(), sets());
    }

    #[test]
    fn behaves_like_a_map() {
        let mut m: DetMap<&str, usize> = det_map();
        *m.entry("a").or_insert(0) += 1;
        *m.entry("a").or_insert(0) += 1;
        assert_eq!(m.get("a"), Some(&2));
        let mut s: DetSet<u8> = det_set();
        assert!(s.insert(1));
        assert!(!s.insert(1));
    }
}
