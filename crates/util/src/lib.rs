//! # ratatouille-util
//!
//! The workspace's zero-dependency determinism layer. The offline build
//! environment has no crate registry, so everything the repo previously
//! pulled from crates.io for randomness and property testing lives
//! here instead, implemented on `std` alone:
//!
//! * [`rng`] — a seedable SplitMix64-seeded xoshiro256** PRNG with the
//!   `StdRng` / [`rng::SeedableRng`] / [`rng::Rng`] / [`rng::RngExt`]
//!   surface the workspace uses. Integer-only state transitions make
//!   every stream bit-reproducible across platforms and Rust versions.
//! * [`proptest`] — a minimal property-testing harness: composable
//!   strategies (ranges, collections, pattern strings, tuples, map /
//!   flat-map), shrinking for integers, vectors and strings, a
//!   [`proptest!`]-style macro, and failure-seed replay via
//!   `RAT_PROPTEST_REPLAY`.
//! * [`accum`] — the blessed sequential f32 reduction helpers every
//!   result-affecting crate must use outside the tensor kernels
//!   (enforced by `xlint`'s `float-reduction-order` rule).
//! * [`collections`] — [`collections::DetMap`] / [`collections::DetSet`],
//!   fixed-hasher `HashMap`/`HashSet` aliases with run-to-run stable
//!   iteration order (enforced by `xlint`'s `forbidden-nondeterminism`
//!   rule).
//!
//! ## Seed policy
//!
//! Everything is deterministic by default. Property tests derive each
//! case seed from a fixed base seed, the property name and the case
//! index, so a bare `cargo test` is exactly reproducible; set
//! `RAT_PROPTEST_SEED` to explore a different universe of cases and
//! `RAT_PROPTEST_REPLAY=<seed>` to re-run a single reported failure.
#![warn(missing_docs)]

pub mod accum;
pub mod collections;
pub mod proptest;
pub mod rng;
