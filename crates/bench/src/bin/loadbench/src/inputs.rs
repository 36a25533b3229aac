//! Inputs, made from `--seed` alone: the program under test only ever sees
//! the generated requests.

use std::collections::HashSet;

use crate::sut::Prng;

/// One generate request. `seed` pins the server's sampler, so by the
/// repository's determinism contract the work it causes is fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    pub ingredients: Vec<String>,
    pub seed: u64,
    pub int8: bool,
}

/// Request seeds stay below 2^40 so they survive the server's
/// JSON-number (f64) parsing exactly.
const SEED_SPACE: usize = 1 << 40;

/// Number of popular pantries the shared workloads draw from, and their
/// size: 12 ingredients tokenize to three or more 16-token KV blocks of
/// shareable prefix.
pub const POPULAR_PANTRIES: usize = 8;
const POPULAR_PANTRY_SIZE: usize = 12;

fn distinct_ingredients(rng: &mut Prng, names: &[&str], n: usize) -> Vec<String> {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n {
        let i = rng.below(names.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.into_iter().map(|i| names[i].to_string()).collect()
}

/// With `mixed_dtype`, every fourth request asks for int8 weights. An even
/// split would put the median latency on the boundary between the int8
/// and the f32 cluster, where it jumps from run to run.
const INT8_EVERY: usize = 4;

/// `n` requests with 2–5 random ingredients each. No two start with the
/// same ordered pair of ingredients, so no two prompts share a first KV
/// block: this is the bypass workload for the prefix cache.
pub fn unique_requests(names: &[&str], seed: u64, n: usize, mixed_dtype: bool) -> Vec<GenRequest> {
    assert!(
        n < names.len() * (names.len() - 1) / 2,
        "not enough distinct leading pairs"
    );
    let mut rng = Prng::new(seed ^ 0x756e_6971);
    let mut seen: HashSet<(String, String)> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let size = 2 + rng.below(4);
        let ingredients = distinct_ingredients(&mut rng, names, size);
        if !seen.insert((ingredients[0].clone(), ingredients[1].clone())) {
            continue;
        }
        let seed = rng.below(SEED_SPACE) as u64;
        out.push(GenRequest {
            ingredients,
            seed,
            int8: mixed_dtype && out.len() % INT8_EVERY == INT8_EVERY - 1,
        });
    }
    out
}

/// Index in `0..n` with probability proportional to `1/(index+1)`.
fn zipf(rng: &mut Prng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.unit() * total;
    for k in 0..n {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            return k;
        }
    }
    n - 1
}

/// `n` requests over [`POPULAR_PANTRIES`] fixed 12-ingredient pantries,
/// picked Zipf(s=1): most prompts repeat an earlier prompt token for
/// token, only the sampling seed differs.
pub fn shared_requests(names: &[&str], seed: u64, n: usize) -> Vec<GenRequest> {
    let mut rng = Prng::new(seed ^ 0x7368_6172);
    let pantries: Vec<Vec<String>> = (0..POPULAR_PANTRIES)
        .map(|_| distinct_ingredients(&mut rng, names, POPULAR_PANTRY_SIZE))
        .collect();
    (0..n)
        .map(|_| {
            let ingredients = pantries[zipf(&mut rng, POPULAR_PANTRIES)].clone();
            GenRequest {
                ingredients,
                seed: rng.below(SEED_SPACE) as u64,
                int8: false,
            }
        })
        .collect()
}

/// Due times (ns from the start of the timed section) of an open loop
/// that sends `burst` requests at once every `period_s`, whether or not
/// earlier ones have completed. Bursts are far enough apart for the
/// server to go idle between them, so a slow spell is not carried over
/// from one to the next the way a queue carries it.
pub fn burst_schedule(burst: usize, period_s: f64, seconds: f64) -> Vec<u64> {
    let bursts = (seconds / period_s).floor() as usize;
    (0..bursts * burst)
        .map(|k| ((k / burst) as f64 * period_s * 1e9) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<&'static str> {
        crate::sut::ingredient_names()
    }

    #[test]
    fn burst_schedule_sends_whole_bursts_inside_the_window() {
        let due = burst_schedule(4, 0.5, 10.0);
        assert_eq!(due.len(), 80);
        assert_eq!(&due[..5], &[0, 0, 0, 0, 500_000_000]);
        assert_eq!(due[79], 9_500_000_000);
        assert_eq!(burst_schedule(4, 0.5, 3.4).len(), 24);
    }

    #[test]
    fn zipf_mix_is_reproducible_and_favours_the_head() {
        let a = shared_requests(&names(), 3, 400);
        assert_eq!(a, shared_requests(&names(), 3, 400));
        assert_ne!(a, shared_requests(&names(), 4, 400));
        let mut pantries: Vec<&Vec<String>> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for r in &a {
            assert_eq!(r.ingredients.len(), POPULAR_PANTRY_SIZE);
            match pantries.iter().position(|p| *p == &r.ingredients) {
                Some(i) => counts[i] += 1,
                None => {
                    pantries.push(&r.ingredients);
                    counts.push(1);
                }
            }
        }
        assert!(pantries.len() <= POPULAR_PANTRIES);
        // The most popular pantry holds 1/H8 = 37% of the mass.
        let top = *counts.iter().max().unwrap();
        assert!(
            (100..=200).contains(&top),
            "top pantry drawn {top} times of 400"
        );
    }

    #[test]
    fn unique_requests_never_repeat_a_leading_pair() {
        let a = unique_requests(&names(), 11, 600, true);
        assert_eq!(a, unique_requests(&names(), 11, 600, true));
        assert_ne!(a, unique_requests(&names(), 12, 600, true));
        let pairs: HashSet<_> = a
            .iter()
            .map(|r| (&r.ingredients[0], &r.ingredients[1]))
            .collect();
        assert_eq!(pairs.len(), a.len());
        assert!(a.iter().all(|r| (2..=5).contains(&r.ingredients.len())));
        assert!(a.iter().enumerate().all(|(i, r)| r.int8 == (i % 4 == 3)));
        assert!(a.iter().all(|r| r.seed < 1 << 40));
        assert!(unique_requests(&names(), 11, 10, false)
            .iter()
            .all(|r| !r.int8));
    }
}
