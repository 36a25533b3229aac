//! What every workload hands back from one timed section, and the checks
//! on outputs that are the same for all of them.

use crate::inputs::GenRequest;
use crate::spans::SpanLog;
use crate::stats::Fnv;
use crate::sut::Recipe;

/// One generate response, by the index of its request in the seeded list.
#[derive(Debug, Clone)]
pub struct Output {
    pub index: usize,
    pub recipe: Recipe,
}

/// One timed section.
#[derive(Default)]
pub struct Pass {
    /// Latency of every operation that completed and validated, in ms.
    pub latencies_ms: Vec<f64>,
    /// An open loop: the arrival schedule, not the system's speed, sets
    /// how many operations the pass holds.
    pub paced: bool,
    /// Operations that were sent and did not: transport error, timeout,
    /// unexpected status, malformed body, wrong `model` or `dtype`.
    pub failed: u64,
    pub wall_s: f64,
    /// Output tokens, counted by the benchmark (trained tokens for
    /// `train_medium`).
    pub out_tokens: u64,
    pub outputs: Vec<Output>,
    /// Per-layer numbers only this pass can know (occupancy, lag, …).
    pub layer: Vec<(&'static str, f64)>,
    pub spans: SpanLog,
    /// CPU burnt by the load generator's own threads.
    pub client_cpu_ms: f64,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64 + self.failed
    }

    pub fn sorted_latencies_ms(&self) -> Vec<f64> {
        crate::stats::sorted(self.latencies_ms.clone())
    }
}

pub trait Workload {
    /// Run operations for `seconds`; with `traced`, also record spans.
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass;

    /// Replay a sample of the pass's outputs alone through a fresh
    /// replica; returns (compared, differing).
    fn verify(&mut self, pass: &Pass, max_checks: usize) -> (usize, usize);

    /// Stop whatever the set-up started.
    fn stop(self: Box<Self>) {}
}

/// The digest covers the first requests of the list, which every run
/// completes whatever its speed, so it repeats exactly for a seed.
pub const DIGEST_PREFIX: usize = 64;

/// FNV-1a over title, ingredients and instructions of the first
/// [`DIGEST_PREFIX`] requests, in request order.
pub fn output_digest(outputs: &[Output]) -> (u64, usize) {
    let mut head: Vec<&Output> = outputs.iter().filter(|o| o.index < DIGEST_PREFIX).collect();
    head.sort_by_key(|o| o.index);
    let mut h = Fnv::new();
    for o in &head {
        h.write(o.recipe.title.as_bytes());
        o.recipe
            .ingredients
            .iter()
            .for_each(|s| h.write(s.as_bytes()));
        o.recipe
            .instructions
            .iter()
            .for_each(|s| h.write(s.as_bytes()));
    }
    (h.finish(), head.len())
}

/// Every eighth response, up to `max_checks`, replayed through `replay`
/// and compared byte for byte.
pub fn verify_sample(
    outputs: &[Output],
    requests: &[GenRequest],
    max_checks: usize,
    mut replay: impl FnMut(&GenRequest) -> Option<Recipe>,
) -> (usize, usize) {
    let mut sample: Vec<&Output> = outputs.iter().filter(|o| o.index % 8 == 3).collect();
    sample.sort_by_key(|o| o.index);
    sample.truncate(max_checks);
    let differing = sample
        .iter()
        .filter(|o| replay(&requests[o.index]).as_ref() != Some(&o.recipe))
        .count();
    (sample.len(), differing)
}
