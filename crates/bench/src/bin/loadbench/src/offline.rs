//! `offline_batch8_shared` / `offline_batch8_unique`: one thread drives
//! the batch engine directly — admit while a slot is free, then step —
//! so eight recipes are always in flight and `serving` does no work.

use std::collections::HashMap;

use crate::inputs::{shared_requests, unique_requests, GenRequest};
use crate::pass::{verify_sample, Output, Pass, Workload};
use crate::spans::SpanLog;
use crate::stats::now_ns;
use crate::sut::{self, Engine, Fixture};

/// More requests than any run can finish: 10 s at ~30 recipes/s is 300.
const LIST_LEN: usize = 2048;
const WARMUP_RECIPES: usize = 4;

pub struct Offline<'a> {
    fx: &'a Fixture,
    engine: Engine,
    requests: Vec<GenRequest>,
    next: usize,
}

impl<'a> Offline<'a> {
    pub fn new(fx: &'a Fixture, names: &[&str], seed: u64, shared: bool) -> Offline<'a> {
        let make = |seed, n| {
            if shared {
                shared_requests(names, seed, n)
            } else {
                unique_requests(names, seed, n, false)
            }
        };
        let mut engine = fx.engine();
        // Warm the allocator, the tensor pool and the code paths on
        // requests the timed list does not contain.
        for r in make(seed ^ 0x7761_726d, WARMUP_RECIPES) {
            engine
                .admit(&r.ingredients, r.seed)
                .expect("an empty engine admits");
        }
        drain(&mut engine);
        Offline {
            fx,
            engine,
            requests: make(seed, LIST_LEN),
            next: 0,
        }
    }
}

fn drain(engine: &mut Engine) {
    while engine.active() > 0 {
        engine.step();
    }
}

struct InFlight {
    index: usize,
    admit_start_ns: u64,
    admit_end_ns: u64,
    /// Start and end of every step this recipe took part in.
    steps: Vec<(u64, u64, u64)>,
}

impl Workload for Offline<'_> {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        // Recipes still decoding when the previous pass hit its deadline.
        drain(&mut self.engine);
        let mut pass = Pass::default();
        let mut spans = SpanLog::default();
        let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
        let (mut steps, mut active_sum, mut peak_reserved) = (0u64, 0u64, 0f64);
        let start = now_ns();
        let deadline = start + (seconds * 1e9) as u64;
        let mut now = start;
        while now < deadline {
            while self.engine.free_slots() > 0 && self.next < self.requests.len() {
                let r = &self.requests[self.next];
                let admit_start_ns = now_ns();
                let admitted = self.engine.admit(&r.ingredients, r.seed);
                let admit_end_ns = now_ns();
                match admitted {
                    Some(id) => {
                        in_flight.insert(
                            id,
                            InFlight {
                                index: self.next,
                                admit_start_ns,
                                admit_end_ns,
                                steps: Vec::new(),
                            },
                        );
                    }
                    None => pass.failed += 1,
                }
                self.next += 1;
            }
            if self.engine.active() == 0 {
                break; // request list exhausted
            }
            peak_reserved = peak_reserved.max(self.engine.blocks_reserved_share());
            let batch = self.engine.active() as u64;
            let step_start = now_ns();
            let finished = self.engine.step();
            now = now_ns();
            steps += 1;
            active_sum += batch;
            if traced {
                in_flight
                    .values_mut()
                    .for_each(|f| f.steps.push((step_start, now, batch)));
            }
            for (id, recipe) in finished {
                let Some(f) = in_flight.remove(&id) else {
                    continue;
                };
                pass.latencies_ms
                    .push((now - f.admit_start_ns) as f64 / 1e6);
                if traced {
                    let root =
                        spans.push("request", f.admit_start_ns, now, None, f.index as u64, 0);
                    spans.push(
                        "admit",
                        f.admit_start_ns,
                        f.admit_end_ns,
                        Some(root),
                        f.index as u64,
                        0,
                    );
                    for (a, b, batch) in f.steps {
                        spans.push("step", a, b, Some(root), f.index as u64, batch);
                    }
                }
                pass.outputs.push(Output {
                    index: f.index,
                    recipe,
                });
            }
        }
        pass.wall_s = (now - start) as f64 / 1e9;
        // Counted after the clock stops: tokenizing is the benchmark's work.
        pass.out_tokens = pass
            .outputs
            .iter()
            .map(|o| self.fx.count_tokens(&o.recipe) as u64)
            .sum();
        let recipes = pass.latencies_ms.len().max(1) as f64;
        pass.layer = vec![
            (
                "models.batch_occupancy",
                active_sum as f64 / (steps.max(1) * sut::max_batch() as u64) as f64,
            ),
            ("models.steps_per_recipe", steps as f64 / recipes),
            ("models.kv_blocks_peak_share", peak_reserved),
        ];
        println!(
            "pass: {} recipes admitted, {} finished, {} refused, {steps} engine steps in {:.3} s",
            in_flight.len() + pass.latencies_ms.len(),
            pass.latencies_ms.len(),
            pass.failed,
            pass.wall_s
        );
        pass.spans = spans;
        pass
    }

    fn verify(&mut self, pass: &Pass, max_checks: usize) -> (usize, usize) {
        let mut replica = self.fx.batch_replica();
        verify_sample(&pass.outputs, &self.requests, max_checks, |r| {
            replica.generate(&r.ingredients, r.seed)
        })
    }
}
