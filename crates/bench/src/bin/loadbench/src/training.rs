//! `train_medium`: optimizer steps of GPT-2 medium on one thread — the
//! other use of `tensor` and `models` (large-m GEMM, autograd, AdamW), so
//! that a decode-side kernel change which costs training shows.

use crate::pass::{Pass, Workload};
use crate::stats::now_ns;
use crate::sut::{self, TrainLoop};

pub struct Training {
    train: TrainLoop,
    seed: u64,
    next: u64,
    /// Loss of the first step ever taken, on freshly initialised weights.
    first_loss: f32,
}

impl Training {
    pub fn new(seed: u64) -> Training {
        let train = TrainLoop::new(&sut::prepare());
        // The first step also warms the tensor pool and the allocator.
        let (first_loss, _) = train.step(seed);
        Training {
            train,
            seed,
            next: 1,
            first_loss,
        }
    }
}

impl Workload for Training {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let start = now_ns();
        let deadline = start + (seconds * 1e9) as u64;
        let mut now = start;
        while now < deadline {
            let (loss, tokens) = self.train.step(self.seed.wrapping_add(self.next));
            let end = now_ns();
            if loss.is_finite() {
                pass.latencies_ms.push((end - now) as f64 / 1e6);
                pass.out_tokens += tokens.round() as u64;
            } else {
                pass.failed += 1;
            }
            if traced {
                pass.spans.push(
                    "train_step",
                    now,
                    end,
                    None,
                    self.next,
                    tokens.round() as u64,
                );
            }
            self.next += 1;
            now = end;
        }
        pass.wall_s = (now - start) as f64 / 1e9;
        println!(
            "pass: {} optimizer steps, {} diverged, in {:.3} s",
            pass.attempted(),
            pass.failed,
            pass.wall_s
        );
        pass
    }

    /// Training is deterministic by contract: the first step replayed on
    /// a freshly built model must give the same loss bit for bit.
    fn verify(&mut self, _pass: &Pass, _max_checks: usize) -> (usize, usize) {
        let (loss, _) = TrainLoop::new(&sut::prepare()).step(self.seed);
        (1, usize::from(loss.to_bits() != self.first_loss.to_bits()))
    }
}
