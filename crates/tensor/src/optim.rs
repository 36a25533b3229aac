//! The Adam/AdamW optimizer, gradient clipping, and the warmup-cosine
//! learning-rate schedule.
//!
//! The optimizer holds per-parameter state keyed by position in the parameter
//! list; callers must pass the same parameter list every step (the model
//! registries in `ratatouille-models` guarantee this).

use crate::autograd::Var;
use crate::tensor::Tensor;

/// Clear gradients on all parameters.
pub fn zero_grads(params: &[Var]) {
    for p in params {
        p.zero_grad();
    }
}

/// Global-norm gradient clipping: if the joint L2 norm of all gradients
/// exceeds `max_norm`, scale every gradient by `max_norm / norm`, in
/// place. Returns the pre-clip norm.
///
/// In place because this runs after backward has freed the step's graph:
/// scaled copies would be allocated at the top of a heap that is mostly
/// free, and once the gradients are dropped they leave a free block there
/// that is smaller than glibc's trim threshold, so it stays resident
/// (EXPERIMENTS "The forward graph keeps only what backward reads").
pub fn clip_grad_norm(params: &[Var], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            // xlint: allow(float-reduction-order): f64-widened norm accumulation in parameter order
            sq += g.data().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        }
    }
    let norm = (sq.sqrt()) as f32;
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for p in params {
            if let Some(g) = p.node.borrow_mut().grad.as_mut() {
                g.make_mut().iter_mut().for_each(|v| *v *= s);
            }
        }
    }
    norm
}

/// Per-parameter Adam/AdamW state.
#[derive(Clone)]
struct AdamState {
    m: Tensor,
    v: Tensor,
}

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Decoupled weight decay (AdamW); 0 = plain Adam.
    weight_decay: f32,
    t: u64,
    state: Vec<Option<AdamState>>,
}

impl Adam {
    /// Plain Adam with the standard defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            state: Vec::new(),
        }
    }

    /// AdamW: Adam with decoupled weight decay.
    pub fn adamw(lr: f32, weight_decay: f32) -> Self {
        Adam {
            weight_decay,
            ..Adam::new(lr)
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restore the step counter (checkpoint resume must preserve bias
    /// correction).
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Export per-parameter `(m, v)` moment tensors for checkpointing,
    /// indexed like the parameter list passed to [`Adam::step`].
    pub fn export_state(&self) -> Vec<Option<(Tensor, Tensor)>> {
        self.state
            .iter()
            .map(|s| s.as_ref().map(|st| (st.m.clone(), st.v.clone())))
            .collect()
    }

    /// Restore moments exported by [`Adam::export_state`]. Must be paired
    /// with [`Adam::set_steps`] for exact resume.
    pub fn import_state(&mut self, state: Vec<Option<(Tensor, Tensor)>>) {
        self.state = state
            .into_iter()
            .map(|s| s.map(|(m, v)| AdamState { m, v }))
            .collect();
    }

    /// Apply one update step using the gradients currently accumulated on
    /// `params`, then leave the gradients intact (call
    /// [`zero_grads`] separately).
    ///
    /// The moments and the parameter values are updated in place (copied
    /// first if anything else shares them), so after the first step a
    /// step allocates nothing: a parameter keeps the buffer it was created
    /// with instead of taking a fresh one wherever the allocator has a
    /// hole mid-training, where it would outlive the step's freed memory
    /// and keep that from going back to the OS.
    pub fn step(&mut self, params: &[Var]) {
        if self.state.len() < params.len() {
            self.state.resize(params.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter().enumerate() {
            let Some(g) = p.grad() else { continue };
            let st = self.state[i].get_or_insert_with(|| AdamState {
                m: Tensor::zeros(g.dims()),
                v: Tensor::zeros(g.dims()),
            });
            let (m, v) = (st.m.make_mut(), st.v.make_mut());
            let mut value = p.value.borrow_mut();
            let x = value.make_mut();
            for (((x, m), v), &g) in x.iter_mut().zip(m).zip(v).zip(g.data()) {
                *m = *m * self.beta1 + g * (1.0 - self.beta1);
                *v = *v * self.beta2 + g * g * (1.0 - self.beta2);
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                let old = *x;
                *x = old - self.lr * mhat / (vhat.sqrt() + self.eps);
                if self.weight_decay > 0.0 {
                    *x -= self.lr * self.weight_decay * old;
                }
            }
        }
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Override the learning rate (used by the schedule).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Linear warmup to `peak` over `warmup` steps, then cosine decay to
/// `floor` at `total` steps (the GPT-2 fine-tuning schedule).
pub struct WarmupCosine {
    /// Peak learning rate reached at the end of warmup.
    pub peak: f32,
    /// Final learning rate after `total` steps.
    pub floor: f32,
    /// Warmup length in steps.
    pub warmup: u64,
    /// Total schedule length in steps.
    pub total: u64,
}

impl WarmupCosine {
    /// Learning rate for optimization step `step` (0-based).
    pub fn lr_at(&self, step: u64) -> f32 {
        if self.warmup > 0 && step < self.warmup {
            return self.peak * (step + 1) as f32 / self.warmup as f32;
        }
        if step >= self.total {
            return self.floor;
        }
        let progress =
            (step - self.warmup) as f32 / (self.total - self.warmup).max(1) as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.floor + (self.peak - self.floor) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)² and check convergence.
    fn quadratic_converges(mut opt: Adam, steps: usize, tol: f32) {
        let x = Var::leaf(Tensor::scalar(0.0));
        for _ in 0..steps {
            zero_grads(&[x.clone()]);
            let diff = x.add_scalar(-3.0);
            let loss = diff.mul(&diff);
            loss.backward();
            opt.step(&[x.clone()]);
        }
        let v = x.value().item();
        assert!((v - 3.0).abs() < tol, "converged to {v}, expected 3");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        quadratic_converges(Adam::new(0.3), 200, 1e-2);
    }

    #[test]
    fn adamw_decays_unused_weights() {
        // A parameter with zero gradient should still shrink under AdamW...
        // except AdamW only applies decay when a gradient exists (our step
        // skips grad-less params entirely — document that contract).
        let p = Var::leaf(Tensor::scalar(1.0));
        let mut opt = Adam::adamw(0.1, 0.5);
        opt.step(&[p.clone()]);
        assert_eq!(p.value().item(), 1.0, "no grad -> no update at all");
        // With a tiny gradient, the decay term dominates and the weight shrinks.
        p.node.borrow_mut().grad = Some(Tensor::scalar(1e-12));
        opt.step(&[p.clone()]);
        assert!(p.value().item() < 1.0);
    }

    #[test]
    fn clip_reduces_large_gradients() {
        let p = Var::leaf(Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap());
        p.node.borrow_mut().grad = Some(Tensor::from_vec(vec![30.0, 40.0], &[2]).unwrap());
        let norm = clip_grad_norm(&[p.clone()], 5.0);
        assert!((norm - 50.0).abs() < 1e-3);
        let g = p.grad().unwrap();
        assert!((g.data()[0].hypot(g.data()[1]) - 5.0).abs() < 1e-3);
        // direction preserved
        assert!((g.data()[0] / g.data()[1] - 0.75).abs() < 1e-4);
    }

    #[test]
    fn clip_leaves_small_gradients() {
        let p = Var::leaf(Tensor::scalar(0.0));
        p.node.borrow_mut().grad = Some(Tensor::scalar(0.5));
        clip_grad_norm(&[p.clone()], 5.0);
        assert_eq!(p.grad().unwrap().item(), 0.5);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = WarmupCosine {
            peak: 1.0,
            floor: 0.1,
            warmup: 10,
            total: 110,
        };
        assert!(s.lr_at(0) < s.lr_at(5));
        assert!((s.lr_at(9) - 1.0).abs() < 1e-6);
        assert!(s.lr_at(50) < 1.0);
        assert!(s.lr_at(50) > 0.1);
        assert!((s.lr_at(109) - 0.1).abs() < 0.05);
        assert_eq!(s.lr_at(500), 0.1);
    }

    #[test]
    fn adam_resume_preserves_bias_correction() {
        let mut a = Adam::new(0.1);
        a.set_steps(100);
        assert_eq!(a.steps(), 100);
    }
}
