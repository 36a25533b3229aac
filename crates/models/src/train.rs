//! The training loop: Adam + warmup-cosine schedule + gradient clipping,
//! with crash-safe checkpointing and exact resume.
//!
//! The paper trained on Google Colab, "which lead to session crashing
//! after every 5 to 7 epochs" — so resumability is a first-class feature
//! here: checkpoints capture model weights, optimizer moments, the step
//! counter and the data RNG, and a resumed run continues the exact same
//! trajectory (verified by `checkpoint_resume_is_exact`).

use std::path::{Path, PathBuf};

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;
use ratatouille_tensor::optim::{clip_grad_norm, zero_grads, Adam, WarmupCosine};
use ratatouille_tensor::serialize::TensorMap;
use ratatouille_tensor::{Tensor, TensorError};

use crate::data::Dataset;
use crate::lm::LanguageModel;

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Total optimization steps.
    pub steps: usize,
    /// Sequences per batch.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Linear warmup steps.
    pub warmup: usize,
    /// Global-norm gradient clip (0 disables).
    pub clip: f32,
    /// Decoupled weight decay (0 = plain Adam).
    pub weight_decay: f32,
    /// Save a checkpoint every N steps (0 disables).
    pub checkpoint_every: usize,
    /// Where checkpoints are written.
    pub checkpoint_path: Option<PathBuf>,
    /// Data-sampling RNG seed.
    pub seed: u64,
    /// Print a progress line every N steps (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 200,
            batch_size: 8,
            lr: 3e-3,
            warmup: 20,
            clip: 1.0,
            weight_decay: 0.01,
            checkpoint_every: 0,
            checkpoint_path: None,
            seed: 1234,
            log_every: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Loss at each step.
    pub losses: Vec<f32>,
    /// Steps actually executed in this call (≤ config.steps on resume).
    pub steps_run: usize,
    /// Wall-clock seconds spent inside the loop.
    pub wall_secs: f64,
    /// Tokens processed per second.
    pub tokens_per_sec: f64,
}

impl TrainStats {
    /// Mean of the last `n` losses (training-end quality).
    pub fn final_loss(&self, n: usize) -> f32 {
        if self.losses.is_empty() {
            return f32::NAN;
        }
        let tail = &self.losses[self.losses.len().saturating_sub(n)..];
        ratatouille_util::accum::sum_f32(tail.iter().copied()) / tail.len() as f32
    }
}

/// A serializable snapshot of training state.
pub struct Checkpoint {
    /// Model weights by parameter name.
    pub weights: TensorMap,
    /// Optimization step the snapshot was taken at.
    pub step: u64,
}

impl Checkpoint {
    /// Capture model + optimizer + progress into one [`TensorMap`].
    fn capture(model: &dyn LanguageModel, opt: &Adam, step: u64, data_rng_seed: u64) -> TensorMap {
        let mut map = TensorMap::new();
        for (name, p) in model.named_parameters() {
            map.insert(format!("model.{name}"), p.value());
        }
        for (i, st) in opt.export_state().into_iter().enumerate() {
            if let Some((m, v)) = st {
                map.insert(format!("adam.m.{i}"), m);
                map.insert(format!("adam.v.{i}"), v);
            }
        }
        map.insert("meta.step", Tensor::scalar(step as f32));
        map.insert("meta.adam_steps", Tensor::scalar(opt.steps() as f32));
        // The u64 seed as four 16-bit quarters, low first: an f32 holds
        // every integer below 2^24 exactly, a 32-bit half it would round.
        let quarters = (0..4).map(|q| ((data_rng_seed >> (16 * q)) & 0xFFFF) as f32).collect();
        map.insert(
            "meta.rng_seed",
            Tensor::from_vec(quarters, &[4]).expect("four quarters"),
        );
        map
    }

    /// Restore model weights in place; returns `(step, adam_steps, seed)`.
    fn restore(
        map: &TensorMap,
        model: &dyn LanguageModel,
        opt: &mut Adam,
    ) -> Result<(u64, u64, u64), TensorError> {
        for (name, p) in model.named_parameters() {
            let t = map.require(&format!("model.{name}"))?;
            p.set_value(t.clone());
        }
        let n_params = model.parameters().len();
        let mut state = Vec::with_capacity(n_params);
        for i in 0..n_params {
            match (map.get(&format!("adam.m.{i}")), map.get(&format!("adam.v.{i}"))) {
                (Some(m), Some(v)) => state.push(Some((m.clone(), v.clone()))),
                _ => state.push(None),
            }
        }
        opt.import_state(state);
        let step = map.require("meta.step")?.item() as u64;
        let adam_steps = map.require("meta.adam_steps")?.item() as u64;
        opt.set_steps(adam_steps);
        let corrupt = || TensorError::Corrupt("meta.rng_seed is not four 16-bit quarters".into());
        let quarters = map.require("meta.rng_seed")?;
        if quarters.numel() != 4 {
            return Err(corrupt());
        }
        let seed = quarters.data().iter().rev().try_fold(0u64, |seed, &q| {
            if q.fract() == 0.0 && (0.0..65536.0).contains(&q) {
                Ok((seed << 16) | q as u64)
            } else {
                Err(corrupt())
            }
        })?;
        Ok((step, adam_steps, seed))
    }
}

/// Trains a [`LanguageModel`] on a [`Dataset`].
pub struct Trainer<'a> {
    model: &'a dyn LanguageModel,
    dataset: &'a Dataset,
    config: TrainConfig,
}

impl<'a> Trainer<'a> {
    /// A trainer over borrowed model and data.
    pub fn new(model: &'a dyn LanguageModel, dataset: &'a Dataset, config: TrainConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        Trainer {
            model,
            dataset,
            config,
        }
    }

    /// Train from scratch.
    pub fn train(&self) -> TrainStats {
        let opt = Adam::adamw(self.config.lr, self.config.weight_decay);
        self.run(opt, 0, self.config.seed)
    }

    /// Resume from a checkpoint file written by an earlier (possibly
    /// crashed) run, continuing the exact trajectory.
    pub fn resume(&self, path: &Path) -> Result<TrainStats, TensorError> {
        let map = TensorMap::load(path)?;
        let mut opt = Adam::adamw(self.config.lr, self.config.weight_decay);
        let (step, _, seed) = Checkpoint::restore(&map, self.model, &mut opt)?;
        // Data RNG: the checkpoint's seed, not this config's; `run`
        // reseeds from (seed, step), so the resumed stream continues
        // rather than repeats.
        Ok(self.run(opt, step as usize, seed))
    }

    fn run(&self, mut opt: Adam, start_step: usize, seed: u64) -> TrainStats {
        let params = self.model.parameters();
        let schedule = WarmupCosine {
            peak: self.config.lr,
            floor: self.config.lr * 0.1,
            warmup: self.config.warmup as u64,
            total: self.config.steps as u64,
        };
        let mut losses = Vec::with_capacity(self.config.steps.saturating_sub(start_step));
        let started = obs::Clock::now();
        let mut tokens = 0usize;
        for step in start_step..self.config.steps {
            let step_start = obs::Clock::now();
            // Deterministic per-step RNGs: resume at step k reproduces the
            // exact batch and dropout stream the uninterrupted run saw.
            let mut data_rng = StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut drop_rng = StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            zero_grads(&params);
            let batch = self.dataset.sample_batch(self.config.batch_size, &mut data_rng);
            tokens += batch.real_tokens();
            let forward = obs::Clock::now();
            let loss = self.model.forward_loss(&batch, true, &mut drop_rng);
            let loss_val = loss.value().item();
            let forward_ns = forward.elapsed_ns();
            let backward = obs::Clock::now();
            loss.backward();
            let backward_ns = backward.elapsed_ns();
            assert!(
                loss_val.is_finite(),
                "training diverged at step {step}: loss = {loss_val}"
            );
            losses.push(loss_val);
            let optimizer = obs::Clock::now();
            if self.config.clip > 0.0 {
                let norm = clip_grad_norm(&params, self.config.clip);
                obs::static_gauge!("train_grad_norm").set(norm as f64);
            }
            opt.set_lr(schedule.lr_at(step as u64));
            opt.step(&params);

            obs::static_histogram!("train_forward_ns").observe(forward_ns);
            obs::static_histogram!("train_backward_ns").observe(backward_ns);
            obs::static_histogram!("train_optimizer_ns").observe(optimizer.elapsed_ns());
            obs::static_histogram!("train_step_ns").observe(step_start.elapsed_ns());

            if self.config.log_every > 0 && step % self.config.log_every == 0 {
                eprintln!(
                    "[{}] step {step}/{} loss {loss_val:.4} lr {:.2e}",
                    self.model.name(),
                    self.config.steps,
                    opt.lr()
                );
            }
            if self.config.checkpoint_every > 0
                && (step + 1) % self.config.checkpoint_every == 0
            {
                self.checkpoint(&opt, (step + 1) as u64, seed);
            }
        }
        self.checkpoint(&opt, self.config.steps as u64, seed);
        // The last step's gradients have been applied. Kept, they would
        // live as long as the model, and the ones allocated near the top of
        // the heap during that step's backward would keep everything the
        // step freed below them from going back to the OS (EXPERIMENTS
        // "Training on both cores": 140 MB resident after a 5-step run
        // instead of 8).
        zero_grads(&params);
        let wall = started.elapsed_secs();
        let tokens_per_sec = if wall > 0.0 { tokens as f64 / wall } else { 0.0 };
        TrainStats {
            steps_run: losses.len(),
            tokens_per_sec,
            losses,
            wall_secs: wall,
        }
    }

    /// Write a checkpoint at `step` if the config names a path, timing
    /// the write into `train_checkpoint_write_ns`.
    fn checkpoint(&self, opt: &Adam, step: u64, seed: u64) {
        if let Some(path) = &self.config.checkpoint_path {
            let map = Checkpoint::capture(self.model, opt, step, seed);
            let write = obs::Clock::now();
            map.save(path).expect("checkpoint write failed");
            obs::static_histogram!("train_checkpoint_write_ns").observe(write.elapsed_ns());
        }
    }

    /// Per-token NLLs over the dataset's first `max_blocks` blocks —
    /// feeds the perplexity metric.
    pub fn token_nlls(&self, max_blocks: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        for (inputs, targets) in self.dataset.iter_examples().take(max_blocks) {
            let batch = crate::lm::Batch {
                inputs: vec![inputs],
                targets: vec![targets],
                pad_id: 0,
            };
            // mean loss × token count ≈ sum; push the mean per block for
            // each real token to weight correctly
            let mean = self
                .model
                .forward_loss(&batch, false, &mut rng)
                .value()
                .item();
            for _ in 0..batch.real_tokens() {
                out.push(mean);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::{LstmConfig, LstmLm};
    use ratatouille_tokenizers::{CharTokenizer, Tokenizer};
    use std::sync::{Mutex, MutexGuard};

    /// The `train_*` series are process-global and the harness runs tests
    /// concurrently: every test here that takes optimizer steps holds this,
    /// so the exact-count test sees only its own steps.
    fn steps_lock() -> MutexGuard<'static, ()> {
        static STEPS: Mutex<()> = Mutex::new(());
        STEPS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn setup() -> (LstmLm, Dataset, CharTokenizer) {
        let corpus = vec!["abcabcabcabc abcabc abcabcabc".to_string(); 20];
        let tok = CharTokenizer::train(&corpus);
        let ds = Dataset::from_texts(&corpus, &tok, 16);
        let model = LstmLm::new(LstmConfig {
            name: "t".into(),
            vocab: tok.vocab_size(),
            d_embed: 8,
            d_hidden: 24,
            layers: 1,
            max_t: 16,
            dropout: 0.0,
            seed: 3,
        });
        (model, ds, tok)
    }

    #[test]
    fn training_reduces_loss() {
        let _steps = steps_lock();
        let (model, ds, _) = setup();
        let cfg = TrainConfig {
            steps: 40,
            batch_size: 4,
            lr: 5e-3,
            warmup: 5,
            ..Default::default()
        };
        let stats = Trainer::new(&model, &ds, cfg).train();
        assert_eq!(stats.steps_run, 40);
        assert!(
            model.parameters().iter().all(|p| p.grad().is_none()),
            "the last step's gradients outlived training"
        );
        assert!(
            stats.final_loss(5) < stats.losses[0] * 0.6,
            "first {} final {}",
            stats.losses[0],
            stats.final_loss(5)
        );
        assert!(stats.tokens_per_sec > 0.0);
    }

    #[test]
    fn deterministic_training() {
        let _steps = steps_lock();
        let cfg = TrainConfig {
            steps: 10,
            batch_size: 2,
            ..Default::default()
        };
        let (m1, ds, _) = setup();
        let s1 = Trainer::new(&m1, &ds, cfg.clone()).train();
        let (m2, ds2, _) = setup();
        let s2 = Trainer::new(&m2, &ds2, cfg).train();
        assert_eq!(s1.losses, s2.losses);
    }

    #[test]
    fn checkpoint_resume_is_exact() {
        let _steps = steps_lock();
        let dir = std::env::temp_dir().join(format!("rt-train-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("model.ckpt");

        // Uninterrupted 20-step run.
        let cfg_full = TrainConfig {
            steps: 20,
            batch_size: 2,
            checkpoint_every: 0,
            ..Default::default()
        };
        let (m_full, ds, _) = setup();
        let full = Trainer::new(&m_full, &ds, cfg_full.clone()).train();

        // Crash after 10 steps (checkpoint written at step 10), resume.
        let cfg_crash = TrainConfig {
            steps: 10,
            checkpoint_every: 10,
            checkpoint_path: Some(ckpt.clone()),
            ..cfg_full.clone()
        };
        let (m_crash, ds2, _) = setup();
        let first_half = Trainer::new(&m_crash, &ds2, cfg_crash).train();

        // A different seed in the resuming config: the data stream must
        // continue from the checkpoint's seed, not restart from this one.
        let cfg_resume = TrainConfig {
            steps: 20,
            checkpoint_path: None,
            seed: 999,
            ..cfg_full
        };
        let (m_resumed, ds3, _) = setup();
        let second_half = Trainer::new(&m_resumed, &ds3, cfg_resume)
            .resume(&ckpt)
            .unwrap();

        let mut glued = first_half.losses.clone();
        glued.extend(&second_half.losses);
        assert_eq!(glued.len(), full.losses.len());
        for (i, (a, b)) in glued.iter().zip(&full.losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "loss diverged at step {i}: resumed {a} vs full {b}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_round_trips_the_data_seed_exactly() {
        let (model, _, _) = setup();
        let seed = 0x9E37_79B9_7F4A_7C15;
        let map = Checkpoint::capture(&model, &Adam::new(1e-3), 7, seed);
        let map = TensorMap::from_bytes(&map.to_bytes()).unwrap();
        let (step, _, restored) = Checkpoint::restore(&map, &model, &mut Adam::new(1e-3)).unwrap();
        assert_eq!((step, restored), (7, seed), "restored seed {restored:#x}");
    }

    #[test]
    fn each_step_observes_every_training_series_once() {
        let _steps = steps_lock();
        let names = ["train_forward_ns", "train_backward_ns", "train_optimizer_ns", "train_step_ns"];
        let counts = || names.map(|n| obs::metrics::histogram(n).count());
        let (model, ds, _) = setup();
        let before = counts();
        let cfg = TrainConfig {
            steps: 3,
            batch_size: 2,
            ..Default::default()
        };
        Trainer::new(&model, &ds, cfg).train();
        for ((name, b), a) in names.iter().zip(before).zip(counts()) {
            assert_eq!(a - b, 3, "{name} over 3 steps");
        }
        let norm = obs::metrics::gauge("train_grad_norm").get();
        assert!(norm.is_finite() && norm > 0.0, "pre-clip gradient norm {norm}");
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join(format!("rt-train-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let (model, ds, _) = setup();
        let t = Trainer::new(&model, &ds, TrainConfig::default());
        assert!(t.resume(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn untrained_token_nlls_are_near_uniform() {
        let (model, ds, tok) = setup();
        let t = Trainer::new(
            &model,
            &ds,
            TrainConfig {
                steps: 0,
                ..Default::default()
            },
        );
        let nlls = t.token_nlls(2);
        assert!(!nlls.is_empty());
        assert!(nlls.iter().all(|v| v.is_finite()));
        let mean = nlls.iter().sum::<f32>() / nlls.len() as f32;
        assert!((mean - (tok.vocab_size() as f32).ln()).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let corpus: Vec<String> = vec![];
        let tok = CharTokenizer::train(&["ab"]);
        let ds = Dataset::from_texts(&corpus, &tok, 8);
        let model = LstmLm::new(LstmConfig::char_level(tok.vocab_size()));
        Trainer::new(&model, &ds, TrainConfig::default());
    }
}
