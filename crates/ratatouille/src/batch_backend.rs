//! Plugging trained models into the continuous-batching serving stack.
//!
//! [`BatchModelBackend`] adapts a trained, batch-capable model (GPT-2
//! family — anything whose `batch_model()` is `Some`) to the serving
//! crate's [`StepBackend`]: the engine thread builds one replica, admits
//! pantry requests into a [`BatchGenerator`], and steps all of them
//! through a single multi-sequence decode. Same-pantry prompts share
//! KV-cache prefix blocks, so popular ingredient sets pay their prefill
//! once (watch `decode_kv_hits_total`).
//!
//! Determinism carries through unchanged from the engine: a request with
//! a pinned seed produces byte-identical tokens whether it decodes here
//! in a batch of 8 or alone through `ModelBackend::generate_seeded`'s
//! batched equivalent (a batch of 1).

use std::collections::BTreeMap;
use std::sync::Arc;

use ratatouille_models::registry::{build_model, ModelKind};
use ratatouille_models::sample::SamplerConfig;
use ratatouille_models::{BatchEngineConfig, BatchGenerator, BatchRequest, LanguageModel};
use ratatouille_models::batch::AdmitError;
use ratatouille_serving::api::GeneratedRecipe;
use ratatouille_serving::batch::{AdmitOutcome, GenRequest, StepBackend, StepBackendFactory};
use ratatouille_tensor::serialize::TensorMap;
use ratatouille_tokenizers::Tokenizer;

use crate::backend::{load_weights, weights_map};
use crate::pipeline::{
    generation_budget, prompt_for, recipe_from_tagged, sampler_for_request, tag_continuation,
    TrainedModel,
};

/// A continuous-batching serving replica: one batch-capable model, its
/// tokenizer, and a [`BatchGenerator`] holding the blocked KV cache.
pub struct BatchModelBackend {
    model: Box<dyn LanguageModel>,
    tokenizer: Box<dyn Tokenizer>,
    engine: BatchGenerator,
    /// The sampler every request decodes under ([`sampler_for_request`]).
    sampler: SamplerConfig,
    /// id → prompt text, to re-tag finished continuations.
    prompts: BTreeMap<u64, String>,
    /// Counter deriving seeds for requests that didn't pin one.
    unseeded: u64,
}

impl BatchModelBackend {
    /// Build a replica from `Send`-able parts inside the engine thread.
    /// Returns `None` when the model kind has no batch-invariant decode
    /// path (LSTMs, or GEMM widths off the pack grid) — callers serve
    /// those one request per replica (`ApiServer::start`).
    pub fn from_weights(
        kind: ModelKind,
        tokenizer: &dyn Tokenizer,
        weights: &TensorMap,
        sampler: SamplerConfig,
        engine_cfg: BatchEngineConfig,
        max_tokens: usize,
    ) -> Option<BatchModelBackend> {
        let model = build_model(kind, tokenizer.vocab_size());
        load_weights(model.as_ref(), weights);
        let engine = {
            let bm = model.batch_model()?;
            BatchGenerator::new(bm, engine_cfg)
        };
        Some(BatchModelBackend {
            model,
            tokenizer: tokenizer.clone_box(),
            engine,
            sampler: sampler_for_request(&sampler, tokenizer, max_tokens.max(1)),
            prompts: BTreeMap::new(),
            unseeded: 0,
        })
    }

    /// Free KV blocks (tests and observability).
    pub fn free_blocks(&self) -> usize {
        self.engine.free_blocks()
    }
}

impl StepBackend for BatchModelBackend {
    fn model_name(&self) -> String {
        self.model.name().to_string()
    }

    fn admit_request(&mut self, req: &GenRequest) -> AdmitOutcome {
        let prompt_text = prompt_for(&req.ingredients);
        let prompt = self.tokenizer.encode(&prompt_text);
        if prompt.is_empty() {
            // A pantry that tokenizes to nothing can never produce a
            // recipe; refuse rather than feed the engine an empty prompt.
            return AdmitOutcome::PoolExhausted;
        }
        let seed = req.seed.unwrap_or_else(|| {
            self.unseeded += 1;
            0x5EED ^ self.unseeded
        });
        match self.engine.admit_traced(
            BatchRequest {
                prompt,
                sampler: self.sampler.clone(),
                seed,
            },
            req.meta.clone(),
        ) {
            Ok(id) => {
                self.prompts.insert(id, prompt_text);
                AdmitOutcome::Admitted(id)
            }
            Err(AdmitError::BatchFull) => AdmitOutcome::BatchFull,
            Err(AdmitError::PoolExhausted) => AdmitOutcome::PoolExhausted,
        }
    }

    fn step(&mut self) -> Vec<(u64, GeneratedRecipe)> {
        let Some(bm) = self.model.batch_model() else {
            return Vec::new();
        };
        let outcome = match self.engine.step(bm) {
            Ok(o) => o,
            // Unreachable by construction (admission reserves the worst
            // case), but a serving replica must not panic.
            Err(_) => return Vec::new(),
        };
        outcome
            .finished
            .into_iter()
            .map(|f| {
                let prompt_text = self.prompts.remove(&f.id).unwrap_or_default();
                let tagged = tag_continuation(prompt_text, &f.tokens, self.tokenizer.as_ref());
                (f.id, recipe_from_tagged(&tagged))
            })
            .collect()
    }

    fn active(&self) -> usize {
        self.engine.active()
    }

    fn free_slots(&self) -> usize {
        self.engine.max_batch().saturating_sub(self.engine.active())
    }
}

impl TrainedModel {
    /// A `Send + Sync` factory producing a continuous-batching replica —
    /// pass to [`ratatouille_serving::ApiServer::start_batched`].
    ///
    /// `None` when this model cannot decode batches deterministically
    /// (LSTMs; widths off the pack grid): callers keep `ApiServer::start`.
    pub fn batched_factory(&self, engine_cfg: BatchEngineConfig) -> Option<StepBackendFactory> {
        self.spec.model.batch_model()?;
        let kind = self.spec.kind;
        let weights = weights_map(self.spec.model.as_ref());
        let tokenizer: Arc<dyn Tokenizer> = Arc::from(self.spec.tokenizer.clone_box());
        let sampler = self.sampler.clone();
        let max_tokens = generation_budget(kind);
        Some(Arc::new(move || {
            let backend = BatchModelBackend::from_weights(
                kind,
                tokenizer.as_ref(),
                &weights,
                sampler.clone(),
                engine_cfg.clone(),
                max_tokens,
            )
            .expect("model advertised batch support");
            Box::new(backend) as Box<dyn StepBackend>
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use ratatouille_models::train::TrainConfig;

    fn trained_gpt2() -> TrainedModel {
        let mut cfg = PipelineConfig::small();
        cfg.corpus.num_recipes = 60;
        let p = Pipeline::prepare(cfg);
        p.train(
            ModelKind::DistilGpt2,
            Some(TrainConfig {
                steps: 2,
                batch_size: 2,
                ..Default::default()
            }),
        )
    }

    #[test]
    fn gpt2_offers_a_batched_factory_and_lstm_does_not() {
        let t = trained_gpt2();
        let factory = t
            .batched_factory(BatchEngineConfig::default())
            .expect("gpt2 is batchable");
        // Usable from another thread (the engine's calling convention).
        let title = std::thread::spawn(move || {
            let mut backend = factory();
            let out = backend.admit(&["flour".into(), "water".into()], Some(7));
            let id = match out {
                AdmitOutcome::Admitted(id) => id,
                other => panic!("admission refused: {other:?}"),
            };
            loop {
                let done = backend.step();
                if let Some((fid, recipe)) = done.into_iter().next() {
                    assert_eq!(fid, id);
                    return recipe.title;
                }
            }
        })
        .join()
        .unwrap();
        assert!(!title.is_empty());

        let mut cfg = PipelineConfig::small();
        cfg.corpus.num_recipes = 60;
        let p = Pipeline::prepare(cfg);
        let lstm = p.train(
            ModelKind::WordLstm,
            Some(TrainConfig {
                steps: 2,
                batch_size: 2,
                ..Default::default()
            }),
        );
        assert!(
            lstm.batched_factory(BatchEngineConfig::default()).is_none(),
            "LSTMs have no batch-invariant decode path"
        );
    }

    #[test]
    fn same_seed_same_recipe_across_batch_sizes() {
        let t = trained_gpt2();
        let factory = t.batched_factory(BatchEngineConfig::default()).unwrap();
        let mut backend = factory();
        let pantry = vec!["flour".to_string(), "water".to_string()];

        // Solo (batch of 1).
        let solo = run_one(backend.as_mut(), &pantry, 42);

        // Same request inside a batch with two unrelated neighbours.
        let id = match backend.admit(&pantry, Some(42)) {
            AdmitOutcome::Admitted(id) => id,
            other => panic!("admission refused: {other:?}"),
        };
        backend.admit(&["rice".into()], Some(1));
        backend.admit(&["milk".into(), "sugar".into()], Some(2));
        let batched = loop {
            let done = backend.step();
            if let Some((_, r)) = done.into_iter().find(|(fid, _)| *fid == id) {
                break r;
            }
        };
        assert_eq!(solo, batched, "batch composition changed the output");
    }

    fn run_one(
        backend: &mut dyn StepBackend,
        pantry: &[String],
        seed: u64,
    ) -> GeneratedRecipe {
        let id = match backend.admit(pantry, Some(seed)) {
            AdmitOutcome::Admitted(id) => id,
            other => panic!("admission refused: {other:?}"),
        };
        loop {
            let done = backend.step();
            if let Some((_, r)) = done.into_iter().find(|(fid, _)| *fid == id) {
                return r;
            }
        }
    }
}
