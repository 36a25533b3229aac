//! Plugging trained models into the serving stack.
//!
//! Trained models hold `Rc`-based autograd handles and are not `Send`;
//! the serving engine therefore rebuilds a *replica* inside each of its
//! threads from `Send`-able ingredients: the model kind, the tokenizer
//! (a value type), and the trained weights as a [`TensorMap`]. This is
//! the in-process analogue of the paper's "replicate the docker" scaling.

use std::sync::Arc;

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;

use ratatouille_models::registry::{build_model, ModelKind};
use ratatouille_models::sample::{DecodeSeries, SamplerConfig};
use ratatouille_models::{InferenceModel, LanguageModel};
use ratatouille_serving::api::{GeneratedRecipe, RecipeBackend, RecipeBackendFactory};
use ratatouille_serving::batch::GenRequest;
use ratatouille_tensor::serialize::TensorMap;
use ratatouille_tokenizers::Tokenizer;

use crate::pipeline::{
    decode_tagged, generation_budget, recipe_from_tagged, sampler_for_request, TrainedModel,
};

/// A serving replica: one model + tokenizer + decoding state.
pub struct ModelBackend {
    model: Box<dyn LanguageModel>,
    /// `model`'s decode series, resolved with the replica so that no
    /// request takes the registry lock.
    series: DecodeSeries,
    /// The int8 weight-quantized variant and its decode series, when the
    /// architecture offers one (GPT-2/GPT-Neo; LSTMs serve f32 only).
    /// Quantized once at replica construction, not per request.
    quant: Option<(Box<dyn InferenceModel>, DecodeSeries)>,
    tokenizer: Box<dyn Tokenizer>,
    /// The sampler every request decodes under ([`sampler_for_request`]).
    sampler: SamplerConfig,
    rng: StdRng,
}

impl ModelBackend {
    /// Build a replica from `Send`-able parts (used inside engine threads).
    pub fn from_weights(
        kind: ModelKind,
        tokenizer: &dyn Tokenizer,
        weights: &TensorMap,
        sampler: SamplerConfig,
        seed: u64,
    ) -> ModelBackend {
        let model = build_model(kind, tokenizer.vocab_size());
        load_weights(model.as_ref(), weights);
        let quant = model.quantized().map(|q| {
            let series = DecodeSeries::resolve(q.as_ref());
            (q, series)
        });
        ModelBackend {
            series: DecodeSeries::resolve(model.as_ref()),
            model,
            quant,
            tokenizer: tokenizer.clone_box(),
            sampler: sampler_for_request(&sampler, tokenizer, generation_budget(kind)),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RecipeBackend for ModelBackend {
    /// Prompt → (possibly quantized) generation → structural validation.
    fn generate_request(&mut self, req: &GenRequest) -> GeneratedRecipe {
        // A pinned seed decodes from a fresh RNG so the result depends
        // only on (weights, prompt, seed) — replayable.
        let mut pinned = req.seed.map(StdRng::seed_from_u64);
        let rng = pinned.as_mut().unwrap_or(&mut self.rng);
        let (tok, cfg, pantry) = (self.tokenizer.as_ref(), &self.sampler, &req.ingredients);
        let tagged = match (&self.quant, req.dtype.as_str()) {
            (Some((q, series)), "int8") => {
                decode_tagged(q.as_ref(), series, tok, cfg, pantry, rng, &req.meta)
            }
            _ => decode_tagged(self.model.as_ref(), &self.series, tok, cfg, pantry, rng, &req.meta),
        };
        recipe_from_tagged(&tagged)
    }

    fn dtypes(&self) -> Vec<String> {
        let mut out = vec!["f32".to_string()];
        if let Some((q, _)) = &self.quant {
            out.push(q.dtype().name().to_string());
        }
        out
    }

    fn model_name(&self) -> String {
        self.model.name().to_string()
    }
}

/// Snapshot a model's weights by parameter name.
pub fn weights_map(model: &dyn LanguageModel) -> TensorMap {
    let mut map = TensorMap::new();
    for (name, p) in model.named_parameters() {
        map.insert(name, p.value());
    }
    map
}

/// Load named weights into a model in place.
///
/// # Panics
/// Panics if a parameter is missing from the map or has the wrong shape
/// (replica construction is programmer-controlled; a mismatch is a bug).
pub fn load_weights(model: &dyn LanguageModel, map: &TensorMap) {
    for (name, p) in model.named_parameters() {
        let t = map
            .get(&name)
            .unwrap_or_else(|| panic!("weights map missing parameter `{name}`"));
        assert_eq!(
            t.dims(),
            p.value().dims(),
            "shape mismatch for `{name}`"
        );
        p.set_value(t.clone());
    }
}

impl TrainedModel {
    /// A `Send + Sync` factory producing serving replicas of this trained
    /// model — pass to [`ratatouille_serving::ApiServer::start`].
    pub fn backend_factory(&self) -> RecipeBackendFactory {
        let kind = self.spec.kind;
        let weights = weights_map(self.spec.model.as_ref());
        let tokenizer: Arc<dyn Tokenizer> = Arc::from(self.spec.tokenizer.clone_box());
        let sampler = self.sampler.clone();
        Arc::new(move |worker_idx| {
            Box::new(ModelBackend::from_weights(
                kind,
                tokenizer.as_ref(),
                &weights,
                sampler.clone(),
                0x5EED ^ worker_idx as u64,
            )) as Box<dyn RecipeBackend>
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use ratatouille_models::train::TrainConfig;

    fn trained() -> TrainedModel {
        let mut cfg = PipelineConfig::small();
        cfg.corpus.num_recipes = 100;
        let p = Pipeline::prepare(cfg);
        p.train(
            ModelKind::WordLstm,
            Some(TrainConfig {
                steps: 3,
                batch_size: 2,
                ..Default::default()
            }),
        )
    }

    #[test]
    fn weights_roundtrip_through_map() {
        let t = trained();
        let map = weights_map(t.spec.model.as_ref());
        let rebuilt = build_model(t.spec.kind, t.spec.tokenizer.vocab_size());
        load_weights(rebuilt.as_ref(), &map);
        for ((n1, p1), (_, p2)) in t
            .spec
            .model
            .named_parameters()
            .iter()
            .zip(rebuilt.named_parameters().iter())
        {
            assert_eq!(p1.value(), p2.value(), "param {n1} differs");
        }
    }

    #[test]
    fn replica_generates_same_structure_as_original() {
        let t = trained();
        let factory = t.backend_factory();
        let mut replica = factory(0);
        let out = replica.generate(&["flour".into(), "water".into()]);
        assert!(!out.title.is_empty());
        assert_eq!(replica.model_name(), t.spec.model.name());
    }

    #[test]
    fn factory_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let t = trained();
        let factory = t.backend_factory();
        assert_send_sync(&factory);
        // and actually usable from another thread
        let handle = std::thread::spawn(move || {
            let mut replica = factory(1);
            replica.generate(&["rice".into()]).title
        });
        assert!(!handle.join().unwrap().is_empty());
    }

    #[test]
    fn lstm_backend_is_f32_only() {
        let t = trained();
        let factory = t.backend_factory();
        let replica = factory(0);
        assert_eq!(replica.dtypes(), vec!["f32"]);
    }

    #[test]
    fn gpt2_backend_serves_int8() {
        let mut cfg = PipelineConfig::small();
        cfg.corpus.num_recipes = 60;
        let p = Pipeline::prepare(cfg);
        let t = p.train(
            ModelKind::DistilGpt2,
            Some(TrainConfig {
                steps: 2,
                batch_size: 2,
                ..Default::default()
            }),
        );
        let factory = t.backend_factory();
        let mut replica = factory(0);
        assert_eq!(replica.dtypes(), vec!["f32", "int8"]);
        let out = replica.generate_seeded(&["flour".into(), "water".into()], "int8", None);
        assert!(!out.title.is_empty());
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn load_weights_detects_missing() {
        let t = trained();
        let empty = TensorMap::new();
        load_weights(t.spec.model.as_ref(), &empty);
    }
}
