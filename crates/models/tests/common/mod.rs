//! Fixtures shared by the engine-level determinism suites.

use ratatouille_models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille_models::lm::LanguageModel;
use ratatouille_tensor::Tensor;
use ratatouille_util::rng::{RngExt, SeedableRng, StdRng};

/// An untrained GPT-2 whose biases and layer-norm parameters are
/// deterministic *nonzero* values.
///
/// `Gpt2Lm::new` initialises every bias to zero and every gain to one,
/// and adding a zero bias before or after a GEMM is the same float — so
/// a plain untrained fixture cannot see two decode paths that apply a
/// bias in a different order. Perturbing every 1-D parameter makes the
/// logits as sensitive to that as a trained model's.
pub fn biased(config: Gpt2Config) -> Gpt2Lm {
    let model = Gpt2Lm::new(config);
    let mut rng = StdRng::seed_from_u64(0xB1A5);
    for (_, p) in model.named_parameters() {
        let v = p.value();
        if v.dims().len() == 1 {
            let data = v.data().iter().map(|&x| x + rng.random::<f32>() * 0.4 - 0.2).collect();
            p.set_value(Tensor::from_vec(data, v.dims()).expect("same shape"));
        }
    }
    model
}

/// The 16/32 shape every suite decodes with: both widths divide the
/// GEMM pack width, so the model is batch-ready. `local_window` makes it
/// GPT-Neo (odd layers local).
pub fn tiny(name: &str, local_window: Option<usize>) -> Gpt2Lm {
    biased(Gpt2Config {
        name: name.into(),
        vocab: 16,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_t: 64,
        local_window,
        dropout: 0.0,
        seed: 5,
    })
}
