//! # ratatouille-models
//!
//! The neural language models of the paper, built from scratch on
//! `ratatouille-tensor`:
//!
//! * [`lstm::LstmLm`] — the character-level and word-level LSTM baselines
//!   (§IV-A);
//! * [`gpt2::Gpt2Lm`] — the GPT-2 architecture (§IV-B): learned token +
//!   position embeddings, pre-LN transformer blocks with causal
//!   multi-head attention and GELU MLPs, and a weight-tied LM head;
//! * [`train`] — mini-batch training with Adam, warmup-cosine LR,
//!   gradient clipping, and crash-safe checkpoint/resume (the paper's
//!   Colab sessions died every 5–7 epochs; ours resume exactly);
//! * [`sample`] — greedy / temperature / top-k / top-p decoding over an
//!   incremental [`lm::TokenStream`] (the LSTMs carry recurrent state,
//!   the transformer a KV cache);
//! * [`registry`] — the four Table-I configurations (Char-LSTM,
//!   Word-LSTM, DistilGPT2, GPT-2 medium) scaled to train on CPU.
#![warn(missing_docs)]


pub mod batch;
pub mod data;
pub mod gpt2;
pub mod kv_block;
pub mod lm;
pub mod lstm;
#[cfg(test)]
mod oracle;
pub mod registry;
pub mod sample;
pub mod train;
pub mod transformer;

pub use batch::{
    AdmitError, BatchEngineConfig, BatchGenerator, BatchRequest, BatchStepModel, FinishedSeq,
    ModelDims, StepOutcome,
};
pub use gpt2::{Gpt2Config, Gpt2Lm, QuantGpt2Lm};
pub use kv_block::{BlockConfig, BlockPool, PoolExhausted, PrefixCache, SeqKv};
pub use lm::{Batch, InferenceModel, LanguageModel, TokenStream};
pub use lstm::{LstmConfig, LstmLm};
pub use registry::{ModelKind, ModelSpec, TABLE1_MODELS};
pub use sample::{generate, SamplerConfig};
pub use train::{Checkpoint, TrainConfig, Trainer};
pub use transformer::BatchScratch;
