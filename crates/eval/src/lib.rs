//! # ratatouille-eval
//!
//! Evaluation metrics for generated recipes.
//!
//! The paper's quantitative evaluation is BLEU (Table I); this crate
//! implements it exactly (modified n-gram precision, brevity penalty,
//! Chen–Cherry smoothing) plus the complementary metrics the recipe-
//! generation literature reports and that our ablation benches use:
//! perplexity, distinct-n / self-BLEU diversity, corpus-overlap novelty,
//! and a structural well-formedness validator for the tagged recipe
//! format.
//!
//! ```
//! use ratatouille_eval::bleu::sentence_bleu;
//!
//! let score = sentence_bleu(
//!     "mix the flour and water",
//!     &["mix the flour and water"],
//! );
//! assert!((score - 1.0).abs() < 1e-9);
//! ```
#![warn(missing_docs)]


pub mod bleu;
pub mod coverage;
pub mod diversity;
pub mod novelty;
pub mod perplexity;
pub mod report;
pub mod rouge;
pub mod structure;

pub use bleu::{corpus_bleu, sentence_bleu};
pub use report::EvalReport;
pub use structure::{validate_tagged_recipe, StructureReport};
