//! # ratatouille-tokenizers
//!
//! The three tokenizations the paper trains language models over:
//!
//! * [`CharTokenizer`] — character level (for the char-LSTM baseline),
//! * [`WordTokenizer`] — word level with a frequency cutoff and `<unk>`
//!   (for the word-LSTM baseline),
//! * [`BpeTokenizer`] — byte-level byte-pair encoding trained on the
//!   corpus (the GPT-2 tokenization).
//!
//! All three share the [`Tokenizer`] trait and treat the recipe-structure
//! tags and fraction/number markers in [`special`] as atomic units — the
//! paper highlights "special tokens to account the fractions and numbers"
//! as the feature distinguishing it from RecipeGPT/RecipeNLG.
//!
//! ```
//! use ratatouille_tokenizers::{CharTokenizer, Tokenizer};
//!
//! let tok = CharTokenizer::train(&["mix flour and water"]);
//! let ids = tok.encode("mix flour");
//! assert_eq!(tok.decode(&ids), "mix flour");
//! ```
#![warn(missing_docs)]


pub mod bpe;
pub mod char_level;
pub mod normalize;
pub mod special;
pub mod vocab;
pub mod word_level;

pub use bpe::BpeTokenizer;
pub use char_level::CharTokenizer;
pub use vocab::Vocab;
pub use word_level::WordTokenizer;

/// A reversible mapping between text and token-id sequences.
///
/// Implementations guarantee:
/// * `decode(encode(s)) == s` for text drawn from the training alphabet
///   (word-level maps out-of-vocabulary words to `<unk>`, so its
///   round-trip is exact only on in-vocabulary text);
/// * special tokens from [`special::ALL_SPECIAL_TAGS`] encode to exactly
///   one id each and round-trip verbatim.
pub trait Tokenizer: Send + Sync {
    /// Encode text into token ids.
    fn encode(&self, text: &str) -> Vec<u32>;

    /// Clone into a boxed trait object (tokenizers are value types; this
    /// lets pipelines ship them across worker threads).
    fn clone_box(&self) -> Box<dyn Tokenizer>;

    /// Decode token ids back into text. Unknown ids render as
    /// [`special::UNK`].
    fn decode(&self, ids: &[u32]) -> String;

    /// Total vocabulary size (dense ids `0..vocab_size`).
    fn vocab_size(&self) -> usize;

    /// Id of the padding token.
    fn pad_id(&self) -> u32;

    /// Id of the unknown token.
    fn unk_id(&self) -> u32;

    /// Id of the beginning-of-recipe token ([`special::RECIPE_START`]).
    fn bos_id(&self) -> u32;

    /// Id of the end-of-recipe token ([`special::RECIPE_END`]).
    fn eos_id(&self) -> u32;

    /// Id for an arbitrary special tag, if registered.
    fn special_id(&self, tag: &str) -> Option<u32>;

    /// Human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;
}
