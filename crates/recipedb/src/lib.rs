//! # ratatouille-recipedb
//!
//! A deterministic, seedable synthetic substitute for the RecipeDB corpus
//! the paper trains on (118,171 recipes, 20,262 ingredients, 268 cooking
//! processes, 26 geo-cultural regions, flavor/nutrition links).
//!
//! RecipeDB itself is served from IIIT-Delhi behind a registration wall and
//! has no redistributable offline copy, so this crate generates a corpus
//! with the same *schema* and the statistical properties the paper's
//! pipeline depends on:
//!
//! * recipes with title, region/country, servings, ingredient lines
//!   (quantity + unit + name — the paper's highlighted contribution),
//!   cooking processes, and step-by-step instructions;
//! * a culinary ontology ([`ontology`]) linking ingredients to categories,
//!   flavor molecules (FlavorDB-style), nutrition (USDA-style) and region
//!   affinities;
//! * Zipf-distributed ingredient frequencies and a long-tailed
//!   recipe-length distribution, so the paper's preprocessing steps
//!   (2000-character cap, ±2σ filtering, short-recipe merging) have real
//!   work to do;
//! * ingredient ↔ instruction consistency, so BLEU against held-out
//!   references measures genuine learning rather than template noise;
//! * injectable raw-data defects (duplicates, truncated records, empty
//!   sections) reproducing the "before preprocessing" state of Fig. 1.
//!
//! ```
//! use ratatouille_recipedb::{corpus::CorpusConfig, grammar::RecipeGenerator};
//!
//! let mut gen = RecipeGenerator::new(42);
//! let recipe = gen.generate();
//! assert!(!recipe.ingredients.is_empty());
//! assert!(!recipe.instructions.is_empty());
//! let _ = CorpusConfig::default(); // corpus-level entry point
//! ```
#![warn(missing_docs)]


pub mod corpus;
pub mod diet;
pub mod grammar;
pub mod ontology;
pub mod preprocess;
pub mod recipe;
pub mod stats;

pub use corpus::{Corpus, CorpusConfig, RawRecord};
pub use grammar::RecipeGenerator;
pub use preprocess::{PreprocessConfig, PreprocessReport, Preprocessor};
pub use recipe::{IngredientLine, Quantity, Recipe};
