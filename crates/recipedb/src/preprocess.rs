//! The preprocessing pipeline: raw scraped records (Fig. 1) → clean
//! tagged training text (Fig. 2).
//!
//! Stages, in order, mirroring §III of the paper:
//!
//! 1. **noise stripping** — remove scraping artifacts;
//! 2. **parsing** — recover title / ingredient lines / instructions from
//!    the raw layout; unparseable (truncated, headerless) records are the
//!    paper's "incomplete recipes" and are dropped;
//! 3. **deduplication** — drop exact duplicates ("redundant recipes");
//! 4. **validation** — require a title, ≥2 ingredients, ≥2 steps;
//! 5. **tagged rendering** — the Fig. 2 format with section tags and
//!    atomic fraction tokens;
//! 6. **length capping** — "fixing the length of recipes to 2000
//!    characters", done structurally (dropping trailing instruction
//!    steps) so capped records remain well-formed;
//! 7. **short-recipe merging** — "few short length recipes (−3σ) were
//!    merged to make the length close to the mean";
//! 8. **2σ filtering** — "approximately 2σ (95.46 percent) in recipe size
//!    distribution".

use ratatouille_util::accum::sum_f32;
use ratatouille_util::collections::{det_set, DetSet};

use crate::corpus::RawRecord;
use crate::ontology;
use crate::recipe::{IngredientLine, Quantity, Recipe};

/// Scraping artifacts stripped by stage 1.
const NOISE_ARTIFACTS: &[&str] = &["!1", "&nbsp;", "\\u00bd", "<br/>"];

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PreprocessConfig {
    /// Maximum characters per tagged recipe (paper: 2000).
    pub max_chars: usize,
    /// Keep recipes within `sigma_band` standard deviations of the mean
    /// length (paper: 2.0 → 95.46%).
    pub sigma_band: f32,
    /// Merge consecutive short recipes into one training chunk.
    pub merge_short: bool,
    /// Remove exact duplicates (stage 3). Disable only for ablations.
    pub dedup: bool,
    /// Minimum ingredient lines for a valid recipe.
    pub min_ingredients: usize,
    /// Minimum instruction steps for a valid recipe.
    pub min_instructions: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            max_chars: 2000,
            sigma_band: 2.0,
            merge_short: true,
            dedup: true,
            min_ingredients: 2,
            min_instructions: 2,
        }
    }
}

/// Per-stage accounting — the numbers behind the Fig. 1 → Fig. 2
/// reproduction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreprocessReport {
    /// Raw records in.
    pub input_records: usize,
    /// Records containing stripped noise artifacts.
    pub noise_stripped: usize,
    /// Records that failed to parse (truncated / headerless).
    pub parse_failures: usize,
    /// Exact duplicates removed.
    pub duplicates_removed: usize,
    /// Parsed records failing validation.
    pub invalid_removed: usize,
    /// Records whose tagged form was capped to `max_chars`.
    pub capped: usize,
    /// Short records merged into a neighbor chunk.
    pub merged: usize,
    /// Records outside the ±σ band.
    pub sigma_filtered: usize,
    /// Final training texts out.
    pub output_texts: usize,
    /// Mean tagged length before filtering.
    pub mean_len: f32,
    /// Std-dev of tagged length before filtering.
    pub std_len: f32,
}

/// A recipe as recovered from raw text (no region/nutrition metadata —
/// exactly what a scraper sees).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecipe {
    /// Recovered title.
    pub title: String,
    /// Recovered ingredient lines.
    pub ingredients: Vec<IngredientLine>,
    /// Recovered instruction steps.
    pub instructions: Vec<String>,
}

impl ParsedRecipe {
    /// Render in the tagged training format by borrowing
    /// [`Recipe::to_tagged_string`] (region metadata is not part of the
    /// text format).
    pub fn to_tagged_string(&self) -> String {
        Recipe {
            id: 0,
            title: self.title.clone(),
            region: String::new(),
            country: String::new(),
            servings: 4,
            ingredients: self.ingredients.clone(),
            processes: Vec::new(),
            instructions: self.instructions.clone(),
        }
        .to_tagged_string()
    }
}

/// The preprocessing pipeline.
#[derive(Debug, Clone, Default)]
pub struct Preprocessor {
    config: PreprocessConfig,
}

impl Preprocessor {
    /// A pipeline with the given config.
    pub fn new(config: PreprocessConfig) -> Self {
        Preprocessor { config }
    }

    /// Run the full pipeline. Returns the training texts and the report.
    pub fn run(&self, records: &[RawRecord]) -> (Vec<String>, PreprocessReport) {
        let mut report = PreprocessReport {
            input_records: records.len(),
            ..Default::default()
        };

        // Stages 1–2: strip noise, parse.
        let mut parsed: Vec<ParsedRecipe> = Vec::with_capacity(records.len());
        let mut texts_seen: DetSet<String> = det_set();
        for rec in records {
            let mut text = rec.text.clone();
            let before = text.len();
            for art in NOISE_ARTIFACTS {
                text = text.replace(art, " ");
            }
            if text.len() != before {
                report.noise_stripped += 1;
            }
            // Stage 3: dedup on the cleaned text.
            let key: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
            if !texts_seen.insert(key) && self.config.dedup {
                report.duplicates_removed += 1;
                continue;
            }
            match parse_raw(&text) {
                Some(p) => {
                    // Stage 4: validation.
                    if p.ingredients.len() < self.config.min_ingredients
                        || p.instructions.len() < self.config.min_instructions
                        || p.title.trim().is_empty()
                    {
                        report.invalid_removed += 1;
                    } else {
                        parsed.push(p);
                    }
                }
                None => report.parse_failures += 1,
            }
        }

        // Stage 5–6: tagged rendering with structural capping.
        let mut texts: Vec<String> = Vec::with_capacity(parsed.len());
        for mut p in parsed {
            let mut tagged = p.to_tagged_string();
            if tagged.len() > self.config.max_chars {
                report.capped += 1;
                while tagged.len() > self.config.max_chars && p.instructions.len() > 1 {
                    p.instructions.pop();
                    tagged = p.to_tagged_string();
                }
            }
            texts.push(tagged);
        }

        // Length distribution before filtering (reported for Fig. 2).
        let (mean, std) = mean_std(&texts);
        report.mean_len = mean;
        report.std_len = std;

        // Stage 7: merge short records into multi-recipe chunks whose
        // length lands near the mean (and never above the σ band's upper
        // edge, so merged chunks survive stage 8).
        if self.config.merge_short && std > 0.0 {
            let short_cut = mean - self.config.sigma_band * std;
            let hi = mean + self.config.sigma_band * std;
            let mut merged: Vec<String> = Vec::with_capacity(texts.len());
            let mut pending: Option<String> = None;
            for t in texts {
                if (t.len() as f32) < short_cut {
                    report.merged += 1;
                    // flush first if appending would overshoot the band
                    if let Some(prev) = pending.take() {
                        if (prev.len() + t.len()) as f32 > hi {
                            merged.push(prev);
                        } else {
                            pending = Some(prev);
                        }
                    }
                    pending = Some(match pending.take() {
                        Some(prev) => format!("{prev}{t}"),
                        None => t,
                    });
                    if pending.as_ref().unwrap().len() as f32 >= mean {
                        merged.push(pending.take().unwrap());
                    }
                } else {
                    merged.push(t);
                }
            }
            if let Some(p) = pending {
                merged.push(p);
            }
            texts = merged;
        }

        // Stage 8: ±σ band filter.
        if std > 0.0 {
            let lo = mean - self.config.sigma_band * std;
            let hi = mean + self.config.sigma_band * std;
            let before = texts.len();
            texts.retain(|t| {
                let l = t.len() as f32;
                l >= lo && l <= hi
            });
            report.sigma_filtered = before - texts.len();
        }

        report.output_texts = texts.len();
        (texts, report)
    }
}

/// Mean and standard deviation of text lengths.
fn mean_std(texts: &[String]) -> (f32, f32) {
    if texts.is_empty() {
        return (0.0, 0.0);
    }
    let n = texts.len() as f32;
    let mean = sum_f32(texts.iter().map(|t| t.len() as f32)) / n;
    let var = sum_f32(texts.iter().map(|t| {
        let d = t.len() as f32 - mean;
        d * d
    })) / n;
    (mean, var.sqrt())
}

/// Parse one raw record (the Fig. 1 layout): title line, an
/// `Ingredients: a ; b ; c` line, then an instruction paragraph with
/// `.`-separated steps. Returns `None` if the layout is unrecoverable.
pub fn parse_raw(text: &str) -> Option<ParsedRecipe> {
    // A complete raw record always ends its instruction paragraph with a
    // period; a record cut off mid-scrape almost never does. This is the
    // "incomplete recipe" detector.
    if !text.trim_end().ends_with('.') {
        return None;
    }
    let mut lines = text.lines();
    let title_line = lines.next()?.trim();
    let ingr_line = lines.next()?.trim();
    if !ingr_line.starts_with("Ingredients:") {
        // Missing title shifts the layout; unrecoverable for this scraper.
        return None;
    }
    let title = title_line.to_lowercase();
    let ingredients: Vec<IngredientLine> = ingr_line
        .trim_start_matches("Ingredients:")
        .split(';')
        .filter_map(|s| parse_ingredient_line(s.trim()))
        .collect();
    let instr_text: String = lines.collect::<Vec<_>>().join(" ");
    let instructions: Vec<String> = instr_text
        .split(" . ")
        .map(|s| s.trim().trim_end_matches(" .").trim_end_matches('.').trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    Some(ParsedRecipe {
        title,
        ingredients,
        instructions,
    })
}

/// Parse "1 1/2 cups flour" → quantity 1.5, unit "cup", name "flour".
pub fn parse_ingredient_line(s: &str) -> Option<IngredientLine> {
    let tokens: Vec<&str> = s.split_whitespace().collect();
    if tokens.is_empty() {
        return None;
    }
    let mut qty = 0.0f32;
    let mut idx = 0;
    let mut saw_number = false;
    while idx < tokens.len() {
        if let Some(v) = parse_number_or_fraction(tokens[idx]) {
            // xlint: allow(float-reduction-order): mixed-number parsing ("1 1/2") adds at most two terms in input order
            qty += v;
            saw_number = true;
            idx += 1;
        } else {
            break;
        }
    }
    if !saw_number || idx >= tokens.len() {
        return None;
    }
    // unit: singular or plural match against the ontology
    let unit_tok = tokens[idx];
    let unit = ontology::UNITS
        .iter()
        .find(|u| u.name == unit_tok || u.plural == unit_tok)?;
    idx += 1;
    if idx >= tokens.len() {
        return None;
    }
    let name = tokens[idx..].join(" ");
    Some(IngredientLine {
        name,
        qty: Quantity(qty),
        unit: unit.name.to_string(),
    })
}

/// "2" → 2.0, "1/2" → 0.5; anything else → None.
fn parse_number_or_fraction(tok: &str) -> Option<f32> {
    if let Some((a, b)) = tok.split_once('/') {
        let num: f32 = a.parse().ok()?;
        let den: f32 = b.parse().ok()?;
        if den == 0.0 {
            return None;
        }
        return Some(num / den);
    }
    tok.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig, Defect};

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            num_recipes: 400,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn parse_ingredient_lines() {
        let l = parse_ingredient_line("1 1/2 cups flour").unwrap();
        assert_eq!(l.qty.0, 1.5);
        assert_eq!(l.unit, "cup");
        assert_eq!(l.name, "flour");

        let l = parse_ingredient_line("3 cloves garlic").unwrap();
        assert_eq!(l.qty.0, 3.0);
        assert_eq!(l.unit, "clove");

        let l = parse_ingredient_line("1/4 teaspoon black pepper").unwrap();
        assert_eq!(l.qty.0, 0.25);
        assert_eq!(l.name, "black pepper");

        assert!(parse_ingredient_line("").is_none());
        assert!(parse_ingredient_line("some flour").is_none());
        assert!(parse_ingredient_line("2 flibbertigibbets flour").is_none());
        assert!(parse_ingredient_line("2 cups").is_none());
        assert!(parse_ingredient_line("1/0 cups flour").is_none());
    }

    #[test]
    fn parse_roundtrips_generated_recipes() {
        let c = corpus();
        let mut ok = 0;
        for r in c.recipes.iter().take(100) {
            let p = parse_raw(&r.to_raw_string()).expect("clean raw text must parse");
            assert_eq!(p.title, r.title);
            assert_eq!(p.instructions.len(), r.instructions.len());
            if p.ingredients.len() == r.ingredients.len() {
                ok += 1;
            }
        }
        assert!(ok >= 95, "ingredient parse fidelity {ok}/100");
    }

    #[test]
    fn pipeline_removes_duplicates_exactly() {
        let c = corpus();
        let dups = c
            .raw_records
            .iter()
            .filter(|r| r.defect == Some(Defect::Duplicate))
            .count();
        let (_, report) = Preprocessor::new(PreprocessConfig::default()).run(&c.raw_records);
        assert_eq!(report.duplicates_removed, dups);
    }

    #[test]
    fn pipeline_drops_incomplete_records() {
        let c = corpus();
        let (_, report) = Preprocessor::new(PreprocessConfig::default()).run(&c.raw_records);
        let injected_incomplete = c
            .raw_records
            .iter()
            .filter(|r| {
                matches!(
                    r.defect,
                    Some(Defect::MissingInstructions) | Some(Defect::MissingTitle) | Some(Defect::Truncated)
                )
            })
            .count();
        let removed = report.parse_failures + report.invalid_removed;
        // every injected incomplete record is caught (noise-only records
        // may also trip validation, so >=)
        assert!(
            removed >= injected_incomplete * 9 / 10,
            "removed {removed} of {injected_incomplete} incomplete"
        );
    }

    #[test]
    fn output_is_well_formed_tagged_text() {
        let c = corpus();
        let (texts, report) = Preprocessor::new(PreprocessConfig::default()).run(&c.raw_records);
        assert_eq!(texts.len(), report.output_texts);
        assert!(!texts.is_empty());
        for t in &texts {
            assert!(t.starts_with("<RECIPE_START>"), "bad start: {}", &t[..40.min(t.len())]);
            assert!(t.ends_with("<RECIPE_END>"));
            assert!(!NOISE_ARTIFACTS.iter().any(|a| t.contains(a)), "noise survived");
        }
    }

    #[test]
    fn caps_apply_structurally() {
        let cfg = PreprocessConfig {
            max_chars: 400,
            sigma_band: 10.0, // disable filtering to isolate capping
            merge_short: false,
            ..PreprocessConfig::default()
        };
        let c = corpus();
        let (texts, report) = Preprocessor::new(cfg).run(&c.raw_records);
        assert!(report.capped > 0);
        for t in &texts {
            // capped records stay valid tagged recipes
            assert!(t.contains("<INSTR_START>"));
            assert!(t.ends_with("<RECIPE_END>"));
        }
    }

    #[test]
    fn sigma_band_keeps_bulk_of_distribution() {
        let c = corpus();
        let (texts, report) = Preprocessor::new(PreprocessConfig::default()).run(&c.raw_records);
        // With a 2σ band the filter should remove only a small tail.
        let kept = texts.len() as f64 / (report.input_records as f64);
        assert!(kept > 0.7, "kept fraction {kept}");
        assert!(report.mean_len > 0.0);
        assert!(report.std_len > 0.0);
    }

    #[test]
    fn merging_combines_adjacent_short_records() {
        // Deterministic bimodal corpus: 20 long records and 4 adjacent
        // short ones. With a 1σ band the shorts fall below the merge
        // threshold and must coalesce into multi-recipe chunks.
        let long_steps: Vec<String> = (0..8)
            .map(|i| format!("cook the mixture thoroughly over medium heat step {i}"))
            .collect();
        let long = |i: usize| {
            format!(
                "Long Recipe {i}\nIngredients: 2 cups flour ; 1 cup sugar ; 3 cloves garlic\n{} . \n",
                long_steps.join(" . ")
            )
        };
        let short = |i: usize| {
            format!("Short {i}\nIngredients: 1 cup rice ; 1 teaspoon salt\nrinse . simmer . \n")
        };
        let mut records: Vec<RawRecord> = (0..20)
            .map(|i| RawRecord { text: long(i), source_id: i as u64, defect: None })
            .collect();
        for i in 0..4 {
            records.push(RawRecord {
                text: short(i),
                source_id: 100 + i as u64,
                defect: None,
            });
        }
        let cfg = PreprocessConfig {
            sigma_band: 1.0,
            ..PreprocessConfig::default()
        };
        let (texts, rep) = Preprocessor::new(cfg).run(&records);
        assert_eq!(rep.merged, 4, "{rep:?}");
        let multi = texts
            .iter()
            .filter(|t| t.matches("<RECIPE_START>").count() >= 2)
            .count();
        assert!(multi >= 1, "no merged chunk in output: {rep:?}");
        // merging never loses recipe content before the σ filter
        let total_recipes: usize = texts.iter().map(|t| t.matches("<RECIPE_START>").count()).sum();
        assert!(total_recipes >= 20, "total {total_recipes}");
    }

    #[test]
    fn empty_input_is_empty_output() {
        let (texts, report) = Preprocessor::new(PreprocessConfig::default()).run(&[]);
        assert!(texts.is_empty());
        assert_eq!(report.output_texts, 0);
    }
}
