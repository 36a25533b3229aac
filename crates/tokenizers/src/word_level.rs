//! Word-level tokenizer with a frequency cutoff (the word-LSTM baseline).

use ratatouille_util::collections::{det_map, DetMap};

use crate::char_level::all_atomic_tags;
use crate::normalize;
use crate::special::{self};
use crate::vocab::Vocab;
use crate::Tokenizer;

/// Word-level tokenizer. Words occurring fewer than `min_freq` times in
/// the training corpus are dropped from the vocabulary and encode to
/// `<UNK>` — the standard trick that keeps the softmax tractable on
/// long-tailed recipe vocabulary.
#[derive(Debug, Clone)]
pub struct WordTokenizer {
    vocab: Vocab,
    specials: Vec<&'static str>,
}

impl WordTokenizer {
    /// Build a vocabulary from whitespace/punctuation-split words with at
    /// least `min_freq` occurrences.
    pub fn train<S: AsRef<str>>(corpus: &[S], min_freq: usize) -> Self {
        let specials = all_atomic_tags();
        let mut counts: DetMap<String, usize> = det_map();
        for doc in corpus {
            for (seg, is_special) in special::split_on_specials(doc.as_ref(), &specials) {
                if is_special {
                    continue;
                }
                for w in normalize::split_words(seg) {
                    *counts.entry(w.to_string()).or_insert(0) += 1;
                }
            }
        }
        // Deterministic id assignment: sort by (-count, word).
        let mut words: Vec<(String, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_freq.max(1))
            .collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut vocab = Vocab::with_specials();
        for (w, _) in words {
            vocab.add(&w);
        }
        WordTokenizer { vocab, specials }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Fraction of `text`'s words that are in-vocabulary (diagnostic for
    /// choosing `min_freq`).
    pub fn coverage(&self, text: &str) -> f64 {
        let mut total = 0usize;
        let mut known = 0usize;
        for (seg, is_special) in special::split_on_specials(text, &self.specials) {
            if is_special {
                total += 1;
                known += 1;
                continue;
            }
            for w in normalize::split_words(seg) {
                total += 1;
                if self.vocab.id(w).is_some() {
                    known += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            known as f64 / total as f64
        }
    }
}

impl Tokenizer for WordTokenizer {
    fn clone_box(&self) -> Box<dyn Tokenizer> {
        Box::new(self.clone())
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for (seg, is_special) in special::split_on_specials(text, &self.specials) {
            if is_special {
                // xlint: allow(transitive-panic-in-request-path): `specials` is `all_atomic_tags()`, exactly the tags `Vocab::with_specials` registers, and a `Vocab` has no other constructor
                ids.push(self.vocab.id(seg).expect("registered special"));
            } else {
                for w in normalize::split_words(seg) {
                    ids.push(self.vocab.id(w).unwrap_or_else(|| self.vocab.unk_id()));
                }
            }
        }
        ids
    }

    fn decode(&self, ids: &[u32]) -> String {
        let mut parts = Vec::with_capacity(ids.len());
        for &id in ids {
            parts.push(self.vocab.token(id).unwrap_or(special::UNK));
        }
        parts.join(" ")
    }

    fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    fn pad_id(&self) -> u32 {
        self.vocab.pad_id()
    }

    fn unk_id(&self) -> u32 {
        self.vocab.unk_id()
    }

    fn bos_id(&self) -> u32 {
        self.vocab.id(special::RECIPE_START).expect("specials present")
    }

    fn eos_id(&self) -> u32 {
        self.vocab.id(special::RECIPE_END).expect("specials present")
    }

    fn special_id(&self, tag: &str) -> Option<u32> {
        self.vocab.id(tag)
    }

    fn name(&self) -> &'static str {
        "word"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::{NEXT_INGR, RECIPE_START};

    #[test]
    fn roundtrip_in_vocab_text() {
        let tok = WordTokenizer::train(&["mix the flour , add the water"], 1);
        let s = "mix the water , add flour";
        assert_eq!(tok.decode(&tok.encode(s)), s);
    }

    #[test]
    fn min_freq_prunes_rare_words() {
        let tok = WordTokenizer::train(&["common common common rare"], 2);
        let ids = tok.encode("common rare");
        assert_ne!(ids[0], tok.unk_id());
        assert_eq!(ids[1], tok.unk_id());
    }

    #[test]
    fn specials_atomic_between_words() {
        let text = format!("flour {NEXT_INGR} water");
        let tok = WordTokenizer::train(&[text.clone()], 1);
        let ids = tok.encode(&text);
        assert_eq!(ids.len(), 3);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn deterministic_ids_across_trainings() {
        let corpus = ["salt pepper salt oil pepper salt"];
        let a = WordTokenizer::train(&corpus, 1);
        let b = WordTokenizer::train(&corpus, 1);
        assert_eq!(a.encode("salt pepper oil"), b.encode("salt pepper oil"));
        // most frequent word gets the first non-reserved id
        assert_eq!(a.encode("salt")[0], Vocab::with_specials().len() as u32);
    }

    #[test]
    fn coverage_metric() {
        let tok = WordTokenizer::train(&["a b c"], 1);
        assert_eq!(tok.coverage("a b c"), 1.0);
        assert!(tok.coverage("a b z z") < 1.0);
        assert_eq!(tok.coverage(""), 1.0);
    }

    #[test]
    fn bos_eos_stable() {
        let tok = WordTokenizer::train(&[format!("{RECIPE_START} x")], 1);
        assert_eq!(tok.special_id(RECIPE_START), Some(tok.bos_id()));
        assert_ne!(tok.bos_id(), tok.eos_id());
    }
}
