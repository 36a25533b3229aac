//! Character-level tokenizer (the char-LSTM baseline's vocabulary).

use crate::special::{self, ALL_SPECIAL_TAGS};
use crate::vocab::Vocab;
use crate::Tokenizer;

/// Character-level tokenizer: every distinct character in the training
/// corpus becomes a token; special tags stay atomic single ids.
#[derive(Debug, Clone)]
pub struct CharTokenizer {
    vocab: Vocab,
    specials: Vec<&'static str>,
}

impl CharTokenizer {
    /// Build a vocabulary from the characters appearing in `corpus`.
    pub fn train<S: AsRef<str>>(corpus: &[S]) -> Self {
        let mut vocab = Vocab::with_specials();
        let specials = all_atomic_tags();
        for doc in corpus {
            for (seg, is_special) in special::split_on_specials(doc.as_ref(), &specials) {
                if is_special {
                    continue; // already registered
                }
                for ch in seg.chars() {
                    vocab.add(&ch.to_string());
                }
            }
        }
        CharTokenizer {
            vocab,
            specials: specials.to_vec(),
        }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }
}

/// Structural tags plus fraction tokens — everything that must stay atomic.
pub(crate) fn all_atomic_tags() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = ALL_SPECIAL_TAGS.to_vec();
    v.extend(special::fraction_tokens());
    v
}

impl Tokenizer for CharTokenizer {
    fn clone_box(&self) -> Box<dyn Tokenizer> {
        Box::new(self.clone())
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::with_capacity(text.len());
        for (seg, is_special) in special::split_on_specials(text, &self.specials) {
            if is_special {
                // xlint: allow(transitive-panic-in-request-path): `specials` is `all_atomic_tags()`, exactly the tags `Vocab::with_specials` registers, and a `Vocab` has no other constructor
                ids.push(self.vocab.id(seg).expect("registered special"));
            } else {
                for ch in seg.chars() {
                    ids.push(
                        self.vocab
                            .id(&ch.to_string())
                            .unwrap_or_else(|| self.vocab.unk_id()),
                    );
                }
            }
        }
        ids
    }

    fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::with_capacity(ids.len());
        for &id in ids {
            out.push_str(self.vocab.token(id).unwrap_or(special::UNK));
        }
        out
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
        "char"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::{INGR_START, RECIPE_START};

    #[test]
    fn roundtrip_plain_text() {
        let tok = CharTokenizer::train(&["mix flour and water"]);
        let ids = tok.encode("flour and water");
        assert_eq!(tok.decode(&ids), "flour and water");
    }

    #[test]
    fn specials_are_single_ids() {
        let text = format!("{RECIPE_START}mix{INGR_START}");
        let tok = CharTokenizer::train(&[text.clone()]);
        let ids = tok.encode(&text);
        assert_eq!(ids.len(), 2 + 3); // two tags + 'm' 'i' 'x'
        assert_eq!(tok.decode(&ids), text);
        assert_eq!(ids[0], tok.bos_id());
    }

    #[test]
    fn unknown_chars_become_unk() {
        let tok = CharTokenizer::train(&["abc"]);
        let ids = tok.encode("azb");
        assert_eq!(ids[1], tok.unk_id());
        assert_eq!(tok.decode(&ids), format!("a{}b", special::UNK));
    }

    #[test]
    fn vocab_is_corpus_chars_plus_reserved() {
        let tok = CharTokenizer::train(&["aab"]);
        // 'a', 'b' = 2 distinct chars
        assert_eq!(tok.vocab_size(), Vocab::with_specials().len() + 2);
    }

    #[test]
    fn unicode_roundtrip() {
        let tok = CharTokenizer::train(&["crème fraîche + jalapeño"]);
        let s = "crème jalapeño";
        assert_eq!(tok.decode(&tok.encode(s)), s);
    }
}
