//! Byte-level byte-pair encoding, trained on the recipe corpus.
//!
//! This is the GPT-2 tokenization: the base alphabet is the 256 bytes (so
//! *any* input encodes without `<UNK>`), and training greedily merges the
//! most frequent adjacent token pair until the merge budget is exhausted.
//! As in GPT-2, a word's leading space is kept attached to the word and
//! merges never cross word boundaries.

use ratatouille_util::collections::{det_map, DetMap};

use crate::char_level::all_atomic_tags;
use crate::special;
use crate::Tokenizer;

/// Byte-level BPE tokenizer.
///
/// Id layout: `0..R` are the reserved special/fraction tokens (same order
/// as the other tokenizers), `R..R+256` are the byte tokens, and merged
/// tokens follow in the order they were learned (id order == merge rank,
/// which the encoder exploits).
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    specials: Vec<&'static str>,
    special_ids: DetMap<String, u32>,
    /// Byte string for each non-reserved id (`id - reserved`).
    token_bytes: Vec<Vec<u8>>,
    /// (left id, right id) → merged id.
    merges: DetMap<(u32, u32), u32>,
}

impl BpeTokenizer {
    /// Number of reserved token ids at the front of the space.
    fn reserved(&self) -> u32 {
        self.specials.len() as u32
    }

    /// Train a BPE vocabulary with up to `num_merges` merges.
    ///
    /// Deterministic: pair-frequency ties break on the lexicographically
    /// smaller pair, so identical corpora yield identical vocabularies.
    pub fn train<S: AsRef<str>>(corpus: &[S], num_merges: usize) -> Self {
        let specials = all_atomic_tags();
        let special_ids: DetMap<String, u32> = specials
            .iter()
            .enumerate()
            .map(|(i, &s)| (s.to_string(), i as u32))
            .collect();
        let reserved = specials.len() as u32;

        let mut tok = BpeTokenizer {
            specials,
            special_ids,
            token_bytes: (0..=255u8).map(|b| vec![b]).collect(),
            merges: det_map(),
        };

        // Collect word frequencies (words carry their leading space).
        let mut word_counts: DetMap<Vec<u32>, usize> = det_map();
        for doc in corpus {
            for (seg, is_special) in special::split_on_specials(doc.as_ref(), &tok.specials) {
                if is_special {
                    continue;
                }
                for w in split_space_words(seg) {
                    let ids: Vec<u32> = w.bytes().map(|b| reserved + b as u32).collect();
                    *word_counts.entry(ids).or_insert(0) += 1;
                }
            }
        }
        let mut words: Vec<(Vec<u32>, usize)> = word_counts.into_iter().collect();
        words.sort(); // deterministic iteration order

        for _ in 0..num_merges {
            // Count adjacent pairs across all words.
            let mut pair_counts: DetMap<(u32, u32), usize> = det_map();
            for (w, c) in &words {
                for pair in w.windows(2) {
                    *pair_counts.entry((pair[0], pair[1])).or_insert(0) += c;
                }
            }
            let Some((&best_pair, &best_count)) = pair_counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                break;
            };
            if best_count < 2 {
                break;
            }
            let new_id = reserved + tok.token_bytes.len() as u32;
            let mut merged_bytes = tok.bytes_of(best_pair.0).to_vec();
            merged_bytes.extend_from_slice(tok.bytes_of(best_pair.1));
            tok.token_bytes.push(merged_bytes);
            tok.merges.insert(best_pair, new_id);
            for (w, _) in words.iter_mut() {
                merge_in_place(w, best_pair, new_id);
            }
        }
        tok
    }

    fn bytes_of(&self, id: u32) -> &[u8] {
        &self.token_bytes[(id - self.reserved()) as usize]
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// Encode one space-word by applying merges in rank order.
    fn encode_word(&self, word: &str) -> Vec<u32> {
        let reserved = self.reserved();
        let mut ids: Vec<u32> = word.bytes().map(|b| reserved + b as u32).collect();
        loop {
            // The applicable merge with the lowest rank (smallest new id).
            let mut best: Option<((u32, u32), u32)> = None;
            for pair in ids.windows(2) {
                if let Some(&m) = self.merges.get(&(pair[0], pair[1])) {
                    if best.map(|(_, b)| m < b).unwrap_or(true) {
                        best = Some(((pair[0], pair[1]), m));
                    }
                }
            }
            match best {
                Some((pair, new_id)) => merge_in_place(&mut ids, pair, new_id),
                None => break,
            }
        }
        ids
    }
}

/// Replace every occurrence of `pair` in `ids` with `new_id`, in place.
fn merge_in_place(ids: &mut Vec<u32>, pair: (u32, u32), new_id: u32) {
    let mut out = Vec::with_capacity(ids.len());
    let mut i = 0;
    while i < ids.len() {
        if i + 1 < ids.len() && ids[i] == pair.0 && ids[i + 1] == pair.1 {
            out.push(new_id);
            i += 2;
        } else {
            out.push(ids[i]);
            i += 1;
        }
    }
    *ids = out;
}

/// Split text into words where each word (except possibly the first)
/// carries its leading space: `"mix the dough"` → `["mix", " the", " dough"]`.
fn split_space_words(text: &str) -> Vec<&str> {
    let mut words = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b' ' && i > start {
            words.push(&text[start..i]);
            start = i;
        }
        i += 1;
    }
    if start < bytes.len() {
        words.push(&text[start..]);
    }
    words
}

impl Tokenizer for BpeTokenizer {
    fn clone_box(&self) -> Box<dyn Tokenizer> {
        Box::new(self.clone())
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        for (seg, is_special) in special::split_on_specials(text, &self.specials) {
            if is_special {
                ids.push(self.special_ids[seg]);
            } else {
                for w in split_space_words(seg) {
                    ids.extend(self.encode_word(w));
                }
            }
        }
        ids
    }

    fn decode(&self, ids: &[u32]) -> String {
        let reserved = self.reserved();
        let mut bytes = Vec::new();
        for &id in ids {
            if id < reserved {
                bytes.extend_from_slice(self.specials[id as usize].as_bytes());
            } else if ((id - reserved) as usize) < self.token_bytes.len() {
                bytes.extend_from_slice(self.bytes_of(id));
            } else {
                bytes.extend_from_slice(special::UNK.as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn vocab_size(&self) -> usize {
        self.specials.len() + self.token_bytes.len()
    }

    fn pad_id(&self) -> u32 {
        self.special_ids[special::PAD]
    }

    fn unk_id(&self) -> u32 {
        self.special_ids[special::UNK]
    }

    fn bos_id(&self) -> u32 {
        self.special_ids[special::RECIPE_START]
    }

    fn eos_id(&self) -> u32 {
        self.special_ids[special::RECIPE_END]
    }

    fn special_id(&self, tag: &str) -> Option<u32> {
        self.special_ids.get(tag).copied()
    }

    fn name(&self) -> &'static str {
        "bpe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::{INGR_START, RECIPE_START};

    #[test]
    fn roundtrip_any_text_without_unk() {
        let tok = BpeTokenizer::train(&["mix flour and water"], 50);
        // text with characters never seen in training still round-trips
        let s = "Zörk! 漢字 #42";
        assert_eq!(tok.decode(&tok.encode(s)), s);
    }

    #[test]
    fn merges_compress_frequent_text() {
        let corpus = vec!["the dough the dough the dough the dough"; 20];
        let trained = BpeTokenizer::train(&corpus, 100);
        let untrained = BpeTokenizer::train(&[""], 0);
        let text = "the dough the dough";
        assert!(trained.encode(text).len() < untrained.encode(text).len());
        assert_eq!(trained.decode(&trained.encode(text)), text);
    }

    #[test]
    fn merge_budget_respected() {
        let tok = BpeTokenizer::train(&["aaaa bbbb aaaa bbbb"], 3);
        assert!(tok.num_merges() <= 3);
        assert_eq!(tok.vocab_size(), tok.specials.len() + 256 + tok.num_merges());
    }

    #[test]
    fn specials_stay_atomic() {
        let text = format!("{RECIPE_START}mix{INGR_START}");
        let tok = BpeTokenizer::train(&[text.clone()], 10);
        let ids = tok.encode(&text);
        assert_eq!(ids[0], tok.bos_id());
        assert!(ids.len() <= 2 + 3);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn deterministic_training() {
        let corpus = ["knead the dough until smooth and pliable"];
        let a = BpeTokenizer::train(&corpus, 30);
        let b = BpeTokenizer::train(&corpus, 30);
        assert_eq!(a.encode(corpus[0]), b.encode(corpus[0]));
    }

    #[test]
    fn space_words_keep_leading_space() {
        assert_eq!(split_space_words("mix the dough"), vec!["mix", " the", " dough"]);
        assert_eq!(split_space_words(" leading"), vec![" leading"]);
        assert_eq!(split_space_words(""), Vec::<&str>::new());
        assert_eq!(split_space_words("  double"), vec![" ", " double"]);
    }

    #[test]
    fn merges_never_cross_word_boundaries() {
        // "ab ab" repeated: merge of 'a'+'b' is fine but "b a" (across the
        // boundary) must never merge because words are processed separately.
        let corpus = vec!["ab ab ab ab ab ab"; 10];
        let tok = BpeTokenizer::train(&corpus, 50);
        let ids = tok.encode("ab ab");
        assert_eq!(tok.decode(&ids), "ab ab");
        // encoding "ba" (no space) still round-trips
        assert_eq!(tok.decode(&tok.encode("ba")), "ba");
    }
}
