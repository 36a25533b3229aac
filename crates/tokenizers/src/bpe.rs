//! Byte-level byte-pair encoding, trained on the recipe corpus.
//!
//! This is the GPT-2 tokenization: the base alphabet is the 256 bytes (so
//! *any* input encodes without `<UNK>`), and training greedily merges the
//! most frequent adjacent token pair until the merge budget is exhausted.
//! As in GPT-2, a word's leading space is kept attached to the word and
//! merges never cross word boundaries.
//!
//! Training keeps its pair counts exact incrementally (`PairCounts`),
//! and encoding merges in place through a compact rank index
//! (`MergeRanks`); DESIGN.md's tokenizer section gives the costs and
//! why both equal the plain algorithms, which the crate keeps as test
//! oracles.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    ranks: MergeRanks,
}

/// A pair of adjacent token ids.
type Pair = (u32, u32);

/// The learned merges as `(left << 32 | right, merged id)`, sorted by
/// key: 6 KB for the registry's 384 merges, a binary search per lookup.
/// (A dense vocabulary-square table would put megabytes in every
/// replica.)
#[derive(Debug, Clone)]
struct MergeRanks(Vec<(u64, u32)>);

impl MergeRanks {
    fn key(left: u32, right: u32) -> u64 {
        ((left as u64) << 32) | right as u64
    }

    /// Index `merges`, in rank order: merge `r` makes id `first_id + r`.
    fn new(merges: &[Pair], first_id: u32) -> MergeRanks {
        let mut ranks: Vec<(u64, u32)> = merges
            .iter()
            .enumerate()
            .map(|(r, &(left, right))| (Self::key(left, right), first_id + r as u32))
            .collect();
        ranks.sort_unstable();
        MergeRanks(ranks)
    }

    /// The id `left` and `right` merge into, if they do.
    fn get(&self, left: u32, right: u32) -> Option<u32> {
        let at = self.0.binary_search_by_key(&Self::key(left, right), |&(k, _)| k).ok()?;
        self.0.get(at).map(|&(_, id)| id)
    }
}

/// Exact adjacent-pair counts over a weighted word list, kept up to date
/// merge by merge instead of recounted.
///
/// `count[p]` is the number of times `p` occurs, each word weighted by
/// its frequency; pairs that occur nowhere have no entry. `holders[p]`
/// lists every word that holds `p` (and possibly some that no longer do,
/// or one twice). `heap` holds an entry for every pair's current count,
/// plus stale ones that [`PairCounts::best`] skips.
struct PairCounts {
    count: DetMap<Pair, usize>,
    holders: DetMap<Pair, Vec<u32>>,
    heap: BinaryHeap<(usize, Reverse<Pair>)>,
}

impl PairCounts {
    fn new(words: &[(Vec<u32>, usize)]) -> PairCounts {
        let mut counts = PairCounts {
            count: det_map(),
            holders: det_map(),
            heap: BinaryHeap::new(),
        };
        for (i, (w, c)) in words.iter().enumerate() {
            for p in w.windows(2) {
                let pair = (p[0], p[1]);
                *counts.count.entry(pair).or_insert(0) += c;
                counts.holders.entry(pair).or_default().push(i as u32);
            }
        }
        counts.heap = counts
            .count
            .iter()
            .map(|(&p, &c)| (c, Reverse(p)))
            .collect();
        counts
    }

    /// The most frequent pair and its count, ties to the smaller pair —
    /// the pick a full recount makes. It leaves the heap, so call
    /// [`PairCounts::merge`] on it next.
    fn best(&mut self) -> Option<(Pair, usize)> {
        while let Some((c, Reverse(pair))) = self.heap.pop() {
            if self.count.get(&pair) == Some(&c) {
                return Some((pair, c));
            }
        }
        None
    }

    /// Merge `pair` into `new_id` in every word that holds it, and
    /// recount only those words: take each one's pairs out of the counts,
    /// merge, and put its new pairs back.
    fn merge(&mut self, words: &mut [(Vec<u32>, usize)], pair: Pair, new_id: u32) {
        let mut holders = self.holders.remove(&pair).unwrap_or_default();
        holders.sort_unstable();
        holders.dedup();
        let mut touched: Vec<Pair> = Vec::new();
        for i in holders {
            let (w, c) = &mut words[i as usize];
            if !w.windows(2).any(|p| (p[0], p[1]) == pair) {
                continue;
            }
            for p in w.windows(2) {
                let p = (p[0], p[1]);
                if let Some(n) = self.count.get_mut(&p) {
                    *n -= *c;
                    if *n == 0 {
                        self.count.remove(&p);
                    }
                }
                touched.push(p);
            }
            let len = merge_pairs(w, pair, new_id);
            w.truncate(len);
            for p in w.windows(2) {
                let p = (p[0], p[1]);
                *self.count.entry(p).or_insert(0) += *c;
                // Only pairs with the new id are new to this word; it is
                // already listed under the rest.
                if p.0 == new_id || p.1 == new_id {
                    self.holders.entry(p).or_default().push(i);
                }
                touched.push(p);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for p in touched {
            if let Some(&c) = self.count.get(&p) {
                self.heap.push((c, Reverse(p)));
            }
        }
    }
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

        // Collect word frequencies (words carry their leading space).
        let mut word_counts: DetMap<&str, usize> = det_map();
        for doc in corpus {
            for (seg, is_special) in special::split_on_specials(doc.as_ref(), &specials) {
                if !is_special {
                    for w in split_space_words(seg) {
                        *word_counts.entry(w).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut words: Vec<(Vec<u32>, usize)> = word_counts
            .into_iter()
            .map(|(w, c)| (w.bytes().map(|b| reserved + b as u32).collect(), c))
            .collect();

        let mut token_bytes: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
        let mut merges: Vec<Pair> = Vec::new();
        let mut counts = PairCounts::new(&words);
        while merges.len() < num_merges {
            let Some((pair, count)) = counts.best() else {
                break;
            };
            if count < 2 {
                break;
            }
            let new_id = reserved + token_bytes.len() as u32;
            let mut merged_bytes = token_bytes[(pair.0 - reserved) as usize].clone();
            merged_bytes.extend_from_slice(&token_bytes[(pair.1 - reserved) as usize]);
            token_bytes.push(merged_bytes);
            merges.push(pair);
            counts.merge(&mut words, pair, new_id);
        }
        BpeTokenizer {
            specials,
            special_ids,
            token_bytes,
            ranks: MergeRanks::new(&merges, reserved + 256),
        }
    }

    fn bytes_of(&self, id: u32) -> &[u8] {
        &self.token_bytes[(id - self.reserved()) as usize]
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.ranks.0.len()
    }

    /// The merges in rank order, read back from the rank index.
    #[cfg(test)]
    pub(crate) fn merge_list(&self) -> Vec<Pair> {
        let mut ranked = self.ranks.0.clone();
        ranked.sort_unstable_by_key(|&(_, id)| id);
        ranked.iter().map(|&(k, _)| ((k >> 32) as u32, k as u32)).collect()
    }

    /// Append the ids of one space-word to `out`: its bytes, then the
    /// lowest-ranked applicable merge, applied in place, until none
    /// applies.
    fn encode_word(&self, word: &str, out: &mut Vec<u32>) {
        let reserved = self.reserved();
        let start = out.len();
        out.extend(word.bytes().map(|b| reserved + b as u32));
        let ids = &mut out[start..];
        let mut len = ids.len();
        loop {
            let best = ids[..len]
                .windows(2)
                .filter_map(|p| Some((self.ranks.get(p[0], p[1])?, (p[0], p[1]))))
                .min_by_key(|&(merged, _)| merged);
            let Some((new_id, pair)) = best else {
                break;
            };
            len = merge_pairs(&mut ids[..len], pair, new_id);
        }
        out.truncate(start + len);
    }
}

/// Replace every occurrence of `pair` in `ids` with `new_id`, left to
/// right, compacting in place; returns the new length.
fn merge_pairs(ids: &mut [u32], pair: Pair, new_id: u32) -> usize {
    let (mut read, mut write) = (0, 0);
    while read < ids.len() {
        if read + 1 < ids.len() && ids[read] == pair.0 && ids[read + 1] == pair.1 {
            ids[write] = new_id;
            read += 2;
        } else {
            ids[write] = ids[read];
            read += 1;
        }
        write += 1;
    }
    write
}

/// Split text into words where each word (except possibly the first)
/// carries its leading space: `"mix the dough"` → `["mix", " the", " dough"]`.
fn split_space_words(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        // The next word ends at the next space after its first byte.
        let end = rest
            .bytes()
            .skip(1)
            .position(|b| b == b' ')
            .map_or(rest.len(), |p| p + 1);
        let (word, tail) = rest.split_at(end);
        rest = tail;
        Some(word)
    })
}

impl Tokenizer for BpeTokenizer {
    fn clone_box(&self) -> Box<dyn Tokenizer> {
        Box::new(self.clone())
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        // At most one id per byte.
        let mut ids = Vec::with_capacity(text.len());
        for (seg, is_special) in special::split_on_specials(text, &self.specials) {
            if is_special {
                ids.push(self.special_ids[seg]);
            } else {
                for w in split_space_words(seg) {
                    self.encode_word(w, &mut ids);
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
        let words = |s| split_space_words(s).collect::<Vec<_>>();
        assert_eq!(words("mix the dough"), vec!["mix", " the", " dough"]);
        assert_eq!(words(" leading"), vec![" leading"]);
        assert_eq!(words(""), Vec::<&str>::new());
        assert_eq!(words("  double"), vec![" ", " double"]);
        assert_eq!(words("a  b "), vec!["a", " ", " b", " "]);
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
