//! The tokenizers' first implementations, kept as test oracles.
//!
//! Each is the obvious algorithm: the tag splitter re-runs `find` for
//! every tag after every segment it emits, BPE training recounts every
//! pair of every word for each merge, and the encoder rescans the word
//! and builds a new `Vec` for each merge it applies. The crate's
//! production paths in [`crate::special`] and [`crate::bpe`] must
//! produce exactly what these produce — the same split, the same merges
//! in the same order, the same ids — and the properties below check it.

use ratatouille_util::collections::{det_map, DetMap};

use crate::char_level::all_atomic_tags;

/// Split `text` into plain segments and tags: the earliest tag wins,
/// and among tags at the same position the longest (the first listed on
/// a tie in length).
pub(crate) fn split_on_specials<'a>(text: &'a str, specials: &[&str]) -> Vec<(&'a str, bool)> {
    let mut out = Vec::new();
    let mut rest = text;
    'outer: while !rest.is_empty() {
        // find the earliest special occurrence
        let mut best: Option<(usize, &str)> = None;
        for &sp in specials {
            if let Some(pos) = rest.find(sp) {
                match best {
                    Some((bpos, bsp)) if pos > bpos || (pos == bpos && sp.len() <= bsp.len()) => {}
                    _ => best = Some((pos, sp)),
                }
            }
        }
        match best {
            Some((pos, sp)) => {
                if pos > 0 {
                    out.push((&rest[..pos], false));
                }
                out.push((&rest[pos..pos + sp.len()], true));
                rest = &rest[pos + sp.len()..];
            }
            None => {
                out.push((rest, false));
                break 'outer;
            }
        }
    }
    out
}

/// Split text into words where each word (except possibly the first)
/// carries its leading space.
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

/// Replace every occurrence of `pair` in `ids` with `new_id`.
fn merge_into_new_vec(ids: &mut Vec<u32>, pair: (u32, u32), new_id: u32) {
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

/// A trained reference BPE: the merges in rank order (merge `r` makes id
/// `reserved + 256 + r`).
pub(crate) struct Bpe {
    pub(crate) merges: Vec<(u32, u32)>,
    specials: Vec<&'static str>,
}

impl Bpe {
    fn reserved(&self) -> u32 {
        self.specials.len() as u32
    }

    /// Vocabulary size: the reserved tags, the 256 bytes and the merges.
    pub(crate) fn vocab_size(&self) -> usize {
        self.specials.len() + 256 + self.merges.len()
    }
}

/// Train with up to `num_merges` merges, recounting every pair of every
/// word before each merge; ties break on the smaller pair.
pub(crate) fn train_bpe<S: AsRef<str>>(corpus: &[S], num_merges: usize) -> Bpe {
    let specials = all_atomic_tags();
    let reserved = specials.len() as u32;
    let mut word_counts: DetMap<Vec<u32>, usize> = det_map();
    for doc in corpus {
        for (seg, is_special) in split_on_specials(doc.as_ref(), &specials) {
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
    words.sort();

    let mut merges = Vec::new();
    for _ in 0..num_merges {
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
        let new_id = reserved + 256 + merges.len() as u32;
        merges.push(best_pair);
        for (w, _) in words.iter_mut() {
            merge_into_new_vec(w, best_pair, new_id);
        }
    }
    Bpe { merges, specials }
}

/// Encode `text`: tags to their ids, every space-word to its bytes with
/// the lowest-ranked applicable merge applied until none applies.
pub(crate) fn encode_bpe(bpe: &Bpe, text: &str) -> Vec<u32> {
    let reserved = bpe.reserved();
    let ranks: DetMap<(u32, u32), u32> = bpe
        .merges
        .iter()
        .enumerate()
        .map(|(r, &pair)| (pair, reserved + 256 + r as u32))
        .collect();
    let mut out = Vec::new();
    for (seg, is_special) in split_on_specials(text, &bpe.specials) {
        if is_special {
            let id = bpe
                .specials
                .iter()
                .position(|&s| s == seg)
                .expect("a listed tag");
            out.push(id as u32);
            continue;
        }
        for word in split_space_words(seg) {
            let mut ids: Vec<u32> = word.bytes().map(|b| reserved + b as u32).collect();
            loop {
                let mut best: Option<((u32, u32), u32)> = None;
                for pair in ids.windows(2) {
                    if let Some(&m) = ranks.get(&(pair[0], pair[1])) {
                        if best.map(|(_, b)| m < b).unwrap_or(true) {
                            best = Some(((pair[0], pair[1]), m));
                        }
                    }
                }
                match best {
                    Some((pair, new_id)) => merge_into_new_vec(&mut ids, pair, new_id),
                    None => break,
                }
            }
            out.extend(ids);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use ratatouille_util::proptest::prelude::*;

    use super::*;
    use crate::special;
    use crate::{BpeTokenizer, CharTokenizer, Tokenizer, WordTokenizer};

    /// Train both BPEs on `docs` and require the same merges, vocabulary
    /// size, ids and split for every document and for `probe`; then that
    /// `decode(encode(s)) == s`.
    fn same_as_oracle(docs: &[String], num_merges: usize, probe: &str) -> Result<(), String> {
        let tok = BpeTokenizer::train(docs, num_merges);
        let oracle = train_bpe(docs, num_merges);
        prop_assert_eq!(tok.merge_list(), oracle.merges);
        prop_assert_eq!(tok.vocab_size(), oracle.vocab_size());
        let tags = all_atomic_tags();
        for text in docs.iter().map(String::as_str).chain([probe]) {
            prop_assert_eq!(
                special::split_on_specials(text, &tags),
                split_on_specials(text, &tags)
            );
            let ids = tok.encode(text);
            prop_assert_eq!(ids, encode_bpe(&oracle, text), "text {:?}", text);
            prop_assert_eq!(tok.decode(&ids), text);
        }
        Ok(())
    }

    /// Pieces that glue tags to words: whole tags, tag prefixes, a lone
    /// `<` or `>`, fraction tokens and surfaces, words and spaces.
    const PIECES: &[&str] = &[
        special::NEXT_INGR,
        special::RECIPE_START,
        special::INPUT_END,
        "<FRAC_1_16>",
        "<FRAC_1_1",
        "<NEXT",
        "<",
        ">",
        "1/2",
        "salt",
        "s",
        "a",
        " ",
        "  ",
    ];

    fn glued(picks: &[usize]) -> String {
        picks.iter().map(|&i| PIECES[i]).collect()
    }

    /// Tags for the splitter-only property: prefixes of one another,
    /// listed shortest first, plus two of equal length.
    const NESTED_TAGS: &[&str] = &["<A", "<AB", "<AB>", "B>", "<B>", "<A>"];

    proptest! {
        cases = 1024;

        /// Runs of one byte hold overlapping pairs (`aaaa` holds `aa`
        /// three times), which the incremental counts must not overcount.
        #[test]
        fn oracle_runs_of_one_byte(
            docs in collection::vec(pattern("[a ]{0,24}"), 0..6),
            merges in 0usize..24,
            probe in pattern("[a ]{0,40}"),
        ) {
            same_as_oracle(&docs, merges, &probe)?;
        }

        /// A two-letter alphabet in short words: most pairs tie on count,
        /// so every merge exercises the smaller-pair tie-break.
        #[test]
        fn oracle_tie_heavy(
            docs in collection::vec(pattern("[ab ]{0,16}"), 0..8),
            merges in 0usize..24,
            probe in pattern("[abc ]{0,24}"),
        ) {
            same_as_oracle(&docs, merges, &probe)?;
        }

        /// Tags glued to words, tag prefixes, a `<` that starts no tag.
        #[test]
        fn oracle_tags_glued_to_words(
            docs in collection::vec(collection::vec(0..PIECES.len(), 0..16), 0..6),
            merges in 0usize..24,
            probe in collection::vec(0..PIECES.len(), 0..24),
        ) {
            let docs: Vec<String> = docs.iter().map(|d| glued(d)).collect();
            same_as_oracle(&docs, merges, &glued(&probe))?;
        }

        /// Multi-byte UTF-8: two-, three- and four-byte characters split
        /// into bytes that merge across character boundaries.
        #[test]
        fn oracle_multibyte_utf8(
            docs in collection::vec(pattern("[aé漢😀 ]{0,16}"), 0..6),
            merges in 0usize..24,
            probe in pattern("\\PC{0,24}"),
        ) {
            same_as_oracle(&docs, merges, &probe)?;
        }

        /// Empty and space-only documents: no word, or words that are a
        /// lone space.
        #[test]
        fn oracle_empty_and_space_only(
            docs in collection::vec(pattern("[ ]{0,6}"), 0..6),
            merges in 0usize..8,
            probe in pattern("[ a]{0,8}"),
        ) {
            same_as_oracle(&docs, merges, &probe)?;
        }

        /// Tags that are prefixes of one another: the one-pass splitter
        /// keeps the earliest-then-longest rule.
        #[test]
        fn oracle_splitter_with_nested_tags(text in pattern("[<AB>x ]{0,40}")) {
            prop_assert_eq!(
                special::split_on_specials(&text, NESTED_TAGS),
                split_on_specials(&text, NESTED_TAGS)
            );
        }

        /// Every tokenizer's `encode` is total on printable text, with
        /// ids inside its vocabulary, and BPE's `decode(encode(s)) == s`.
        #[test]
        fn encode_is_total_and_bpe_is_lossless(
            s in pattern("\\PC{0,80}"),
            picks in collection::vec(0..PIECES.len(), 0..12),
        ) {
            let corpus = [glued(&picks), "mix 1/2 cup salt é 漢".to_string()];
            let text = format!("{s}{}", glued(&picks));
            let bpe = BpeTokenizer::train(&corpus, 32);
            prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text.clone());
            let toks: [Box<dyn Tokenizer>; 3] = [
                Box::new(bpe),
                Box::new(CharTokenizer::train(&corpus)),
                Box::new(WordTokenizer::train(&corpus, 1)),
            ];
            for tok in &toks {
                prop_assert!(tok.encode(&text).iter().all(|&id| (id as usize) < tok.vocab_size()));
            }
        }
    }

    /// Shrunk counterexamples of broken incremental trainers, encoders
    /// and splitters, kept as fixed cases: the larger pair winning a tie
    /// (`bbabab`), a merged word missing from the index under its new
    /// right-hand pairs (`aaa` runs), the highest rank merged first
    /// (overlapping runs, 2 merges), the shortest of nested tags.
    #[test]
    fn named_seeds() {
        let docs = |d: &[&str]| d.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        same_as_oracle(&docs(&["bbabab"]), 1, "").unwrap();
        same_as_oracle(&docs(&["  aaa aaa   aaa "]), 3, "").unwrap();
        same_as_oracle(&docs(&["  aaaa  aa a  ", " a"]), 2, "").unwrap();
        let text = ">BBxBB>  <AB";
        assert_eq!(
            special::split_on_specials(text, NESTED_TAGS),
            split_on_specials(text, NESTED_TAGS)
        );
    }
}
