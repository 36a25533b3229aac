//! Tokenized dataset handling: chunking the "one long string" corpus into
//! fixed-length training blocks and drawing random batches.
//!
//! The paper concatenates all tagged recipes into a single training
//! stream (§IV-B, Fig. 3); [`Dataset::from_texts`] reproduces that, then
//! slices the stream into `block_size + 1`-token windows so each window
//! yields `(input, target)` pairs shifted by one.

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::RngExt;
use ratatouille_tokenizers::Tokenizer;

use crate::lm::Batch;

/// A tokenized corpus pre-cut into training blocks.
#[derive(Debug, Clone)]
pub struct Dataset {
    blocks: Vec<Vec<u32>>,
    pad_id: u32,
    block_size: usize,
}

impl Dataset {
    /// Tokenize `texts`, concatenate into one stream, and cut into
    /// non-overlapping `block_size + 1` windows (the `+1` supplies the
    /// shifted targets). A trailing remainder shorter than 16 tokens is
    /// dropped; otherwise it is kept padded.
    pub fn from_texts<S: AsRef<str>>(
        texts: &[S],
        tokenizer: &dyn Tokenizer,
        block_size: usize,
    ) -> Self {
        assert!(block_size >= 2, "block_size must be >= 2");
        let mut stream: Vec<u32> = Vec::new();
        for t in texts {
            stream.extend(tokenizer.encode(t.as_ref()));
        }
        let pad_id = tokenizer.pad_id();
        let window = block_size + 1;
        let mut blocks = Vec::with_capacity(stream.len() / window + 1);
        let mut i = 0;
        while i + window <= stream.len() {
            blocks.push(stream[i..i + window].to_vec());
            i += window;
        }
        let rest = &stream[i..];
        if rest.len() >= 16 {
            let mut b = rest.to_vec();
            b.resize(window, pad_id);
            blocks.push(b);
        }
        Dataset {
            blocks,
            pad_id,
            block_size,
        }
    }

    /// Like [`Dataset::from_texts`], but every block starts at a
    /// *document* (recipe) boundary: whole documents are packed greedily
    /// into `block_size + 1` windows, padding the tail of each window.
    ///
    /// This matches the paper's training instances ("recipe elements …
    /// used as a single training instance") and is what makes conditional
    /// generation work for position-embedding models: at decode time the
    /// prompt starts at position 0, so training must regularly show
    /// `<RECIPE_START>` at position 0 too.
    pub fn from_documents<S: AsRef<str>>(
        texts: &[S],
        tokenizer: &dyn Tokenizer,
        block_size: usize,
    ) -> Self {
        assert!(block_size >= 2, "block_size must be >= 2");
        let pad_id = tokenizer.pad_id();
        let window = block_size + 1;
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        let mut current: Vec<u32> = Vec::with_capacity(window);
        for t in texts {
            let mut ids = tokenizer.encode(t.as_ref());
            if ids.len() > window {
                ids.truncate(window); // overlong doc: keep its head
            }
            if current.len() + ids.len() > window {
                current.resize(window, pad_id);
                blocks.push(std::mem::take(&mut current));
            }
            current.extend(ids);
        }
        if current.len() >= 16 {
            current.resize(window, pad_id);
            blocks.push(current);
        }
        Dataset {
            blocks,
            pad_id,
            block_size,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Draw a random batch of `batch_size` blocks (with replacement).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn sample_batch(&self, batch_size: usize, rng: &mut StdRng) -> Batch {
        assert!(!self.is_empty(), "sample_batch on empty dataset");
        let mut inputs = Vec::with_capacity(batch_size);
        let mut targets = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let b = &self.blocks[rng.random_range(0..self.blocks.len())];
            inputs.push(b[..self.block_size].to_vec());
            targets.push(b[1..].to_vec());
        }
        Batch {
            inputs,
            targets,
            pad_id: self.pad_id,
        }
    }

    /// Iterate all blocks as `(input, target)` pairs in order (evaluation).
    pub fn iter_examples(&self) -> impl Iterator<Item = (Vec<u32>, Vec<u32>)> + '_ {
        self.blocks
            .iter()
            .map(|b| (b[..self.block_size].to_vec(), b[1..].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_util::rng::SeedableRng;
    use ratatouille_tokenizers::CharTokenizer;

    fn tok() -> CharTokenizer {
        CharTokenizer::train(&["abcdefghij klmnopqrst"])
    }

    #[test]
    fn blocks_cover_stream_without_overlap() {
        let t = tok();
        let text = "abcdefghij".repeat(20); // 200 chars
        let ds = Dataset::from_texts(&[text.clone()], &t, 32);
        assert_eq!(ds.len(), 6); // 6 full 33-token windows; 2-token remainder dropped
        // check shift-by-one alignment
        let (inp, tgt) = ds.iter_examples().next().unwrap();
        assert_eq!(inp[1..], tgt[..31]);
    }

    #[test]
    fn short_remainder_dropped_long_remainder_padded() {
        let t = tok();
        // 40 tokens, block 32: one window of 33, remainder 7 -> dropped
        let ds = Dataset::from_texts(&["abcdefghij".repeat(4)], &t, 32);
        assert_eq!(ds.len(), 1);
        // 60 tokens: window 33, remainder 27 >= 16 -> padded block
        let ds = Dataset::from_texts(&["abcdefghij".repeat(6)], &t, 32);
        assert_eq!(ds.len(), 2);
        let (_, tgt) = ds.iter_examples().nth(1).unwrap();
        assert!(tgt.iter().any(|&x| x == t.pad_id()), "padding expected");
    }

    #[test]
    fn sampled_batches_are_well_formed() {
        let t = tok();
        let ds = Dataset::from_texts(&["abcdefghij klmnopqrst".repeat(30)], &t, 16);
        let mut rng = StdRng::seed_from_u64(1);
        let b = ds.sample_batch(4, &mut rng);
        b.assert_well_formed();
        assert_eq!(b.batch_size(), 4);
        assert_eq!(b.seq_len(), 16);
    }

    #[test]
    fn deterministic_sampling() {
        let t = tok();
        let ds = Dataset::from_texts(&["abcdefghij".repeat(50)], &t, 8);
        let a = ds.sample_batch(3, &mut StdRng::seed_from_u64(9));
        let b = ds.sample_batch(3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn document_aligned_blocks_start_at_doc_boundaries() {
        let t = tok();
        let docs: Vec<String> = (0..10).map(|_| "abcdefghij".to_string()).collect(); // 10 tokens each
        let ds = Dataset::from_documents(&docs, &t, 24); // window 25: two docs fit
        assert!(ds.len() >= 4, "got {}", ds.len());
        let first_id = t.encode("a")[0];
        for (inp, _) in ds.iter_examples() {
            assert_eq!(inp[0], first_id, "block does not start at a document boundary");
        }
    }

    #[test]
    fn document_aligned_overlong_doc_truncated_not_dropped() {
        let t = tok();
        let long = "abcdefghij".repeat(10); // 100 tokens, window 17
        let ds = Dataset::from_documents(&[long], &t, 16);
        assert_eq!(ds.len(), 1);
        let (inp, _) = ds.iter_examples().next().unwrap();
        assert_eq!(inp.len(), 16);
        assert!(inp.iter().all(|&x| x != t.pad_id()));
    }
}
