//! The KV store: block-allocated K/V rows for every decode path (the
//! paged KV cache of vLLM, Kwon et al. 2023, scaled to this workspace).
//!
//! One store serves both callers; they differ only in the geometry they
//! hand [`BlockPool::new`]. The batch engine takes many small blocks
//! (16 tokens), so admitted requests reserve what they need instead of a
//! worst-case contiguous buffer and identical pantry-prompt prefixes are
//! stored once. A solo stream takes one block per `max_t` positions of
//! its own private pool — a block lane is `[block_tokens, d]` contiguous
//! per (layer, K|V), so that *is* a flat per-layer cache and attention
//! reads it as one run.
//!
//! * [`BlockPool`] — an arena of fixed-size *blocks*, each holding
//!   `block_tokens` K and V rows for **all** layers, managed by a
//!   free-list allocator with per-block refcounts. Rows are stored as the
//!   weight set's cache element (`f32` under f32 weights, `F16` under
//!   int8), narrowed on write;
//! * [`SeqKv`] — a sequence's block table: logical position `p` maps to
//!   slot `p % block_tokens` of block `table[p / block_tokens]`.
//!   Admission reserves the worst-case block count up front, so decode
//!   steps never fail mid-token; [`SeqKv::fork`] shares every block and
//!   copy-on-write duplicates the partial tail on the next divergent
//!   write;
//! * [`PrefixCache`] — maps prompt-token prefixes to refcounted *full*
//!   blocks so concurrent requests with the same pantry prompt share the
//!   prefix K/V instead of recomputing it. Only full blocks are ever
//!   registered, and full blocks are immutable (writes only target the
//!   tail slot of the *last* block), so sharing never needs a copy until
//!   a fork diverges.
//!
//! Cache effectiveness is observable: [`PrefixCache::lookup`] bumps
//! `decode_kv_hits_total` by the number of prompt tokens served from
//! shared blocks and `decode_kv_misses_total` by the number that must be
//! computed, which `/metrics` exposes.

use ratatouille_tensor::Element;
use ratatouille_util::collections::{det_map, DetMap};

/// Geometry of a [`BlockPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockConfig {
    /// Transformer layers sharing each block (a block holds K/V for all
    /// of them, so one table entry covers the whole model).
    pub layers: usize,
    /// K (and V) row width per layer — the model width `d_model`.
    pub d: usize,
    /// Tokens per block.
    pub block_tokens: usize,
    /// Total blocks in the arena.
    pub num_blocks: usize,
}

impl BlockConfig {
    /// Blocks needed to hold `tokens` positions.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }
}

/// Admission failed: the pool cannot cover the request's worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted;

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KV block pool exhausted")
    }
}

impl std::error::Error for PoolExhausted {}

/// An arena of KV blocks with a free-list allocator and per-block
/// refcounts.
///
/// Rows are stored as `E`, the cache element of the weight set that
/// decodes against the pool: `f32` rows verbatim under f32 weights,
/// [`ratatouille_tensor::F16`] (round-to-nearest-even, half the memory)
/// under int8. New rows always arrive as f32 — the step body computes in
/// f32 — and are narrowed on write. Blocks are recycled through a LIFO
/// free list, so allocation order — and therefore every block id a
/// request observes — is a pure function of the admission sequence: no
/// addresses, no hashing, nothing nondeterministic.
///
/// The arena's memory is reserved when blocks are added and touched only
/// as rows are written, so a pool costs what its sequences have used, not
/// what they might.
#[derive(Debug)]
pub struct BlockPool<E: Element = f32> {
    cfg: BlockConfig,
    /// One lane per (layer, K|V), each `[num_blocks][block_tokens][d]`
    /// with capacity for every block and a length that ends at the
    /// highest row written so far.
    lanes: Vec<Vec<E>>,
    /// Reference count per block; 0 = on the free list.
    refcounts: Vec<u32>,
    /// LIFO stack of free block ids.
    free: Vec<u32>,
}

impl<E: Element> BlockPool<E> {
    /// Reserve the arena. All blocks start free.
    pub fn new(cfg: BlockConfig) -> Self {
        assert!(cfg.block_tokens > 0, "block_tokens must be positive");
        assert!(cfg.d > 0 && cfg.layers > 0, "degenerate block geometry");
        let mut pool = BlockPool {
            lanes: vec![Vec::new(); cfg.layers * 2],
            refcounts: Vec::new(),
            free: Vec::new(),
            cfg: BlockConfig { num_blocks: 0, ..cfg },
        };
        pool.grow(cfg.num_blocks);
        pool
    }

    /// Append `extra` free blocks to the arena; the lowest new id is
    /// handed out next (LIFO: block 0 first). Every row already written
    /// keeps its block id, slot and bits. After construction only a solo
    /// stream's private pool grows (when its sequence outlives `max_t`);
    /// an engine's pool is sized once, so admission can promise a request
    /// its worst case.
    pub fn grow(&mut self, extra: usize) {
        let old = self.cfg.num_blocks;
        self.cfg.num_blocks += extra;
        let lane_len = self.cfg.num_blocks * self.cfg.block_tokens * self.cfg.d;
        for lane in &mut self.lanes {
            lane.reserve_exact(lane_len - lane.len());
        }
        self.refcounts.resize(self.cfg.num_blocks, 0);
        self.free.extend((old as u32..self.cfg.num_blocks as u32).rev());
    }

    /// The pool's geometry.
    pub fn config(&self) -> &BlockConfig {
        &self.cfg
    }

    /// Blocks currently on the free list.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently referenced by at least one owner.
    pub fn used_blocks(&self) -> usize {
        self.cfg.num_blocks - self.free.len()
    }

    /// Current refcount of `block` (0 = free).
    pub fn refcount(&self, block: u32) -> u32 {
        self.refcounts[block as usize]
    }

    /// Allocate one block (refcount 1), or fail if the pool is empty.
    pub fn alloc(&mut self) -> Result<u32, PoolExhausted> {
        let b = self.free.pop().ok_or(PoolExhausted)?;
        debug_assert_eq!(self.refcounts[b as usize], 0, "free block had owners");
        self.refcounts[b as usize] = 1;
        Ok(b)
    }

    /// Add one owner to an already-allocated block.
    pub fn retain(&mut self, block: u32) {
        let rc = &mut self.refcounts[block as usize];
        assert!(*rc > 0, "retain of free block {block}");
        *rc += 1;
    }

    /// Drop one owner; the block returns to the free list at zero.
    pub fn release(&mut self, block: u32) {
        let rc = &mut self.refcounts[block as usize];
        assert!(*rc > 0, "double free of block {block}");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(block);
        }
    }

    /// Offset of (block, slot)'s row within a lane.
    #[inline]
    fn row_offset(&self, block: u32, slot: usize) -> usize {
        debug_assert!((block as usize) < self.cfg.num_blocks && slot < self.cfg.block_tokens);
        (block as usize * self.cfg.block_tokens + slot) * self.cfg.d
    }

    /// `n` consecutive (written) K (`which = 0`) or V (`1`) rows starting
    /// at `slot` of one (block, layer) — slots within a block are
    /// contiguous, so a whole run is one slice and the attention sweep
    /// can walk it without per-position offset arithmetic.
    fn rows(&self, block: u32, layer: usize, which: usize, slot: usize, n: usize) -> &[E] {
        debug_assert!(slot + n <= self.cfg.block_tokens);
        let o = self.row_offset(block, slot);
        &self.lanes[layer * 2 + which][o..o + n * self.cfg.d]
    }

    /// Rows `o..o + n` of `lane`, first extending the lane (zero-filled,
    /// inside its reserved capacity) if nothing that high was written yet.
    fn rows_mut(lane: &mut Vec<E>, o: usize, n: usize) -> &mut [E] {
        if lane.len() < o + n {
            lane.resize(o + n, E::default());
        }
        &mut lane[o..o + n]
    }

    /// Write the K and V rows of one (layer, slot), narrowing each f32 to
    /// the pool's element.
    pub fn write_kv(&mut self, block: u32, layer: usize, slot: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.cfg.d);
        assert_eq!(v.len(), self.cfg.d);
        let o = self.row_offset(block, slot);
        for (lane, row) in self.lanes[layer * 2..layer * 2 + 2].iter_mut().zip([k, v]) {
            for (dst, &x) in Self::rows_mut(lane, o, row.len()).iter_mut().zip(row) {
                *dst = E::from_f32(x);
            }
        }
    }

    /// Copy the first `slots` token slots of every layer (K and V) from
    /// `src` to `dst` — the copy-on-write step when a forked sequence
    /// diverges inside a shared partial block.
    fn copy_prefix_slots(&mut self, src: u32, dst: u32, slots: usize) {
        debug_assert!(slots <= self.cfg.block_tokens);
        assert_ne!(src, dst, "CoW copy onto itself");
        if slots == 0 {
            // A fork taken before `src`'s first write: no row to copy, and
            // `src` may lie wholly above what the lanes hold.
            return;
        }
        let (s, d) = (self.row_offset(src, 0), self.row_offset(dst, 0));
        let n = slots * self.cfg.d;
        for lane in &mut self.lanes {
            Self::rows_mut(lane, d, n);
            lane.copy_within(s..s + n, d);
        }
    }
}

/// A sequence's view of the pool: the ordered block table plus the
/// committed token count.
#[derive(Debug, Default)]
pub struct SeqKv {
    table: Vec<u32>,
    /// Committed tokens (positions `0..len` are readable).
    len: usize,
    /// Positions the table can hold (`table.len() × block_tokens`).
    capacity: usize,
}

impl SeqKv {
    /// An empty sequence with no blocks.
    pub fn new() -> Self {
        SeqKv::default()
    }

    /// Committed token count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tokens are committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Token capacity of the reserved table.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The block table (for prefix registration and tests).
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Adopt `blocks` as a shared full-block prefix covering
    /// `blocks.len() × block_tokens` committed tokens. The caller has
    /// already retained them (e.g. [`PrefixCache::lookup`]); ownership of
    /// those refcounts transfers to this sequence.
    ///
    /// Must be called on an empty sequence before any reservation.
    pub fn adopt_shared<E: Element>(&mut self, pool: &BlockPool<E>, blocks: Vec<u32>) {
        assert!(self.table.is_empty() && self.len == 0, "adopt into used seq");
        let bt = pool.config().block_tokens;
        self.len = blocks.len() * bt;
        self.capacity = self.len;
        self.table = blocks;
    }

    /// Grow the table until it can hold `total_tokens` positions. This is
    /// the admission-time worst-case reservation: after it succeeds, no
    /// decode step on this sequence can run out of blocks. On failure the
    /// sequence is left unchanged (no partial allocation).
    pub fn reserve_for<E: Element>(&mut self, pool: &mut BlockPool<E>, total_tokens: usize) -> Result<(), PoolExhausted> {
        let need = pool.config().blocks_for(total_tokens);
        let extra = need.saturating_sub(self.table.len());
        if extra > pool.free_blocks() {
            return Err(PoolExhausted);
        }
        for _ in 0..extra {
            // Cannot fail: free count checked above, and we hold &mut pool.
            let b = pool.alloc()?;
            self.table.push(b);
        }
        self.capacity = self.table.len() * pool.config().block_tokens;
        Ok(())
    }

    /// Make position `len` writable: if the tail block is shared (a fork
    /// has not yet diverged), copy-on-write its committed slots into a
    /// fresh block. Call once per decode step, before the layer loop —
    /// blocks hold all layers, so one CoW covers every layer's write.
    pub fn prepare_write<E: Element>(&mut self, pool: &mut BlockPool<E>) -> Result<(), PoolExhausted> {
        let bt = pool.config().block_tokens;
        assert!(self.len < self.capacity, "write past reserved capacity");
        let idx = self.len / bt;
        let block = self.table[idx];
        if pool.refcount(block) > 1 {
            let fresh = pool.alloc()?;
            pool.copy_prefix_slots(block, fresh, self.len % bt);
            pool.release(block);
            self.table[idx] = fresh;
        }
        Ok(())
    }

    /// Write layer `layer`'s K/V rows for position `len` (after
    /// [`SeqKv::prepare_write`] this step).
    pub fn write<E: Element>(&self, pool: &mut BlockPool<E>, layer: usize, k: &[f32], v: &[f32]) {
        let bt = pool.config().block_tokens;
        debug_assert!(self.len < self.capacity);
        pool.write_kv(self.table[self.len / bt], layer, self.len % bt, k, v);
    }

    /// Commit the position written this step; it becomes readable.
    pub fn commit(&mut self) {
        self.len += 1;
    }

    /// A copy-on-write clone: shares every block (including the partial
    /// tail) by refcount; the first divergent write triggers CoW via
    /// [`SeqKv::prepare_write`].
    pub fn fork<E: Element>(&self, pool: &mut BlockPool<E>) -> SeqKv {
        for &b in &self.table {
            pool.retain(b);
        }
        SeqKv {
            table: self.table.clone(),
            len: self.len,
            capacity: self.capacity,
        }
    }

    /// Release every block reference. The sequence becomes empty.
    pub fn release_all<E: Element>(&mut self, pool: &mut BlockPool<E>) {
        for b in self.table.drain(..) {
            pool.release(b);
        }
        self.len = 0;
        self.capacity = 0;
    }

    /// One layer's read view over positions `0..reader_len` — hand
    /// `self.len() + 1` during a step to include the just-written row.
    pub fn layer_view<'a, E: Element>(&'a self, pool: &'a BlockPool<E>, layer: usize, reader_len: usize) -> SeqLayerKv<'a, E> {
        debug_assert!(reader_len <= self.capacity);
        SeqLayerKv {
            pool,
            table: &self.table,
            layer,
            len: reader_len,
        }
    }
}

/// Read access to one (sequence, layer) slice of the pool, in logical
/// position order — what the attention kernel reads.
///
/// Holds only shared references to the pool and the block table, so it
/// is `Send + Sync` by construction: the parallel attention sweep hands
/// one view per sequence to the worker pool while the caller's `&mut
/// BlockPool` is reborrowed shared for the duration of the sweep.
pub struct SeqLayerKv<'a, E: Element = f32> {
    pool: &'a BlockPool<E>,
    table: &'a [u32],
    layer: usize,
    len: usize,
}

/// Compile-time proof that views can cross worker threads (the batched
/// attention sweep depends on it).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SeqLayerKv<'_>>();
};

impl<E: Element> SeqLayerKv<'_, E> {
    /// Number of readable positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions are readable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cached K row of `pos`.
    pub fn k_row(&self, pos: usize) -> &[E] {
        self.k_run(pos, pos + 1)
    }

    /// The cached V row of `pos`.
    pub fn v_row(&self, pos: usize) -> &[E] {
        self.v_run(pos, pos + 1)
    }

    /// The longest storage-contiguous run of K rows starting at `pos`
    /// and not reaching past `end`, as one flat `[n * d]` slice: it ends
    /// at `end` or at the block boundary, whichever comes first. The
    /// attention kernel walks the cache run by run, so the inner loop is
    /// plain contiguous memory with one block-table lookup per block
    /// instead of per position — and a sequence inside one block is one
    /// run.
    pub fn k_run(&self, pos: usize, end: usize) -> &[E] {
        self.run(0, pos, end)
    }

    /// The V-side counterpart of [`SeqLayerKv::k_run`].
    pub fn v_run(&self, pos: usize, end: usize) -> &[E] {
        self.run(1, pos, end)
    }

    fn run(&self, which: usize, pos: usize, end: usize) -> &[E] {
        debug_assert!(pos < end && end <= self.len);
        let bt = self.pool.config().block_tokens;
        let n = (bt - pos % bt).min(end - pos);
        self.pool.rows(self.table[pos / bt], self.layer, which, pos % bt, n)
    }
}

/// What a prefix lookup found.
#[derive(Debug)]
pub struct PrefixMatch {
    /// Shared full blocks, already retained for the caller (adopt them
    /// into a [`SeqKv`] or release them).
    pub blocks: Vec<u32>,
    /// Prompt tokens those blocks cover (`blocks.len() × block_tokens`).
    pub tokens: usize,
}

/// A bounded map from prompt prefixes to shared, refcounted full blocks.
///
/// Entries are keyed by the exact token sequence of a whole number of
/// blocks. Lookup finds the longest registered prefix of a prompt and
/// retains its blocks for the caller; insert registers a finished
/// prompt's full blocks. Eviction is FIFO (oldest registration first) —
/// deterministic, and good enough when the working set is "the popular
/// pantry prompts right now".
pub struct PrefixCache {
    /// Key: full-block token prefix. Value: the shared blocks.
    entries: DetMap<Vec<u32>, Vec<u32>>,
    /// Insertion order for FIFO eviction.
    order: std::collections::VecDeque<Vec<u32>>,
    /// Maximum registered prefixes.
    cap: usize,
}

impl PrefixCache {
    /// An empty cache holding at most `cap` prefixes.
    pub fn new(cap: usize) -> Self {
        PrefixCache {
            entries: det_map(),
            order: std::collections::VecDeque::new(),
            cap,
        }
    }

    /// Registered prefix count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no prefixes are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Find the longest registered full-block prefix of `prompt`, capped
    /// at `max_tokens` shared tokens (callers pass `prompt.len() - 1` so
    /// at least one prompt position is always computed — its logits seed
    /// generation). Returns retained blocks; bumps the KV hit/miss
    /// counters by shared/computed **prompt** token counts.
    pub fn lookup<E: Element>(&self, pool: &mut BlockPool<E>, prompt: &[u32], max_tokens: usize) -> PrefixMatch {
        let bt = pool.config().block_tokens;
        let limit = (max_tokens.min(prompt.len()) / bt) * bt;
        let mut best: Option<&Vec<u32>> = None;
        let mut best_tokens = 0usize;
        // Longest common full-block prefix over registered entries, in
        // registration order (deterministic; ties keep the oldest). An
        // entry longer than the cap still shares its head blocks.
        for key in &self.order {
            let common = key
                .iter()
                .zip(prompt)
                .take(limit)
                .take_while(|(a, b)| a == b)
                .count();
            let n = (common / bt) * bt;
            if n > best_tokens {
                best_tokens = n;
                best = self.entries.get(key);
            }
        }
        let blocks = match best {
            Some(blocks) => {
                let head = &blocks[..best_tokens / bt];
                for &b in head {
                    pool.retain(b);
                }
                head.to_vec()
            }
            None => Vec::new(),
        };
        obs::static_counter!("decode_kv_hits_total").add(best_tokens as u64);
        obs::static_counter!("decode_kv_misses_total").add((prompt.len() - best_tokens) as u64);
        PrefixMatch {
            blocks,
            tokens: best_tokens,
        }
    }

    /// Register the full-block prefix of a completed prompt, retaining
    /// the covered head of `seq`'s table. No-op if the prompt spans less
    /// than one full block or the prefix is already registered. Evicts
    /// the oldest entry (releasing its blocks) beyond capacity.
    pub fn insert<E: Element>(&mut self, pool: &mut BlockPool<E>, prompt: &[u32], seq: &SeqKv) {
        if self.cap == 0 {
            return;
        }
        let bt = pool.config().block_tokens;
        let full = prompt.len() / bt;
        if full == 0 {
            return;
        }
        let key = prompt[..full * bt].to_vec();
        if self.entries.contains_key(&key) {
            return;
        }
        let blocks = seq.table()[..full].to_vec();
        for &b in &blocks {
            pool.retain(b);
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, blocks);
        while self.entries.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                if let Some(blocks) = self.entries.remove(&old) {
                    for b in blocks {
                        pool.release(b);
                    }
                }
            }
        }
    }

    /// Release every registered block and clear the cache.
    pub fn clear<E: Element>(&mut self, pool: &mut BlockPool<E>) {
        for (_, blocks) in std::mem::take(&mut self.entries) {
            for b in blocks {
                pool.release(b);
            }
        }
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_tensor::F16;

    fn cfg(blocks: usize) -> BlockConfig {
        BlockConfig {
            layers: 2,
            d: 4,
            block_tokens: 4,
            num_blocks: blocks,
        }
    }

    /// An f32 pool of `blocks` blocks (the annotation-free `BlockPool`
    /// of a return type is the `= f32` default).
    fn pool(blocks: usize) -> BlockPool {
        BlockPool::new(cfg(blocks))
    }

    #[test]
    fn f16_pool_narrows_on_write_and_grows_in_place() {
        let mut pool = BlockPool::<F16>::new(cfg(0));
        assert_eq!(pool.alloc(), Err(PoolExhausted));
        let mut seq = SeqKv::new();
        let row = |t: usize| [0.1 * t as f32, -1.0 / 3.0, 65504.0, 1e-9];
        for t in 0..10 {
            if seq.len() == seq.capacity() {
                pool.grow(1);
                seq.reserve_for(&mut pool, t + 1).unwrap();
            }
            seq.prepare_write(&mut pool).unwrap();
            seq.write(&mut pool, 1, &row(t), &row(t + 100));
            seq.commit();
        }
        assert_eq!((pool.config().num_blocks, pool.free_blocks()), (3, 0));
        assert_eq!(seq.table(), &[0, 1, 2]);
        // Rows written before each growth read back as the narrowed f32s.
        let view = seq.layer_view(&pool, 1, 10);
        for t in 0..10 {
            assert_eq!(view.k_row(t), row(t).map(F16::from_f32));
            assert_eq!(view.v_row(t), row(t + 100).map(F16::from_f32));
        }
        seq.release_all(&mut pool);
        assert_eq!(pool.free_blocks(), 3);
    }

    #[test]
    fn alloc_release_roundtrip() {
        let mut pool = pool(3);
        assert_eq!(pool.free_blocks(), 3);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.used_blocks(), 2);
        pool.release(a);
        assert_eq!(pool.free_blocks(), 2);
        // LIFO: the released block is reused first
        assert_eq!(pool.alloc().unwrap(), a);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.free_blocks(), 3);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut pool = pool(1);
        let _a = pool.alloc().unwrap();
        assert_eq!(pool.alloc(), Err(PoolExhausted));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_asserts() {
        let mut pool = pool(2);
        let a = pool.alloc().unwrap();
        pool.release(a);
        pool.release(a);
    }

    #[test]
    fn seq_write_read_across_blocks() {
        let mut pool = pool(4);
        let mut seq = SeqKv::new();
        seq.reserve_for(&mut pool, 10).unwrap();
        assert_eq!(seq.capacity(), 12);
        for t in 0..10 {
            seq.prepare_write(&mut pool).unwrap();
            for layer in 0..2 {
                let k = [t as f32, layer as f32, 0.0, 1.0];
                let v = [10.0 + t as f32, layer as f32, 0.0, 2.0];
                seq.write(&mut pool, layer, &k, &v);
            }
            seq.commit();
        }
        let view = seq.layer_view(&pool, 1, seq.len());
        assert_eq!(view.len(), 10);
        for t in 0..10 {
            assert_eq!(view.k_row(t)[0], t as f32);
            assert_eq!(view.v_row(t)[0], 10.0 + t as f32);
            assert_eq!(view.k_row(t)[1], 1.0, "layer index mixed up");
        }
        seq.release_all(&mut pool);
        assert_eq!(pool.free_blocks(), 4);
    }

    #[test]
    fn reserve_failure_leaves_pool_unchanged() {
        let mut pool = pool(2);
        let mut seq = SeqKv::new();
        assert_eq!(seq.reserve_for(&mut pool, 100), Err(PoolExhausted));
        assert_eq!(pool.free_blocks(), 2);
        assert_eq!(seq.table().len(), 0);
    }

    #[test]
    fn fork_shares_then_cow_diverges() {
        let mut pool = pool(4);
        let mut a = SeqKv::new();
        a.reserve_for(&mut pool, 6).unwrap();
        for t in 0..6 {
            a.prepare_write(&mut pool).unwrap();
            for layer in 0..2 {
                a.write(&mut pool, layer, &[t as f32; 4], &[t as f32; 4]);
            }
            a.commit();
        }
        // fork at len 6: both blocks shared (refcount 2)
        let mut b = a.fork(&mut pool);
        assert_eq!(pool.refcount(a.table()[1]), 2);
        assert_eq!(pool.used_blocks(), 2);

        // b writes position 6 → CoW of the partial tail block only
        b.reserve_for(&mut pool, 8).unwrap();
        b.prepare_write(&mut pool).unwrap();
        for layer in 0..2 {
            b.write(&mut pool, layer, &[99.0; 4], &[99.0; 4]);
        }
        b.commit();
        assert_ne!(a.table()[1], b.table()[1], "tail must have diverged");
        assert_eq!(a.table()[0], b.table()[0], "full block stays shared");
        assert_eq!(pool.refcount(a.table()[0]), 2);
        // a's view is untouched; b sees its own history plus the new row
        let va = a.layer_view(&pool, 0, a.len());
        let vb = b.layer_view(&pool, 0, b.len());
        assert_eq!(va.k_row(5)[0], 5.0);
        assert_eq!(vb.k_row(5)[0], 5.0, "CoW must copy committed slots");
        assert_eq!(vb.k_row(6)[0], 99.0);

        a.release_all(&mut pool);
        b.release_all(&mut pool);
        assert_eq!(pool.free_blocks(), 4);
    }

    #[test]
    fn prefix_cache_shares_full_blocks_only() {
        let mut pool = pool(8);
        let mut cache = PrefixCache::new(4);
        let prompt: Vec<u32> = (0..10).collect(); // 2 full blocks + 2 tail tokens

        let mut seq = SeqKv::new();
        seq.reserve_for(&mut pool, prompt.len()).unwrap();
        for t in 0..prompt.len() {
            seq.prepare_write(&mut pool).unwrap();
            for layer in 0..2 {
                seq.write(&mut pool, layer, &[t as f32; 4], &[t as f32; 4]);
            }
            seq.commit();
        }
        cache.insert(&mut pool, &prompt, &seq);
        assert_eq!(cache.len(), 1);
        assert_eq!(pool.refcount(seq.table()[0]), 2);
        assert_eq!(pool.refcount(seq.table()[2]), 1, "partial tail not cached");

        // A new request with the same prompt shares both full blocks.
        let hit = cache.lookup(&mut pool, &prompt, prompt.len() - 1);
        assert_eq!(hit.tokens, 8);
        assert_eq!(hit.blocks, seq.table()[..2].to_vec());
        let mut seq2 = SeqKv::new();
        seq2.adopt_shared(&pool, hit.blocks);
        assert_eq!(seq2.len(), 8);
        assert_eq!(pool.refcount(seq.table()[0]), 3);

        // Shared rows read back identically through the second table.
        let v2 = seq2.layer_view(&pool, 1, 8);
        assert_eq!(v2.k_row(3)[0], 3.0);

        // A different prompt misses.
        let other: Vec<u32> = (100..110).collect();
        let miss = cache.lookup(&mut pool, &other, other.len() - 1);
        assert_eq!(miss.tokens, 0);
        assert!(miss.blocks.is_empty());

        // Releasing every owner returns all blocks.
        seq2.release_all(&mut pool);
        seq.release_all(&mut pool);
        cache.clear(&mut pool);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn lookup_never_covers_the_whole_prompt() {
        // An exact-length prompt must still compute its last token: the
        // `max_tokens = len - 1` cap means a full-prompt registration is
        // only shared up to the previous block boundary.
        let mut pool = pool(8);
        let mut cache = PrefixCache::new(4);
        let prompt: Vec<u32> = (0..8).collect(); // exactly 2 blocks
        let mut seq = SeqKv::new();
        seq.reserve_for(&mut pool, 8).unwrap();
        for _ in 0..8 {
            seq.prepare_write(&mut pool).unwrap();
            for layer in 0..2 {
                seq.write(&mut pool, layer, &[0.0; 4], &[0.0; 4]);
            }
            seq.commit();
        }
        cache.insert(&mut pool, &prompt, &seq);
        let hit = cache.lookup(&mut pool, &prompt, prompt.len() - 1);
        assert_eq!(hit.tokens, 4, "must stop at the previous block boundary");
        for b in hit.blocks {
            pool.release(b);
        }
        seq.release_all(&mut pool);
        cache.clear(&mut pool);
    }

    #[test]
    fn prefix_cache_evicts_fifo() {
        let mut pool = pool(8);
        let mut cache = PrefixCache::new(2);
        let mut seqs = Vec::new();
        for p in 0..3u32 {
            let prompt: Vec<u32> = (p * 10..p * 10 + 4).collect();
            let mut seq = SeqKv::new();
            seq.reserve_for(&mut pool, 4).unwrap();
            for _ in 0..4 {
                seq.prepare_write(&mut pool).unwrap();
                for layer in 0..2 {
                    seq.write(&mut pool, layer, &[0.0; 4], &[0.0; 4]);
                }
                seq.commit();
            }
            cache.insert(&mut pool, &prompt, &seq);
            seqs.push((prompt, seq));
        }
        assert_eq!(cache.len(), 2, "capacity bound enforced");
        // Oldest prefix evicted: its block has a single owner again.
        assert_eq!(pool.refcount(seqs[0].1.table()[0]), 1);
        assert_eq!(pool.refcount(seqs[2].1.table()[0]), 2);
        for (_, seq) in &mut seqs {
            seq.release_all(&mut pool);
        }
        cache.clear(&mut pool);
        assert_eq!(pool.free_blocks(), 8);
    }
}
