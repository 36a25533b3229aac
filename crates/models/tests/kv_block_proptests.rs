//! Property tests for the blocked KV-cache allocator: for ANY sequence
//! of reserve/write/fork/adopt/cache/pool-growth operations, over f32
//! and f16 pools alike, the pool's refcounts must equal the number of
//! live owners of each block, every committed row must read back what
//! was written, no block may leak, and no valid sequence may double-free
//! (a double free panics inside `BlockPool::release`, failing the
//! property).
//!
//! The shadow model is deliberately thin: ownership is *derived* from
//! the live sequence tables plus a replicated FIFO prefix-cache, so
//! copy-on-write divergence, prefix sharing and eviction are all checked
//! against ground truth rather than re-implemented.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use ratatouille_util::proptest::prelude::*;
use ratatouille_models::kv_block::{BlockConfig, BlockPool, PrefixCache, SeqKv};
use ratatouille_tensor::{Element, F16};

const LAYERS: usize = 2;
const D: usize = 4;
const BLOCK_TOKENS: usize = 4;
const NUM_BLOCKS: usize = 24;
const CACHE_CAP: usize = 3;

fn cfg() -> BlockConfig {
    BlockConfig {
        layers: LAYERS,
        d: D,
        block_tokens: BLOCK_TOKENS,
        num_blocks: NUM_BLOCKS,
    }
}

/// One step of the random schedule. Selector fields are reduced modulo
/// the live state, so every generated value is applicable.
#[derive(Debug, Clone)]
enum Op {
    /// Start a sequence reserving capacity for `tokens`.
    New { tokens: usize },
    /// Append one committed token to sequence `sel` (CoW if shared).
    Write { sel: usize, token: u8 },
    /// Fork sequence `sel` (all blocks become shared).
    Fork { sel: usize },
    /// Grow sequence `sel`'s reservation by `extra` tokens.
    Reserve { sel: usize, extra: usize },
    /// Append `extra` blocks to the pool's arena (what a solo stream does
    /// when its sequence outlives `max_t`).
    GrowPool { extra: usize },
    /// Release sequence `sel` entirely.
    Release { sel: usize },
    /// Register sequence `sel`'s tokens as a cached prefix.
    CacheInsert { sel: usize },
    /// Look up sequence `sel`'s tokens; adopt the hit into a new
    /// sequence or release it immediately.
    CacheLookup { sel: usize, adopt: bool },
    /// Drop every cache entry.
    CacheClear,
}

/// The harness has no `prop_oneof`; encode an op as a flat tuple and
/// decode. Writes are weighted heavier (kinds 1–3) so schedules spend
/// most steps growing sequences across block boundaries.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..11, 0usize..8, 1usize..20, any::<bool>()).prop_map(|(kind, sel, val, flag)| {
        match kind {
            0 => Op::New { tokens: val },
            1 | 2 | 3 => Op::Write {
                sel,
                token: (val % 4) as u8,
            },
            4 => Op::Fork { sel },
            5 => Op::Reserve {
                sel,
                extra: 1 + val % 7,
            },
            6 => Op::Release { sel },
            7 => Op::CacheInsert { sel },
            8 => Op::CacheLookup { sel, adopt: flag },
            9 => Op::CacheClear,
            _ => Op::GrowPool { extra: 1 + val % 3 },
        }
    })
}

/// A live sequence plus the tokens "written" into it (the cache key).
struct LiveSeq {
    seq: SeqKv,
    tokens: Vec<u32>,
}

/// The replicated prefix-cache bookkeeping: (key, blocks) in FIFO
/// order, capacity `CACHE_CAP` — mirrors `PrefixCache::insert` exactly
/// so ownership can be derived without reaching into its internals.
struct ShadowCache {
    entries: VecDeque<(Vec<u32>, Vec<u32>)>,
}

impl ShadowCache {
    fn insert(&mut self, key: Vec<u32>, blocks: Vec<u32>) -> bool {
        if self.entries.iter().any(|(k, _)| *k == key) {
            return false;
        }
        self.entries.push_back((key, blocks));
        self.entries.len() > CACHE_CAP
    }
}

/// The invariant: every block's refcount equals its number of live
/// owners (sequence-table slots + cache entries), the free count is
/// exactly the unowned remainder, and every committed row of every live
/// sequence — its own, forked, adopted, written before or after the pool
/// grew — reads back its token.
fn check_ownership<E: Element>(pool: &BlockPool<E>, seqs: &[LiveSeq], shadow: &ShadowCache) {
    let mut owners: BTreeMap<u32, u32> = BTreeMap::new();
    for ls in seqs {
        for &b in ls.seq.table() {
            *owners.entry(b).or_insert(0) += 1;
        }
    }
    for (_, blocks) in &shadow.entries {
        for &b in blocks {
            *owners.entry(b).or_insert(0) += 1;
        }
    }
    let num_blocks = pool.config().num_blocks;
    for b in 0..num_blocks as u32 {
        let expected = owners.get(&b).copied().unwrap_or(0);
        assert_eq!(
            pool.refcount(b),
            expected,
            "block {b}: refcount diverged from live ownership"
        );
    }
    assert_eq!(
        pool.free_blocks(),
        num_blocks - owners.len(),
        "free-list size diverged from unowned block count"
    );
    for ls in seqs {
        for layer in 0..LAYERS {
            let view = ls.seq.layer_view(pool, layer, ls.seq.len());
            for (pos, &tok) in ls.tokens.iter().enumerate() {
                let row = [E::from_f32(tok as f32); D];
                assert_eq!(view.k_row(pos), row, "K row {pos} of layer {layer} corrupted");
                assert_eq!(view.v_row(pos), row, "V row {pos} of layer {layer} corrupted");
            }
        }
    }
}

fn write_one<E: Element>(pool: &mut BlockPool<E>, ls: &mut LiveSeq, token: u8) {
    if ls.seq.len() >= ls.seq.capacity() {
        return; // out of reserved room; Reserve must come first
    }
    if ls.seq.prepare_write(pool).is_err() {
        return; // CoW needed a block and the pool is empty — valid no-op
    }
    let fill = [token as f32; D];
    for layer in 0..LAYERS {
        ls.seq.write(pool, layer, &fill, &fill);
    }
    ls.seq.commit();
    ls.tokens.push(token as u32);
}

/// Run one op schedule against a pool of element `E`, checking the
/// invariants after every op and the no-leak property at teardown.
fn run_schedule<E: Element>(ops: &[Op]) -> Result<(), String> {
    let mut pool = BlockPool::<E>::new(cfg());
    let mut cache = PrefixCache::new(CACHE_CAP);
    let mut seqs: Vec<LiveSeq> = Vec::new();
    let mut shadow = ShadowCache { entries: VecDeque::new() };

    for op in ops.iter().cloned() {
        match op {
            Op::New { tokens } => {
                let mut seq = SeqKv::new();
                if seq.reserve_for(&mut pool, tokens).is_ok() {
                    seqs.push(LiveSeq { seq, tokens: Vec::new() });
                } else {
                    // All-or-nothing: a failed reservation must
                    // leave nothing behind.
                    prop_assert!(seq.table().is_empty());
                }
            }
            Op::Write { sel, token } => {
                if !seqs.is_empty() {
                    let i = sel % seqs.len();
                    write_one(&mut pool, &mut seqs[i], token);
                }
            }
            Op::Fork { sel } => {
                if !seqs.is_empty() {
                    let i = sel % seqs.len();
                    let forked = seqs[i].seq.fork(&mut pool);
                    let tokens = seqs[i].tokens.clone();
                    seqs.push(LiveSeq { seq: forked, tokens });
                }
            }
            Op::Reserve { sel, extra } => {
                if !seqs.is_empty() {
                    let i = sel % seqs.len();
                    let want = seqs[i].seq.len() + extra;
                    let _ = seqs[i].seq.reserve_for(&mut pool, want);
                }
            }
            Op::Release { sel } => {
                if !seqs.is_empty() {
                    let i = sel % seqs.len();
                    let mut ls = seqs.swap_remove(i);
                    ls.seq.release_all(&mut pool);
                    prop_assert!(ls.seq.table().is_empty());
                }
            }
            Op::CacheInsert { sel } => {
                if !seqs.is_empty() {
                    let i = sel % seqs.len();
                    let ls = &seqs[i];
                    let full = ls.tokens.len() / BLOCK_TOKENS;
                    cache.insert(&mut pool, &ls.tokens, &ls.seq);
                    if full > 0 {
                        let key = ls.tokens[..full * BLOCK_TOKENS].to_vec();
                        let blocks = ls.seq.table()[..full].to_vec();
                        shadow.insert(key, blocks);
                        while shadow.entries.len() > CACHE_CAP {
                            shadow.entries.pop_front();
                        }
                    }
                }
            }
            Op::CacheLookup { sel, adopt } => {
                if !seqs.is_empty() {
                    let i = sel % seqs.len();
                    let prompt = seqs[i].tokens.clone();
                    if prompt.len() > 1 {
                        let hit = cache.lookup(&mut pool, &prompt, prompt.len() - 1);
                        prop_assert!(hit.tokens < prompt.len(),
                            "lookup must never cover the whole prompt");
                        prop_assert_eq!(hit.tokens % BLOCK_TOKENS, 0);
                        if adopt && hit.tokens > 0 {
                            let mut seq = SeqKv::new();
                            let shared = hit.tokens;
                            seq.adopt_shared(&pool, hit.blocks);
                            seqs.push(LiveSeq {
                                seq,
                                tokens: prompt[..shared].to_vec(),
                            });
                        } else {
                            for b in hit.blocks {
                                pool.release(b);
                            }
                        }
                    }
                }
            }
            Op::CacheClear => {
                cache.clear(&mut pool);
                shadow.entries.clear();
            }
            Op::GrowPool { extra } => {
                let before = (pool.config().num_blocks, pool.free_blocks());
                pool.grow(extra);
                prop_assert_eq!(
                    (pool.config().num_blocks, pool.free_blocks()),
                    (before.0 + extra, before.1 + extra)
                );
            }
        }
        check_ownership(&pool, &seqs, &shadow);
    }

    // Teardown: releasing every owner returns the pool to empty —
    // the no-leak property.
    for mut ls in seqs {
        ls.seq.release_all(&mut pool);
    }
    cache.clear(&mut pool);
    prop_assert_eq!(pool.free_blocks(), pool.config().num_blocks, "blocks leaked");
    prop_assert_eq!(pool.used_blocks(), 0);
    Ok(())
}

proptest! {
    cases = 48;

    /// Exact refcounts, intact rows, no leaks, no double-free, for any op
    /// schedule and either cache element.
    #[test]
    fn allocator_ownership_is_exact(ops in collection::vec(op_strategy(), 1..60)) {
        run_schedule::<f32>(&ops)?;
        run_schedule::<F16>(&ops)?;
    }

    /// CoW after a fork never corrupts the parent: the parent's rows
    /// read back exactly what it wrote, no matter when the child
    /// diverges.
    #[test]
    fn fork_divergence_preserves_parent_rows(
        prefix_len in 1usize..12,
        parent_extra in 1usize..6,
        child_extra in 1usize..6,
    ) {
        let mut pool = BlockPool::<f32>::new(cfg());
        let mut parent = LiveSeq { seq: SeqKv::new(), tokens: Vec::new() };
        parent.seq.reserve_for(&mut pool, prefix_len + parent_extra).unwrap();
        for t in 0..prefix_len {
            write_one(&mut pool, &mut parent, (t % 4) as u8);
        }
        let mut child = LiveSeq {
            seq: parent.seq.fork(&mut pool),
            tokens: parent.tokens.clone(),
        };
        child.seq.reserve_for(&mut pool, prefix_len + child_extra).unwrap();
        for t in 0..child_extra {
            write_one(&mut pool, &mut child, 3 - (t % 4) as u8);
        }
        for t in 0..parent_extra {
            write_one(&mut pool, &mut parent, (t % 4) as u8);
        }
        // Every committed row of each sequence reads back its own token.
        let mut seqs = [parent, child];
        check_ownership(&pool, &seqs, &ShadowCache { entries: VecDeque::new() });
        for ls in &mut seqs {
            ls.seq.release_all(&mut pool);
        }
        prop_assert_eq!(pool.free_blocks(), NUM_BLOCKS);
    }
}
