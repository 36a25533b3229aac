//! Recycled storage for the large `f32` buffers of training.
//!
//! A training step allocates the same working set every step and frees
//! it again by the end of backward. Handed back to the allocator, those
//! blocks go back to the OS, and the next forward faults every page in
//! again: about a seventh of a GPT-2 medium step's CPU time was the
//! kernel zeroing and mapping pages the process had just given away. So
//! a kernel output of at least [`MIN_LEN`] floats is taken from here
//! ([`take`], or [`zeroed`] where the kernel accumulates into it), and
//! when the last tensor sharing it drops it comes back to one
//! process-wide free list instead of to the allocator. An allocation of
//! the same length takes it again.
//!
//! **Bounded by construction.** Only buffers handed out here come back
//! (`Tensor::from_vec` data and `Tensor::zeros` never enter), and a miss
//! frees at least as many cached floats as it allocates before it
//! allocates (or the whole cache, if it holds fewer). Cached plus live
//! recycled bytes therefore never exceed the high-water of the live
//! ones: the cache only ever holds what a step already had in use at
//! once.
//!
//! **Released at the hand-off.** Training frees nothing else back to the
//! allocator; [`release`] frees the whole cache. `Pipeline::train` calls
//! it when training hands a model to inference, so a served model runs
//! in the memory it ran in before the cache existed.
//!
//! **Serving never takes the lock.** [`MIN_LEN`] sits below the smallest
//! training activation and far above any decode or request-path tensor,
//! so those allocate and free exactly as before.
//!
//! **Stale data cannot leak.** With `debug_assertions` every buffer
//! [`take`] hands out, fresh or recycled, is NaN: a kernel that reads an
//! output element before writing it fails the goldens of every test
//! build.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The smallest buffer, in floats, that is recycled: 96 Ki (384 KiB).
///
/// Below the smallest training activation (`[1024, 128]`, GPT-2 medium's
/// `[B·T, D]` at batch 4 × 256 tokens, is 128 Ki floats), above the
/// largest parameter-shaped buffer at that tier (the `[665, 128]`
/// embedding's gradient, 83 Ki), and far above any serving tensor
/// (batch-8 logits `[8, 665]`, about 5 Ki). Parameter gradients live
/// from their first write to the step's end, across the whole backward:
/// cached, they hold memory the activations need back, and a step of
/// GPT-2 medium misses 40 times instead of 11.
pub const MIN_LEN: usize = 96 << 10;

/// The free list and its counters.
struct Cache {
    /// Cached buffers, oldest returned first.
    free: Vec<Vec<f32>>,
    /// Floats held in `free`.
    floats: usize,
    hits: u64,
    misses: u64,
    returns: u64,
}

impl Cache {
    const fn new() -> Cache {
        Cache { free: Vec::new(), floats: 0, hits: 0, misses: 0, returns: 0 }
    }

    /// The most recently returned buffer of exactly `n` floats; on a miss,
    /// the cached buffers that must go first, taken off the list for the
    /// caller to free: the smallest one that holds `n` floats alone (the
    /// allocator can carve the new buffer out of it), else the oldest
    /// ones until they hold `n` between them, else all of them.
    fn reuse(&mut self, n: usize) -> Result<Vec<f32>, Vec<Vec<f32>>> {
        if let Some(i) = self.free.iter().rposition(|b| b.len() == n) {
            self.hits += 1;
            self.floats -= n;
            return Ok(self.free.remove(i));
        }
        self.misses += 1;
        let fit = (0..self.free.len()).filter(|&i| self.free[i].len() >= n).min_by_key(|&i| self.free[i].len());
        let evicted: Vec<Vec<f32>> = match fit {
            Some(i) => vec![self.free.remove(i)],
            None => {
                let (mut evict, mut freed) = (0, 0);
                while freed < n && evict < self.free.len() {
                    freed += self.free[evict].len();
                    evict += 1;
                }
                self.free.drain(..evict).collect()
            }
        };
        self.floats -= evicted.iter().map(Vec::len).sum::<usize>();
        Err(evicted)
    }

    fn put(&mut self, buf: Vec<f32>) {
        self.returns += 1;
        self.floats += buf.len();
        self.free.push(buf);
    }
}

static CACHE: Mutex<Cache> = Mutex::new(Cache::new());

fn cache() -> MutexGuard<'static, Cache> {
    // A panic while holding the lock leaves the list consistent: every
    // update above is a push, a remove or a counter bump.
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cached buffer of exactly `n` floats, or `None` after freeing room
/// for a fresh one. Below [`MIN_LEN`] the cache is not consulted.
fn reuse(n: usize) -> Option<Vec<f32>> {
    if n < MIN_LEN {
        return None;
    }
    let found = cache().reuse(n);
    // An evicted batch is freed here, after the lock is released.
    found.ok()
}

/// A buffer of `n` floats for a kernel that writes every element before
/// reading any; its contents are unspecified (NaN under
/// `debug_assertions`).
pub(crate) fn take(n: usize) -> Vec<f32> {
    reuse(n).unwrap_or_else(|| vec![if cfg!(debug_assertions) { f32::NAN } else { 0.0 }; n])
}

/// A zero-filled buffer of `n` floats, for a kernel that accumulates
/// into its output.
pub(crate) fn zeroed(n: usize) -> Vec<f32> {
    match reuse(n) {
        Some(mut buf) => {
            buf.fill(0.0);
            buf
        }
        None => vec![0.0; n],
    }
}

/// Return a buffer from [`take`] or [`zeroed`]: at [`MIN_LEN`] or more
/// it joins the free list, below that it is freed.
pub(crate) fn put(mut buf: Vec<f32>) {
    if buf.len() < MIN_LEN {
        return;
    }
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    cache().put(buf);
}

/// Free every cached buffer back to the allocator.
///
/// Training leaves the cache warm, so the next step, the next run on the
/// same model or a resume reuse it. A caller that trains and then serves
/// must call this in between (`Pipeline::train` does), or the training
/// working set stays resident for the whole serving run.
pub fn release() {
    let mut c = cache();
    let free = std::mem::take(&mut c.free);
    c.floats = 0;
    drop(c);
    drop(free);
}

/// The cache's counters since process start, and what it holds now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Allocations served from the free list.
    pub hits: u64,
    /// Allocations of at least [`MIN_LEN`] floats the free list could
    /// not serve.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
    /// Bytes held in the free list now.
    pub cached_bytes: usize,
}

/// A snapshot of [`Stats`], for tests that check which paths reach the
/// cache and that [`release`] empties it.
pub fn stats() -> Stats {
    let c = cache();
    Stats { hits: c.hits, misses: c.misses, returns: c.returns, cached_bytes: c.floats * std::mem::size_of::<f32>() }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The process-wide cache is shared with every other test in the
    // crate, so the policy is tested on a private `Cache`.

    #[test]
    fn a_returned_buffer_serves_the_next_take_of_its_length() {
        let mut c = Cache::new();
        c.put(vec![1.0; 4]);
        c.put(vec![2.0; 4]);
        c.put(vec![3.0; 8]);
        assert_eq!(c.reuse(4).ok(), Some(vec![2.0; 4]), "the most recent of that length");
        assert_eq!((c.hits, c.misses, c.returns, c.floats), (1, 0, 3, 12));
    }

    #[test]
    fn a_miss_frees_the_oldest_buffers_until_it_has_room() {
        let mut c = Cache::new();
        for (len, v) in [(2, 1.0), (3, 2.0), (4, 3.0), (5, 4.0)] {
            c.put(vec![v; len]);
        }
        // 6 floats: the 2 and the 3 are not enough, the 4 makes 9.
        let evicted = c.reuse(6).err();
        assert_eq!(evicted, Some(vec![vec![1.0; 2], vec![2.0; 3], vec![3.0; 4]]));
        assert_eq!((c.hits, c.misses, c.floats), (0, 1, 5));
        // More than the cache holds: everything goes.
        assert_eq!(c.reuse(100).err().map(|e| e.len()), Some(1));
        assert_eq!((c.free.len(), c.floats), (0, 0));
    }

    #[test]
    fn zeroed_is_zero_and_take_is_poisoned_in_debug_builds() {
        for n in [3, MIN_LEN] {
            let z = zeroed(n);
            assert!(z.iter().all(|&v| v == 0.0));
            put(z);
            let t = take(n);
            if cfg!(debug_assertions) {
                assert!(t.iter().all(|v| v.is_nan()), "take({n}) hands out NaN, fresh or recycled");
            }
            put(t);
        }
    }
}
