//! Persistent-pool data parallelism for the heavy kernels.
//!
//! The paper trained on an Nvidia A100 ("2–3 days on CPU vs ~16 h on GPU").
//! Our substitute for that hardware axis is CPU thread parallelism: the
//! worker count is a process-wide runtime knob so the `training_speedup`
//! reproduction binary can sweep 1→N threads over the identical workload.
//!
//! Kernels used to spawn (and join) fresh `std::thread::scope` threads on
//! every launch, which puts a thread create/destroy pair on every matmul in
//! the training and decoding hot path. This module instead keeps a
//! lazily-initialized pool of parked workers alive for the life of the
//! process and hands them work over `mpsc` channels:
//!
//! * **Lazy & growable** — no threads exist until the first parallel launch;
//!   the pool grows to the largest worker count ever requested and idle
//!   workers block on their (empty) task channel, costing no CPU.
//! * **Deterministic** — chunk boundaries are a pure function of the
//!   call's shape (item count and per-item work) and `num_threads()`,
//!   chunk `i` always runs on worker `i-1` (chunk 0 runs inline on the
//!   launching thread), and every kernel accumulates in a fixed order
//!   within its chunk, so results are byte-identical across thread counts
//!   and across runs.
//! * **Work-gated** — the chunking helpers fan out only to as many tasks
//!   as carry [`MIN_TASK_MACS`] of arithmetic each, so a decode-sized
//!   kernel runs inline instead of paying a worker wake-up and ack that
//!   cost more than the kernel itself.
//! * **Nested-launch safe** — a parallel region launched from inside a pool
//!   worker runs inline on that worker instead of re-entering the pool, so
//!   nested kernels can never deadlock on a full pool.
//! * **Panic-transparent** — a panicking task is caught on the worker,
//!   forwarded to the launcher, and re-thrown there after all sibling tasks
//!   finish; the worker itself survives for the next launch.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

/// 0 means "use all available parallelism".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the number of worker threads used by parallel kernels.
///
/// `0` restores the default (all available cores). Takes effect for
/// subsequent kernel launches; in-flight kernels are unaffected. Thread
/// count never changes kernel results — chunking is deterministic and
/// per-chunk accumulation order is fixed.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Detected core count, resolved once. `available_parallelism` reads
/// cgroup quota files on Linux (microseconds per call) — far too slow to
/// query on every kernel launch, and the answer never changes within a
/// process lifetime.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// The number of worker threads parallel kernels will use right now.
pub fn num_threads() -> usize {
    match NUM_THREADS.load(Ordering::Relaxed) {
        0 => *DEFAULT_THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        n => n,
    }
}

/// Work one pool task must carry before handing it to a parked worker
/// pays, in multiply-accumulates. Sized from the measured launch cost
/// (`tensor.pool_launch_us`, 40–45 µs for a wake-up plus ack on the
/// reference box) against ~20 MACs/ns of cache-resident FMA throughput:
/// below ~1 M MACs the launch costs more than the work it offloads. A
/// property of the pool, not a setting.
const MIN_TASK_MACS: usize = 1 << 20;

// Per-element costs of the elementwise and row kernels in `ops`, in the
// unit of [`MIN_TASK_MACS`] (one MAC ≈ 0.05 ns at ~20 MACs/ns), from
// single-threaded ns per element at GPT-2 medium's training shapes on the
// reference box (DESIGN §4b). Like the gate, properties of the kernels,
// not settings.

/// Copies and column sums — `permute`, `narrow`, `pad_narrow_grad`,
/// `sum_to_trailing`: 0.13–0.27 ns (3–5 MACs).
pub(crate) const COPY_MACS: usize = 4;
/// Arithmetic streaming ops — `add`, `mul`, `scale`, a bias broadcast:
/// 0.5–0.7 ns, zeroing the output included (10–14 MACs).
pub(crate) const STREAM_MACS: usize = 16;
/// `exp`- and `tanh`-bound kernels — the softmax family, cross-entropy,
/// layer norm and their backward passes: 1.5–3.8 ns; `tanh`, `gelu` and
/// its backward, 8 lanes wide: 3.4–4.7 ns (30–94 MACs).
pub(crate) const EXP_MACS: usize = 64;

/// How many pool tasks `items` work items of `item_macs`
/// multiply-accumulates each should be cut into: at most one per thread
/// and per item, and no more than carry [`MIN_TASK_MACS`] each. A pure
/// function of the call's shape and [`num_threads`].
fn gated_tasks(items: usize, item_macs: usize) -> usize {
    let by_count = num_threads().min(items);
    let tasks = by_count.min(items.saturating_mul(item_macs) / MIN_TASK_MACS);
    if tasks <= 1 && by_count > 1 {
        obs::static_counter!("tensor_pool_inline_total").inc();
    }
    tasks.max(1)
}

/// A unit of work sent to one pool worker: run `f(index)`, then count it
/// off on the launcher's latch.
struct Job {
    /// Lifetime-erased task closure. Soundness: the launcher waits on its
    /// [`Latch`] until every job has counted off, so the borrow outlives
    /// all worker access even though it is typed `'static`.
    f: &'static (dyn Fn(usize) + Sync),
    index: usize,
    /// Enqueue stamp, for the `tensor_pool_queue_wait_ns` histogram.
    enqueued_ns: u64,
    /// The launcher's latch, lifetime-erased like `f`.
    latch: &'static Latch,
}

struct Pool {
    /// One task channel per worker; index in this vec == worker id.
    senders: Mutex<Vec<mpsc::Sender<Job>>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set once inside pool workers: nested launches run inline.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        senders: Mutex::new(Vec::new()),
    })
}

impl Pool {
    /// Grow the pool to at least `n` workers and return their senders.
    fn workers(&self, n: usize) -> Vec<mpsc::Sender<Job>> {
        // xlint: allow(transitive-panic-in-request-path): mutex poisoning means a worker already panicked; propagating is the only sane response
        let mut senders = self.senders.lock().unwrap();
        while senders.len() < n {
            let (tx, rx) = mpsc::channel::<Job>();
            let id = senders.len();
            std::thread::Builder::new()
                .name(format!("rat-pool-{id}"))
                .spawn(move || worker_loop(rx))
                // xlint: allow(transitive-panic-in-request-path): thread spawn failure is unrecoverable resource exhaustion; there is no degraded mode
                .expect("failed to spawn pool worker");
            senders.push(tx);
        }
        senders[..n].to_vec()
    }
}

fn worker_loop(rx: mpsc::Receiver<Job>) {
    IS_POOL_WORKER.with(|w| w.set(true));
    // The receiver errors only when the pool itself is dropped (process
    // exit), which is this worker's shutdown signal.
    while let Ok(job) = rx.recv() {
        obs::static_histogram!("tensor_pool_queue_wait_ns")
            .observe(obs::Clock::now().at_ns().saturating_sub(job.enqueued_ns));
        let result = catch_unwind(AssertUnwindSafe(|| (job.f)(job.index)));
        job.latch.count_off(result.err());
    }
}

/// The launcher's side of one launch, on its stack: the jobs not yet
/// finished, the first worker panic, and the thread to wake. A launch
/// allocates nothing to be told its jobs are done, so no per-launch block
/// is ever freed on a worker thread, where the allocator would keep it
/// and with it the launcher's heap (DESIGN §4b).
struct Latch {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    launcher: std::thread::Thread,
}

impl Latch {
    /// A worker's last touch of the latch: record its panic, then count
    /// its job off and wake the launcher if it was the last. Nothing of
    /// the latch is read after the decrement, which may let the launcher
    /// return and pop it.
    fn count_off(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panic {
            self.panic.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(p);
        }
        let launcher = self.launcher.clone();
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            launcher.unpark();
        }
    }

    /// Wait until every dispatched job has counted off; return the first
    /// worker panic.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        while self.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// The soundness backstop: however the launcher leaves (including by
/// unwinding), the borrow handed to the workers stays alive until they
/// are all done.
impl Drop for Latch {
    fn drop(&mut self) {
        let _ = self.wait();
    }
}

/// Run `f(0)`, `f(1)`, …, `f(tasks-1)` exactly once each, concurrently on
/// the persistent pool. Task 0 runs inline on the calling thread; task `i`
/// runs on pool worker `i-1` (a fixed assignment, for determinism).
///
/// Runs everything inline when `tasks <= 1` or when called from inside a
/// pool worker (nested launch). Panics in any task propagate to the caller
/// after all tasks have finished.
pub fn run_tasks<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    if tasks == 1 || IS_POOL_WORKER.with(|w| w.get()) {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    obs::static_counter!("tensor_pool_launches_total").inc();
    let senders = pool().workers(tasks - 1);
    let latch = Latch {
        pending: AtomicUsize::new(senders.len()),
        panic: Mutex::new(None),
        launcher: std::thread::current(),
    };
    let f_ref: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY(invariant: the fabricated 'static never outlives this frame's `f` and `latch`)
    // Lifetime erasure only — every exit path from this function (normal
    // return, local panic, worker panic) runs `latch.wait()` — directly
    // or via `Latch::drop` — which blocks until each dispatched job has
    // counted off, after which no worker touches `f` or `latch` again.
    // `F: Sync` makes the shared `&f` sound across the pool threads, and
    // `Latch` is `Sync` (an atomic, a mutex and a thread handle).
    let (f_static, latch_static) = unsafe {
        (
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f_ref),
            std::mem::transmute::<&Latch, &'static Latch>(&latch),
        )
    };
    for (w, sender) in senders.iter().enumerate() {
        let job = Job {
            f: f_static,
            index: w + 1,
            enqueued_ns: obs::Clock::now().at_ns(),
            latch: latch_static,
        };
        if sender.send(job).is_err() {
            // This job and the ones after it will never run.
            latch.pending.fetch_sub(senders.len() - w, Ordering::AcqRel);
            // xlint: allow(transitive-panic-in-request-path): workers never drop their receiver while the pool lives; a closed channel is a torn-down process
            panic!("pool worker channel closed");
        }
    }
    let local = catch_unwind(AssertUnwindSafe(|| f(0)));
    let worker_panic = latch.wait();
    if let Err(p) = local {
        std::panic::resume_unwind(p);
    }
    if let Some(p) = worker_panic {
        std::panic::resume_unwind(p);
    }
}

/// Run `f(start, end, chunk_index)` over disjoint chunks of `0..len` on
/// the persistent pool, where each index costs `item_macs`
/// multiply-accumulates. Falls back to a direct call when one thread
/// suffices or the work is too small to amortize a pool launch
/// ([`MIN_TASK_MACS`]).
///
/// `f` must be safe to run concurrently on disjoint ranges — callers
/// partition their output buffers accordingly.
pub fn parallel_chunks<F>(len: usize, item_macs: usize, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    let threads = gated_tasks(len, item_macs);
    if threads <= 1 {
        f(0, len, 0);
        return;
    }
    let chunk = len.div_ceil(threads);
    let tasks = len.div_ceil(chunk);
    run_tasks(tasks, |t| {
        let start = t * chunk;
        let end = ((t + 1) * chunk).min(len);
        if start < end {
            f(start, end, t);
        }
    });
}

/// Run `f(i, &mut slots[i])` exactly once for every slot, scattered over
/// the persistent pool — the general task-scatter entry point for
/// non-GEMM work (e.g. the per-sequence paged-attention sweep, where each
/// slot carries its own scratch buffers and output range).
///
/// Slots are grouped into at most [`num_threads`] contiguous runs — and
/// no more than carry [`MIN_TASK_MACS`] each at `slot_macs`
/// multiply-accumulates per slot — whose boundaries are a pure function
/// of `(slots.len(), slot_macs, num_threads())`; run
/// `i` executes on the same thread [`run_tasks`] always gives task `i`
/// (run 0 inline on the caller, run `i` on pool worker `i-1`), and slots
/// within a run execute in ascending index order. Task panics propagate
/// to the caller after all sibling tasks finish, exactly like every
/// other pool launch.
///
/// Determinism note: grouping only affects *where* a slot runs, never
/// what it computes — each slot must be computable independently of the
/// others (they are handed out as disjoint `&mut`), so results are
/// byte-identical across thread counts by construction.
pub fn scatter_mut<T, F>(slots: &mut [T], slot_macs: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = slots.len();
    let tasks = gated_tasks(n, slot_macs);
    if tasks <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            f(i, slot);
        }
        return;
    }
    let per = n.div_ceil(tasks);
    let base = slots.as_mut_ptr();
    let mut parts = Vec::with_capacity(tasks);
    let mut start = 0usize;
    while start < n {
        let take = per.min(n - start);
        parts.push(RawPart {
            start_row: start,
            end_row: start + take,
            // SAFETY(invariant: `start < n` makes this an in-bounds offset of `slots`)
            ptr: unsafe { base.add(start) },
            len: take,
        });
        start += take;
    }
    run_tasks(parts.len(), |i| {
        let p = &parts[i];
        // SAFETY(disjoint: parts[i] — consecutive slot runs tile `slots` without overlap)
        // `run_tasks` invokes each index exactly once, and `slots`' `&mut`
        // borrow is held across the join — so this is the sole live
        // reference to the run.
        let run = unsafe { std::slice::from_raw_parts_mut(p.ptr, p.len) };
        for (j, slot) in run.iter_mut().enumerate() {
            f(p.start_row + j, slot);
        }
    });
}

/// A raw chunk of the output buffer, pre-split so disjoint `&mut` slices
/// can be reconstructed inside the shared task closure. Generic over the
/// element type so both `f32` kernel outputs and `i8` quantized buffers
/// can be tiled.
struct RawPart<T> {
    start_row: usize,
    end_row: usize,
    ptr: *mut T,
    len: usize,
}

// SAFETY(invariant: moving a part moves exclusive access to its region)
// A `RawPart` is only ever created by the scatter helpers, which cut one
// live `&mut [T]` into non-overlapping `[ptr, ptr+len)` regions; moving a
// part to a pool thread therefore never shares its region. `T: Send`
// bounds the element itself to types whose exclusive access may cross
// threads.
unsafe impl<T: Send> Send for RawPart<T> {}
// SAFETY(invariant: shared access only reads the immutable pointer and bounds)
// Tasks receive `&RawPart` through the shared closure, but task index `i`
// is dispatched exactly once, so each part's region is reconstructed into
// a `&mut` slice by exactly one thread.
unsafe impl<T: Send> Sync for RawPart<T> {}

/// Fill disjoint row-chunks of `out`, where each chunk of `rows` rows of
/// width `row_len` is produced by `f(row_range, out_chunk)` at a cost of
/// `row_macs` multiply-accumulates per row.
///
/// This is the safe wrapper the matmul and quantization kernels use: the
/// output buffer is pre-split into disjoint parts (boundaries depend only
/// on `rows`, `row_macs` and the thread count, never on scheduling), so no
/// aliasing is possible.
pub fn parallel_rows_mut<T, F>(out: &mut [T], rows: usize, row_len: usize, row_macs: usize, f: F)
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    assert_eq!(out.len(), rows * row_len, "output buffer size mismatch");
    let threads = gated_tasks(rows, row_macs);
    if threads <= 1 {
        f(0..rows, out);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let base = out.as_mut_ptr();
    let mut parts = Vec::with_capacity(threads);
    let mut row = 0usize;
    while row < rows {
        let take = rows_per.min(rows - row);
        parts.push(RawPart {
            start_row: row,
            end_row: row + take,
            // SAFETY(invariant: `row < rows` and the asserted `out.len()` keep this in bounds)
            ptr: unsafe { base.add(row * row_len) },
            len: take * row_len,
        });
        row += take;
    }
    run_tasks(parts.len(), |i| {
        let p = &parts[i];
        // SAFETY(disjoint: parts[i] — consecutive `row * row_len` chunks tile `out`)
        // `run_tasks` invokes each index exactly once, and `out`'s `&mut`
        // borrow is held across the join — so this is the sole live
        // reference to the region.
        let chunk = unsafe { std::slice::from_raw_parts_mut(p.ptr, p.len) };
        f(p.start_row..p.end_row, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `set_num_threads` is process-global and the harness runs tests
    /// concurrently: every test that sets the knob or depends on the
    /// fan-out width serializes here (recovering a poisoned lock).
    static KNOB: Mutex<()> = Mutex::new(());

    fn knob(threads: usize) -> MutexGuard<'static, ()> {
        let g = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(threads);
        g
    }

    /// Per-item work that puts every item above the gate on its own.
    const HEAVY: usize = MIN_TASK_MACS;

    #[test]
    fn default_threads_positive() {
        let _g = knob(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn set_and_restore() {
        let _g = knob(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parallel_chunks_covers_range_once() {
        let _g = knob(4);
        let hits = Mutex::new(vec![0u8; 1000]);
        parallel_chunks(1000, HEAVY, |s, e, _| {
            let mut h = hits.lock().unwrap();
            for i in s..e {
                h[i] += 1;
            }
        });
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
        set_num_threads(0);
    }

    #[test]
    fn parallel_rows_mut_writes_disjoint_rows() {
        let _g = knob(3);
        let rows = 64;
        let width = 7;
        let mut out = vec![0.0f32; rows * width];
        parallel_rows_mut(&mut out, rows, width, HEAVY, |range, chunk| {
            for (i, r) in range.clone().enumerate() {
                for c in 0..width {
                    chunk[i * width + c] = (r * width + c) as f32;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
        set_num_threads(0);
    }

    #[test]
    fn parallel_rows_mut_is_element_generic() {
        let _g = knob(3);
        let rows = 33;
        let width = 5;
        let mut out = vec![0i8; rows * width];
        parallel_rows_mut(&mut out, rows, width, HEAVY, |range, chunk| {
            for (i, r) in range.clone().enumerate() {
                for c in 0..width {
                    chunk[i * width + c] = ((r * width + c) % 127) as i8;
                }
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i % 127) as i8);
        }
        set_num_threads(0);
    }

    #[test]
    fn scatter_mut_visits_each_slot_exactly_once() {
        let _g = knob(3);
        let mut slots: Vec<(usize, u32)> = (0..17).map(|i| (i, 0)).collect();
        scatter_mut(&mut slots, HEAVY, |i, s| {
            assert_eq!(i, s.0, "slot index must match position");
            s.1 += 1;
        });
        assert!(slots.iter().all(|&(_, hits)| hits == 1));
        set_num_threads(0);
    }

    #[test]
    fn scatter_mut_panic_propagates() {
        let _g = knob(2);
        let caught = std::panic::catch_unwind(|| {
            let mut slots = vec![0u8; 8];
            scatter_mut(&mut slots, HEAVY, |i, _| {
                if i == 5 {
                    panic!("boom in slot 5");
                }
            });
        });
        set_num_threads(0);
        assert!(caught.is_err(), "slot panic must reach the launcher");
    }

    /// The chunks one call was cut into, as `(start, end, ran on caller)`.
    fn observed_chunks(len: usize, item_macs: usize) -> Vec<(usize, usize, bool)> {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        parallel_chunks(len, item_macs, |s, e, _| {
            let here = std::thread::current().id() == caller;
            seen.lock().unwrap().push((s, e, here));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn sub_threshold_work_runs_inline_on_the_caller() {
        let _g = knob(4);
        let elided = obs::static_counter!("tensor_pool_inline_total").get();
        // One MAC short of two tasks' worth: a single direct call.
        let len = 2 * MIN_TASK_MACS / 64 - 1;
        assert_eq!(observed_chunks(len, 64), vec![(0, len, true)]);
        assert!(obs::static_counter!("tensor_pool_inline_total").get() > elided);

        let mut out = vec![0.0f32; 3];
        parallel_rows_mut(&mut out, 3, 1, 100, |range, chunk| {
            assert_eq!(range, 0..3);
            chunk.fill(1.0);
        });
        assert_eq!(out, vec![1.0; 3]);
        set_num_threads(0);
    }

    #[test]
    fn super_threshold_work_fans_out_by_work_then_threads() {
        let _g = knob(4);
        // Exactly two tasks' worth at four threads: two chunks, the
        // second on a pool worker.
        let len = 2 * MIN_TASK_MACS / 64;
        assert_eq!(
            observed_chunks(len, 64),
            vec![(0, len / 2, true), (len / 2, len, false)]
        );
        // Far above the gate the thread count is the cap again.
        let chunks = observed_chunks(64, HEAVY);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().filter(|c| c.2).count(), 1, "only chunk 0 is inline");
        set_num_threads(0);
    }

    #[test]
    fn results_byte_equal_across_threads_for_shapes_straddling_the_gate() {
        let _g = knob(1);
        // rows × row_macs from a quarter of the gate to eight times it.
        for rows in [7usize, 64, 129] {
            for row_macs in [MIN_TASK_MACS / (4 * rows), MIN_TASK_MACS / rows + 1, 8 * MIN_TASK_MACS / rows] {
                let run = |threads: usize| -> (Vec<f32>, Vec<f32>) {
                    set_num_threads(threads);
                    let mut out = vec![0.0f32; rows * 3];
                    parallel_rows_mut(&mut out, rows, 3, row_macs, |range, chunk| {
                        for (i, r) in range.enumerate() {
                            for c in 0..3 {
                                chunk[i * 3 + c] = (r * 3 + c) as f32 * 0.37;
                            }
                        }
                    });
                    let mut slots = vec![0.0f32; rows];
                    scatter_mut(&mut slots, row_macs, |i, s| *s = (i * i) as f32 * 0.5);
                    (out, slots)
                };
                let base = run(1);
                for t in [2, 3, 4, 7] {
                    assert_eq!(base, run(t), "{rows}x{row_macs} changed at {t} threads");
                }
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn repeated_launches_reuse_pool() {
        use std::sync::atomic::AtomicU64;
        let _g = knob(2);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            parallel_chunks(64, HEAVY, |s, e, _| {
                total.fetch_add((e - s) as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 64);
        set_num_threads(0);
    }

    #[test]
    fn nested_launches_run_inline_without_deadlock() {
        let _g = knob(3);
        let hits = Mutex::new(vec![0u32; 256]);
        parallel_chunks(256, HEAVY, |s, e, _| {
            // nested launch from (potentially) inside a pool worker
            parallel_chunks(e - s, HEAVY, |ns, ne, _| {
                let mut h = hits.lock().unwrap();
                for i in s + ns..s + ne {
                    h[i] += 1;
                }
            });
        });
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
        set_num_threads(0);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let _g = knob(2);
        let caught = std::panic::catch_unwind(|| {
            parallel_chunks(64, HEAVY, |s, _, _| {
                if s == 0 {
                    panic!("boom in chunk 0");
                }
            });
        });
        assert!(caught.is_err(), "panic must propagate to the launcher");
        // pool still functional after the panic
        let hits = Mutex::new(0usize);
        parallel_chunks(128, HEAVY, |s, e, _| {
            *hits.lock().unwrap() += e - s;
        });
        assert_eq!(*hits.lock().unwrap(), 128);
        set_num_threads(0);
    }
}
