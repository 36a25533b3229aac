//! Hierarchical tracing spans.
//!
//! A span is an RAII guard: [`span`] (or the [`span!`](crate::span)
//! macro) pushes a frame onto a thread-local stack and the guard's `Drop`
//! pops it, recording the span's duration. Nesting is implicit — a span
//! opened while another is live becomes its child, and the recorded
//! *path* is the `;`-joined chain of names (`"generate;decode.token"`),
//! which is exactly the folded-stacks format flamegraph tooling consumes.
//!
//! Two global sinks are fed on every span close, both bounded:
//!
//! * an aggregate map `path -> (count, self_ns)` where `self_ns` excludes
//!   time attributed to children — [`folded_stacks`] renders it;
//! * a ring buffer of the most recent [`SpanEvent`]s (capacity
//!   [`RING_CAPACITY`]); [`folded_stacks`] reports how many it evicted.
//!
//! Span names must be `&'static str` literals: that keeps the hot path
//! allocation-free until close and bounds cardinality by construction.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use crate::clock;

/// Maximum number of events retained in the recent-events ring.
pub const RING_CAPACITY: usize = 4096;

struct Frame {
    name: &'static str,
    /// ns already attributed to completed child spans.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// One completed span, as kept in the recent-events ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// `;`-joined ancestry path ending in this span's name.
    pub path: String,
    /// Start time, ns since the process epoch.
    pub start_ns: u64,
    /// Total duration in ns (including children).
    pub dur_ns: u64,
}

#[derive(Default)]
struct TraceState {
    /// path -> (close count, total self-time ns).
    folded: BTreeMap<String, (u64, u64)>,
    ring: VecDeque<SpanEvent>,
    /// Events evicted from the ring — without this, a busy window
    /// silently overwrites history and a reader can't tell a quiet
    /// period from a saturated ring.
    dropped: u64,
}

static TRACE: OnceLock<Mutex<TraceState>> = OnceLock::new();

fn state() -> &'static Mutex<TraceState> {
    TRACE.get_or_init(|| Mutex::new(TraceState::default()))
}

fn lock_state() -> std::sync::MutexGuard<'static, TraceState> {
    match state().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Open a span named `name`; it closes (and is recorded) when the
/// returned guard drops. Prefer the [`span!`](crate::span) macro at call
/// sites.
pub fn span(name: &'static str) -> SpanGuard {
    let start = clock::epoch_ns();
    STACK.with(|s| s.borrow_mut().push(Frame { name, child_ns: 0 }));
    SpanGuard { name, start_ns: start }
}

/// RAII guard returned by [`span`]; records the span on drop.
#[must_use = "a span measures the scope it lives in; bind it with `let _span = ...`"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = clock::epoch_ns().saturating_sub(self.start_ns);
        let (path, child_ns) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop until we find our own frame. Guards drop in LIFO order
            // in straight-line code, so the loop runs once; early drops of
            // parent guards simply discard the orphaned child frames.
            let mut child_ns = 0;
            while let Some(frame) = stack.pop() {
                if std::ptr::eq(frame.name, self.name) {
                    child_ns = frame.child_ns;
                    break;
                }
            }
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
            let mut path = String::new();
            for frame in stack.iter() {
                path.push_str(frame.name);
                path.push(';');
            }
            path.push_str(self.name);
            (path, child_ns)
        });
        let self_ns = dur.saturating_sub(child_ns);
        let mut st = lock_state();
        let entry = st.folded.entry(path.clone()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += self_ns;
        if st.ring.len() == RING_CAPACITY {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(SpanEvent {
            path,
            start_ns: self.start_ns,
            dur_ns: dur,
        });
    }
}

/// Render the aggregate span data as folded stacks — one
/// `path;to;span self_ns` line per unique path, in deterministic path
/// order — directly consumable by `flamegraph.pl` / `inferno`. The first
/// line is a `#`-prefixed header (a comment to flamegraph tooling)
/// reporting how many events the bounded ring has overwritten, so a
/// saturated ring is visible instead of silently lossy.
pub fn folded_stacks() -> String {
    let st = lock_state();
    let mut out = format!("# ring_dropped: {}\n", st.dropped);
    for (path, (_count, self_ns)) in st.folded.iter() {
        out.push_str(&format!("{path} {self_ns}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clear all recorded trace data: the tests share the global sink.
    fn reset() {
        let mut st = lock_state();
        st.folded.clear();
        st.ring.clear();
        st.dropped = 0;
    }

    /// Serialize trace tests: they share the global sink.
    fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn nested_spans_fold_into_paths() {
        let _guard = trace_test_lock();
        reset();
        {
            let _outer = span("outer_test");
            {
                let _inner = span("inner_test");
            }
            {
                let _inner = span("inner_test");
            }
        }
        let folded = folded_stacks();
        assert!(folded.contains("outer_test "), "{folded}");
        assert!(folded.contains("outer_test;inner_test "), "{folded}");
        let st = lock_state();
        assert_eq!(st.folded["outer_test;inner_test"].0, 2, "{folded}");
        assert_eq!(st.folded["outer_test"].0, 1, "{folded}");
    }

    #[test]
    fn self_time_excludes_children() {
        let _guard = trace_test_lock();
        reset();
        {
            let _outer = span("self_time_outer");
            let _inner = span("self_time_inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let st = lock_state();
        let outer = st
            .ring
            .iter()
            .find(|e| e.path == "self_time_outer")
            .expect("outer recorded");
        let inner = st
            .ring
            .iter()
            .find(|e| e.path == "self_time_outer;self_time_inner")
            .expect("inner recorded");
        assert!(outer.dur_ns >= inner.dur_ns);
        // outer's *self* time in the folded map must be far below its
        // total duration, since almost everything happened in the child.
        let (_, outer_self) = st.folded["self_time_outer"];
        assert!(
            outer_self < outer.dur_ns / 2,
            "self={outer_self} total={}",
            outer.dur_ns
        );
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _guard = trace_test_lock();
        reset();
        assert_eq!(lock_state().dropped, 0);
        for _ in 0..RING_CAPACITY + 10 {
            let _s = span("ring_bound_test");
        }
        assert_eq!(lock_state().ring.len(), RING_CAPACITY);
        assert_eq!(lock_state().dropped, 10);
        let folded = folded_stacks();
        assert!(folded.starts_with("# ring_dropped: 10\n"), "{folded}");
        reset();
        assert_eq!(lock_state().dropped, 0);
    }

    #[test]
    fn spans_on_other_threads_do_not_nest_under_ours() {
        let _guard = trace_test_lock();
        reset();
        let _outer = span("main_thread_outer");
        std::thread::spawn(|| {
            let _s = span("worker_thread_span");
        })
        .join()
        .unwrap();
        let folded = folded_stacks();
        assert!(folded.contains("worker_thread_span "), "{folded}");
        assert!(!folded.contains("main_thread_outer;worker_thread_span"), "{folded}");
    }
}
