//! Per-request tracing: lock-free phase records, a bounded completed-trace
//! ring, and an always-retained slow-request reservoir.
//!
//! A [`RequestTrace`] is created when the HTTP layer accepts a request
//! ([`begin`]), threaded through the serving queue and the batch engine as
//! an `Arc` ([`TraceHandle`]), and sealed at response write ([`complete`]).
//! Every pipeline phase appends one fixed-size record — phase tag, a
//! [`crate::clock`] stamp, and two 32-bit arguments (batch size, KV
//! hits, HTTP status, …) — so a single request's life (enqueue → admit →
//! every decode step → retire → respond) is reconstructable after the
//! fact from `/debug/requests/<id>`, or as a Chrome trace-event timeline
//! of the whole batch window via [`chrome_trace_json`].
//!
//! # Lock-freedom on the decode path
//!
//! [`RequestTrace::record`] is the only entry point the batch engine's
//! per-token step touches, and it takes no lock: a slot index is claimed
//! with one `fetch_add`, the argument word is stored relaxed, and the
//! phase+stamp word is published with a release store (readers acquire;
//! an all-zero word means "claimed but not yet published" and is
//! skipped). Records past [`TRACE_SLOTS`] are counted in
//! [`RequestTrace::dropped`] rather than blocking or reallocating. The
//! completed ring and the slow reservoir sit behind a mutex, but that
//! mutex is touched once per *request* (at completion), never per token.
//!
//! # Determinism contract
//!
//! Like the rest of `obs`, traces are write-only telemetry: nothing in
//! the pipeline reads a stamp or a phase record back, so tracing cannot
//! perturb token streams (§4b). The *sequence of phase kinds* for a
//! request is itself deterministic for a given admission composition —
//! `models/tests/batch_equivalence.rs` pins solo vs batch-7 equality.

use crate::clock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Phase-record slots per trace. Sized for the worst realistic request:
/// one slot per prefill token plus one per decode step plus a handful of
/// lifecycle records — a 60-token prompt decoding 256 tokens uses ~320.
/// Overflow increments the per-trace drop counter instead of growing.
pub const TRACE_SLOTS: usize = 1024;

/// Completed traces retained in the FIFO ring (newest win).
pub const RING_CAPACITY: usize = 64;

/// Slowest completed traces retained regardless of ring eviction.
pub const SLOW_CAPACITY: usize = 16;

/// Timestamps are packed into the low 56 bits of the publish word
/// (~833 days of process uptime at ns resolution).
const STAMP_MASK: u64 = (1 << 56) - 1;

/// A pipeline phase tag. Discriminants start at 1 so a zero publish word
/// unambiguously means "slot claimed but not yet written".
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// HTTP request parsed and accepted; args: (0, 0).
    Accept = 1,
    /// Handed to a serving queue; args: (queue depth if known, 0).
    Enqueue = 2,
    /// Admitted into a backend; args: (KV-prefix hit tokens, miss tokens).
    Admit = 3,
    /// Transient admission failure, re-queued head-of-line; args: (attempt, 0).
    Requeue = 4,
    /// Definitive rejection (queue full / prompt can never fit); args: (0, 0).
    Reject = 5,
    /// One prompt token fed during chunked prefill; args: (position, batch size).
    PrefillChunk = 6,
    /// One generated token; args: (tokens emitted so far, batch size).
    DecodeStep = 7,
    /// Sequence left the batch engine; args: (tokens generated, 0).
    Retire = 8,
    /// Response bytes written; args: (HTTP status, 0).
    Respond = 9,
}

impl Phase {
    /// Stable lower-snake name (used in JSON timelines and Chrome events).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::Enqueue => "enqueue",
            Phase::Admit => "admit",
            Phase::Requeue => "requeue",
            Phase::Reject => "reject",
            Phase::PrefillChunk => "prefill_chunk",
            Phase::DecodeStep => "decode_step",
            Phase::Retire => "retire",
            Phase::Respond => "respond",
        }
    }

    /// Names for the two argument words, per phase (for JSON rendering).
    pub fn arg_keys(self) -> (&'static str, &'static str) {
        match self {
            Phase::Accept => ("a", "b"),
            Phase::Enqueue => ("queue_depth", "b"),
            Phase::Admit => ("kv_hit_tokens", "kv_miss_tokens"),
            Phase::Requeue => ("attempt", "b"),
            Phase::Reject => ("a", "b"),
            Phase::PrefillChunk => ("position", "batch_size"),
            Phase::DecodeStep => ("tokens_out", "batch_size"),
            Phase::Retire => ("tokens_generated", "b"),
            Phase::Respond => ("status", "b"),
        }
    }

    /// Decode a tag byte back to a phase (publish-word round trip).
    pub fn from_u8(tag: u8) -> Option<Phase> {
        Some(match tag {
            1 => Phase::Accept,
            2 => Phase::Enqueue,
            3 => Phase::Admit,
            4 => Phase::Requeue,
            5 => Phase::Reject,
            6 => Phase::PrefillChunk,
            7 => Phase::DecodeStep,
            8 => Phase::Retire,
            9 => Phase::Respond,
            _ => return None,
        })
    }
}

/// One decoded phase record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Which phase.
    pub phase: Phase,
    /// [`crate::clock::epoch_ns`] at record time (low 56 bits).
    pub at_ns: u64,
    /// First argument word (meaning per [`Phase::arg_keys`]).
    pub a: u32,
    /// Second argument word.
    pub b: u32,
}

/// One phase slot: the argument word is stored relaxed first, then the
/// phase+stamp word is published with release ordering.
struct Slot {
    word: AtomicU64,
    args: AtomicU64,
}

/// A single request's trace: identity, start/done stamps, and a
/// fixed-capacity lock-free phase log.
pub struct RequestTrace {
    id: u64,
    start_ns: u64,
    len: AtomicU32,
    dropped: AtomicU32,
    done_ns: AtomicU64,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for RequestTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestTrace")
            .field("id", &self.id)
            .field("phases", &self.len.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl RequestTrace {
    fn new(id: u64) -> RequestTrace {
        let mut slots = Vec::with_capacity(TRACE_SLOTS);
        for _ in 0..TRACE_SLOTS {
            slots.push(Slot {
                word: AtomicU64::new(0),
                args: AtomicU64::new(0),
            });
        }
        RequestTrace {
            id,
            start_ns: clock::epoch_ns(),
            len: AtomicU32::new(0),
            dropped: AtomicU32::new(0),
            done_ns: AtomicU64::new(0),
            slots,
        }
    }

    /// The monotonic trace id (also the `X-Trace-Id` response header).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// [`crate::clock::epoch_ns`] when the trace was created.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Completion stamp, or 0 while the request is still in flight.
    pub fn done_ns(&self) -> u64 {
        self.done_ns.load(Ordering::Acquire)
    }

    /// End-to-end duration; falls back to "so far" while in flight.
    pub fn duration_ns(&self) -> u64 {
        let done = self.done_ns();
        let end = if done != 0 { done } else { clock::epoch_ns() };
        end.saturating_sub(self.start_ns)
    }

    /// Phase records that overflowed [`TRACE_SLOTS`] and were discarded.
    pub fn dropped(&self) -> u32 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Append a phase record. Lock-free and allocation-free: safe to call
    /// from the batch engine's per-token decode step.
    pub fn record(&self, phase: Phase, a: u32, b: u32) {
        let idx = self.len.fetch_add(1, Ordering::Relaxed) as usize;
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[idx];
        slot.args
            .store(((a as u64) << 32) | (b as u64), Ordering::Relaxed);
        let word = ((phase as u64) << 56) | (clock::epoch_ns() & STAMP_MASK);
        slot.word.store(word, Ordering::Release);
    }

    /// Decode the published phase log, in record order. Slots claimed but
    /// not yet published (publish word still 0) are skipped.
    pub fn phases(&self) -> Vec<PhaseRecord> {
        let n = (self.len.load(Ordering::Acquire) as usize).min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            let word = slot.word.load(Ordering::Acquire);
            if word == 0 {
                continue;
            }
            let Some(phase) = Phase::from_u8((word >> 56) as u8) else {
                continue;
            };
            let args = slot.args.load(Ordering::Relaxed);
            out.push(PhaseRecord {
                phase,
                at_ns: word & STAMP_MASK,
                a: (args >> 32) as u32,
                b: args as u32,
            });
        }
        out
    }
}

/// Shared handle to a request's trace; cheap to clone across the queue
/// channel, the worker thread, and the batch engine.
pub type TraceHandle = Arc<RequestTrace>;

/// Queue metadata that rides with a job into a backend: when it was
/// enqueued (for `request_queue_wait_ns` / TTFT attribution) and the
/// request's trace, if the caller carries one. `Default` is "untraced".
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// [`crate::clock::epoch_ns`] when the request entered a queue
    /// (0 = unknown; queue-wait and TTFT then count from admission).
    pub enqueued_ns: u64,
    /// The request's trace, if tracing is attached.
    pub trace: Option<TraceHandle>,
}

impl TraceMeta {
    /// Meta for a trace beginning now (enqueue stamp taken immediately).
    pub fn now(trace: Option<TraceHandle>) -> TraceMeta {
        TraceMeta {
            enqueued_ns: clock::epoch_ns(),
            trace,
        }
    }

    /// Record a phase on the attached trace, if any. The `Option` check
    /// is the entire disabled-path cost — no stamp is taken when `None`.
    pub fn record(&self, phase: Phase, a: u32, b: u32) {
        if let Some(t) = &self.trace {
            t.record(phase, a, b);
        }
    }
}

/// A sink for pipeline phase records. `models` records against this
/// trait so the decode loop never names a concrete trace type; the
/// only implementor is [`RequestTrace`], and the disabled path is an
/// `Option<&dyn TraceSink>` check — zero stamps, zero stores.
pub trait TraceSink {
    /// Append one phase record.
    fn record_phase(&self, phase: Phase, a: u32, b: u32);
}

impl TraceSink for RequestTrace {
    fn record_phase(&self, phase: Phase, a: u32, b: u32) {
        self.record(phase, a, b);
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Store {
    ring: VecDeque<TraceHandle>,
    slow: Vec<TraceHandle>,
}

static STORE: Mutex<Store> = Mutex::new(Store {
    ring: VecDeque::new(),
    slow: Vec::new(),
});

/// Lock the completed-trace store, recovering from poisoning (a panicked
/// holder leaves only telemetry state behind — always safe to adopt).
fn lock_store() -> std::sync::MutexGuard<'static, Store> {
    match STORE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Start a new trace with a fresh monotonic id (first phase: `Accept`).
pub fn begin() -> TraceHandle {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let trace = Arc::new(RequestTrace::new(id));
    trace.record(Phase::Accept, 0, 0);
    trace
}

/// Seal a trace at response write: stamps `done_ns`, pushes it into the
/// bounded completed ring, and offers it to the slow-request reservoir
/// (which keeps the [`SLOW_CAPACITY`] slowest completions seen, surviving
/// ring eviction). Called once per request — never on the decode path.
pub fn complete(trace: &TraceHandle) {
    trace
        .done_ns
        .store(clock::epoch_ns().max(1), Ordering::Release);
    let dur = trace.duration_ns();
    let mut st = lock_store();
    if st.ring.len() >= RING_CAPACITY {
        st.ring.pop_front();
    }
    st.ring.push_back(trace.clone());
    if st.slow.len() < SLOW_CAPACITY {
        st.slow.push(trace.clone());
    } else {
        let mut min_at = 0usize;
        let mut min_dur = u64::MAX;
        for (i, t) in st.slow.iter().enumerate() {
            let d = t.duration_ns();
            if d < min_dur {
                min_dur = d;
                min_at = i;
            }
        }
        if dur > min_dur {
            st.slow[min_at] = trace.clone();
        }
    }
}

/// All retained completed traces — the ring plus any reservoir entries
/// the ring has already evicted — newest first, deduplicated by id.
pub fn completed() -> Vec<TraceHandle> {
    let st = lock_store();
    let mut out: Vec<TraceHandle> = st.ring.iter().rev().cloned().collect();
    for t in st.slow.iter() {
        if !out.iter().any(|o| o.id == t.id) {
            out.push(t.clone());
        }
    }
    out
}

/// Look up a retained completed trace by id.
pub fn find(id: u64) -> Option<TraceHandle> {
    let st = lock_store();
    st.ring
        .iter()
        .find(|t| t.id == id)
        .or_else(|| st.slow.iter().find(|t| t.id == id))
        .cloned()
}

/// Render every retained trace as Chrome trace-event JSON (the legacy
/// array format `chrome://tracing` and Perfetto both load). One complete
/// (`"ph":"X"`) event per phase record; `tid` is the trace id, so each
/// request renders as its own track and a batch window reads as stacked
/// concurrent tracks. Durations span to the next record in the same
/// trace (the last record spans to `done_ns`).
pub fn chrome_trace_json() -> String {
    let traces = completed();
    let mut out = String::with_capacity(4096);
    out.push('[');
    let mut first = true;
    for t in &traces {
        let phases = t.phases();
        for (i, p) in phases.iter().enumerate() {
            let end = match phases.get(i + 1) {
                Some(next) => next.at_ns,
                None => t.done_ns() & STAMP_MASK,
            };
            let dur_ns = end.saturating_sub(p.at_ns);
            if !first {
                out.push(',');
            }
            first = false;
            let (ka, kb) = p.phase.arg_keys();
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"{}\":{},\"{}\":{}}}}}",
                t.id,
                p.phase.name(),
                p.at_ns as f64 / 1000.0,
                dur_ns as f64 / 1000.0,
                ka,
                p.a,
                kb,
                p.b
            ));
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Tests share the global completed-trace store; serialize them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Drop all retained traces (the id counter stays monotonic).
    fn reset() {
        let mut st = lock_store();
        st.ring.clear();
        st.slow.clear();
    }

    #[test]
    fn record_and_decode_roundtrip() {
        let t = RequestTrace::new(7);
        t.record(Phase::Enqueue, 3, 0);
        t.record(Phase::Admit, 40, 8);
        t.record(Phase::DecodeStep, 1, 5);
        let ps = t.phases();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].phase, Phase::Enqueue);
        assert_eq!(ps[0].a, 3);
        assert_eq!(ps[1].phase, Phase::Admit);
        assert_eq!((ps[1].a, ps[1].b), (40, 8));
        assert_eq!(ps[2].phase, Phase::DecodeStep);
        assert!(ps[0].at_ns <= ps[1].at_ns && ps[1].at_ns <= ps[2].at_ns);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn overflow_counts_drops() {
        let t = RequestTrace::new(8);
        for i in 0..(TRACE_SLOTS + 10) {
            t.record(Phase::DecodeStep, i as u32, 1);
        }
        assert_eq!(t.phases().len(), TRACE_SLOTS);
        assert_eq!(t.dropped(), 10);
    }

    #[test]
    fn concurrent_records_all_land() {
        let t = Arc::new(RequestTrace::new(9));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let tc = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    tc.record(Phase::DecodeStep, w * 100 + i, 4);
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(t.phases().len(), 200);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_is_bounded_and_slow_reservoir_survives() {
        let _g = test_lock();
        reset();
        // A deliberately slow trace: real elapsed time dwarfs the
        // µs-scale fast traces below, so it can never be the reservoir
        // minimum that replacement evicts.
        let slow = begin();
        std::thread::sleep(std::time::Duration::from_millis(5));
        slow.record(Phase::Respond, 200, 0);
        complete(&slow);
        let slow_id = slow.id();
        // Flood the ring past capacity with fast traces.
        for _ in 0..(RING_CAPACITY + 8) {
            let t = begin();
            t.record(Phase::Respond, 200, 0);
            complete(&t);
        }
        let all = completed();
        // Ring evicted the slow trace, the reservoir kept it.
        assert!(all.len() <= RING_CAPACITY + SLOW_CAPACITY);
        assert!(find(slow_id).is_some(), "slow trace evicted from reservoir");
        reset();
        assert!(completed().is_empty());
    }

    #[test]
    fn find_returns_completed_trace() {
        let _g = test_lock();
        reset();
        let t = begin();
        t.record(Phase::Admit, 1, 2);
        assert!(t.done_ns() == 0);
        complete(&t);
        assert!(t.done_ns() > 0);
        let got = find(t.id()).expect("trace retained");
        assert_eq!(got.phases().len(), 2);
        reset();
    }

    #[test]
    fn chrome_trace_renders_events() {
        let _g = test_lock();
        reset();
        let t = begin();
        t.record(Phase::Admit, 40, 8);
        t.record(Phase::DecodeStep, 1, 3);
        complete(&t);
        let json = chrome_trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        for probe in ["\"ph\":\"X\"", "\"name\":\"admit\"", "\"name\":\"decode_step\"", "\"kv_hit_tokens\":40"] {
            assert!(json.contains(probe), "chrome json missing {probe}: {json}");
        }
        reset();
    }

    #[test]
    fn meta_records_only_when_attached() {
        let t = Arc::new(RequestTrace::new(11));
        let meta = TraceMeta {
            enqueued_ns: 5,
            trace: Some(t.clone()),
        };
        meta.record(Phase::Enqueue, 1, 0);
        assert_eq!(t.phases().len(), 1);
        let none = TraceMeta::default();
        none.record(Phase::Enqueue, 1, 0); // no-op, must not panic
        assert_eq!(none.enqueued_ns, 0);
    }
}
