//! The serving engine: `K` threads × `B` slots over one bounded queue.
//!
//! Every generate request on every server goes through this module. An
//! [`Engine`] runs `K` threads; each builds its own model replica
//! (models hold non-`Send` `Rc` autograd handles, so a replica lives on
//! the thread that built it) and drives it through [`StepBackend`]:
//! admit queued requests into free slots, run one step for everything
//! active, answer what finished, repeat. Admission and retirement happen
//! *between* steps (continuous batching), so one `[B, D]` GEMM serves
//! `B` requests per token. The two deployments are two shapes of this
//! one loop:
//!
//! * `K × 1` — [`crate::api::ApiServer::start`], the paper's "replicate
//!   the docker" scaling: each replica is a
//!   [`crate::api::RecipeBackend`] behind a one-slot adapter whose
//!   `step()` runs a whole request;
//! * `1 × B` — [`crate::api::ApiServer::start_batched`]: one replica
//!   whose `B` slots share every decode step.
//!
//! The engine is generic over [`StepBackend`] — the models side
//! (`ratatouille::BatchModelBackend`) adapts `BatchGenerator` to it —
//! so this crate stays model-free and the loop is testable with a
//! scripted fake.
//!
//! Policy, deliberately simple and deterministic:
//!
//! * one FIFO queue, bounded exactly (the length is checked under its
//!   lock): overflow is [`SubmitError::QueueFull`], which the API maps
//!   to 503;
//! * a thread with nothing active blocks on the queue's condvar; a
//!   thread with active sequences and a free slot takes whatever is
//!   queued between two steps and never waits. Because the condvar wait
//!   releases the lock, a busy thread is never stuck behind an idle one;
//! * a request the replica refuses while other sequences hold its slots
//!   or KV blocks stays at the head of the queue and is retried after
//!   the next step; one that even an idle replica refuses is
//!   [`SubmitError::PoolExhausted`] — 429, distinct from the 503 above;
//! * a replica that panics takes down only its own in-flight requests
//!   (each answered [`SubmitError::ReplicaPanicked`], 500) and is
//!   rebuilt from the factory on the same thread.
//!
//! Batching never changes bytes: the backend's determinism contract
//! (see `ratatouille_models::batch`) guarantees every admitted request
//! streams the same tokens it would have streamed solo.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use obs::metrics::Histogram;
use obs::reqtrace::{Phase, TraceMeta};

use crate::api::GeneratedRecipe;

/// One generate request, as every layer below the HTTP handler sees it.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// The pantry: a non-empty ingredient list.
    pub ingredients: Vec<String>,
    /// Weight dtype to decode with: one of the backend's `dtypes()` (the
    /// handler validates `?dtype=` before a request is built).
    pub dtype: String,
    /// Pins the sampling RNG (same seed, same recipe); `None` lets the
    /// backend pick.
    pub seed: Option<u64>,
    /// The enqueue stamp — set by [`Engine::submit`]; queue wait, TTFT
    /// and latency count from it — and the request's trace, if any,
    /// which backends thread into their decode loop.
    pub meta: TraceMeta,
}

impl GenRequest {
    /// A request with no trace and no enqueue stamp: what a caller that
    /// drives a backend directly (tests, benches, replays) admits.
    pub fn untraced(ingredients: &[String], dtype: &str, seed: Option<u64>) -> GenRequest {
        GenRequest {
            ingredients: ingredients.to_vec(),
            dtype: dtype.to_string(),
            seed,
            meta: TraceMeta::default(),
        }
    }
}

/// A finished generation.
#[derive(Debug, Clone)]
pub struct GenOut {
    /// The generated recipe.
    pub recipe: GeneratedRecipe,
    /// Enqueue → finished, milliseconds.
    pub latency_ms: f64,
}

/// A backend's answer to an admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Admitted; the id tags this request in [`StepBackend::step`]
    /// results.
    Admitted(u64),
    /// The KV pool cannot cover the request's worst case.
    PoolExhausted,
    /// No batch slot free.
    BatchFull,
}

/// One model replica that decodes up to `B` requests a step at a time.
///
/// Implementations live on the models side; the engine only needs these
/// verbs. Backends are built *inside* their engine thread via a factory.
pub trait StepBackend {
    /// Model card name (served at `/api/models`).
    fn model_name(&self) -> String;

    /// The weight dtypes this backend can serve; the first entry is the
    /// default when a request names none. The server validates
    /// `?dtype=…` against this set (400 otherwise).
    fn dtypes(&self) -> Vec<String> {
        vec!["f32".to_string()]
    }

    /// Try to admit a request. Its trace and enqueue stamp ride in
    /// `req.meta`, so every prefill chunk and token step can land on the
    /// request's timeline.
    fn admit_request(&mut self, req: &GenRequest) -> AdmitOutcome;

    /// [`Self::admit_request`] for an untraced f32 request.
    fn admit(&mut self, ingredients: &[String], seed: Option<u64>) -> AdmitOutcome {
        self.admit_request(&GenRequest::untraced(ingredients, "f32", seed))
    }

    /// Run one step for every active sequence; returns the requests that
    /// finished in it as `(id, recipe)`.
    fn step(&mut self) -> Vec<(u64, GeneratedRecipe)>;

    /// Currently decoding sequences.
    fn active(&self) -> usize;

    /// Free batch slots (`max_batch - active`).
    fn free_slots(&self) -> usize;
}

/// Builds the batched server's replica, inside its engine thread.
pub type StepBackendFactory = Arc<dyn Fn() -> Box<dyn StepBackend> + Send + Sync>;

/// Builds engine thread `k`'s replica, inside that thread.
pub type ReplicaFactory = Arc<dyn Fn(usize) -> Box<dyn StepBackend> + Send + Sync>;

/// The batched server's one setting.
#[derive(Debug, Clone)]
pub struct BatchServerConfig {
    /// Bound on the submission queue (overflow → 503).
    pub queue_cap: usize,
}

impl Default for BatchServerConfig {
    fn default() -> Self {
        BatchServerConfig { queue_cap: 64 }
    }
}

/// Why a submission produced no recipe, in order of decreasing client
/// fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full — 503, retry.
    QueueFull,
    /// The KV block pool cannot cover this request even alone — 429.
    PoolExhausted,
    /// The replica decoding this request panicked — 500. It has been
    /// rebuilt; the panic message is on the server's stderr.
    ReplicaPanicked,
    /// The engine is shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full"),
            SubmitError::PoolExhausted => write!(f, "KV block pool exhausted"),
            SubmitError::ReplicaPanicked => write!(f, "model replica panicked"),
            SubmitError::Closed => write!(f, "serving engine is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

type Reply = SyncSender<Result<GenOut, SubmitError>>;

struct Job {
    req: GenRequest,
    reply: Reply,
    /// Admission attempts so far (bumped on head-of-line requeues).
    attempts: u32,
}

struct Queue {
    /// Submitted, not yet admitted by any replica.
    jobs: VecDeque<Job>,
    closed: bool,
    /// Engine threads still running.
    live: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every push and on close; only threads with nothing
    /// active wait on it.
    arrived: Condvar,
    cap: usize,
}

impl Shared {
    /// A replica can panic while its thread holds this lock (admission
    /// runs under it), but every update to the queue is one whole push
    /// or pop, so a poisoned guard still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs when an engine thread ends, however it ends. Threads end when
/// the engine shuts down — or when the factory panics rebuilding a
/// replica. If that was the last thread nothing would ever answer the
/// queue, so it is closed and emptied: dropping a job drops its reply
/// sender, which `submit` reports as `ReplicaPanicked` instead of
/// blocking forever.
struct ThreadExit<'a>(&'a Shared);

impl Drop for ThreadExit<'_> {
    fn drop(&mut self) {
        let mut q = self.0.lock();
        q.live -= 1;
        if q.live == 0 {
            q.closed = true;
            obs::static_gauge!("serving_queue_depth").add(-(q.jobs.len() as f64));
            q.jobs.clear();
        }
    }
}

/// The latency and queue-wait histograms, each with its `{model=…}`
/// twin, resolved once per engine thread (never on the request path).
struct Series {
    latency: [Arc<Histogram>; 2],
    queue_wait: [Arc<Histogram>; 2],
}

impl Series {
    fn resolve(model: &str) -> Series {
        let label = obs::metrics::label_value(model);
        let with_twin = |name: &str| {
            [
                obs::metrics::histogram(name),
                obs::metrics::histogram(&format!("{name}{{model=\"{label}\"}}")),
            ]
        };
        Series {
            latency: with_twin("generate_latency_ns"),
            queue_wait: with_twin("request_queue_wait_ns"),
        }
    }
}

/// The serving engine: `K` replica threads behind one bounded queue.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    model_name: String,
    dtypes: Vec<String>,
    /// Batch slots of one replica (every replica is built alike).
    replica_slots: usize,
}

impl Engine {
    /// Spawn `threads` engine threads (at least one), each building its
    /// replica with `factory(k)`; blocks until thread 0's replica is
    /// built and has reported its model card.
    ///
    /// # Errors
    /// The OS error if a thread cannot spawn, or `InvalidData` if the
    /// factory panics building the first replica.
    pub fn start(
        threads: usize,
        queue_cap: usize,
        factory: ReplicaFactory,
    ) -> std::io::Result<Engine> {
        let threads = threads.max(1);
        // Registered here so they read 0, not absent, on a healthy server.
        obs::static_counter!("serving_queue_rejections_total").add(0);
        obs::static_counter!("serving_pool_rejections_total").add(0);
        let mut engine = Engine {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    closed: false,
                    live: threads,
                }),
                arrived: Condvar::new(),
                cap: queue_cap.max(1),
            }),
            handles: Vec::with_capacity(threads),
            model_name: String::new(),
            dtypes: Vec::new(),
            replica_slots: 0,
        };
        let (card_tx, card_rx) = sync_channel(1);
        let mut card_tx = Some(card_tx);
        for k in 0..threads {
            let shared = Arc::clone(&engine.shared);
            let factory = Arc::clone(&factory);
            // Thread 0 reports the model card.
            let card_tx = card_tx.take();
            // On a failed spawn, dropping `engine` closes the queue and
            // joins the threads already running.
            engine.handles.push(
                std::thread::Builder::new()
                    .name(format!("engine-{k}"))
                    .spawn(move || engine_thread(k, &shared, &*factory, card_tx))?,
            );
        }
        (engine.model_name, engine.dtypes, engine.replica_slots) = card_rx.recv().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "backend factory panicked building the first replica",
            )
        })?;
        Ok(engine)
    }

    /// The served model's card name.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The weight dtypes the replicas serve; the first is the default.
    pub fn dtypes(&self) -> &[String] {
        &self.dtypes
    }

    /// Engine threads (`K`): the `workers` of `/api/health`.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// The most requests the engine holds at once: a full queue plus
    /// every replica's slots decoding.
    pub fn capacity(&self) -> usize {
        self.shared.cap + self.threads() * self.replica_slots
    }

    /// Enqueue a request and block until it is answered (the HTTP
    /// handler's calling convention). Rejects immediately when the queue
    /// is full. The caller records `Phase::Enqueue` on the request's
    /// trace first; this method records a queue-full rejection, and the
    /// engine thread admission, requeues and rejections downstream.
    pub fn submit(&self, mut req: GenRequest) -> Result<GenOut, SubmitError> {
        let (reply, answer) = sync_channel(1);
        {
            let mut q = self.shared.lock();
            if q.closed {
                return Err(SubmitError::Closed);
            }
            if q.jobs.len() >= self.shared.cap {
                drop(q);
                obs::static_counter!("serving_queue_rejections_total").inc();
                req.meta.record(Phase::Reject, 0, 0);
                return Err(SubmitError::QueueFull);
            }
            req.meta.enqueued_ns = obs::Clock::now().at_ns();
            q.jobs.push_back(Job {
                req,
                reply,
                attempts: 0,
            });
            obs::static_gauge!("serving_queue_depth").add(1.0);
        }
        self.shared.arrived.notify_one();
        // Accepted requests are always answered, even across shutdown;
        // the one way a reply sender is dropped unanswered is its
        // replica unwinding.
        answer.recv().unwrap_or(Err(SubmitError::ReplicaPanicked))
    }

    /// Stop accepting. The threads exit once everything already
    /// accepted, queued or in flight, has been answered.
    fn close(&self) {
        self.shared.lock().closed = true;
        self.shared.arrived.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Engine thread `k`: build a replica, run the loop on it until the
/// engine closes, and start over on a fresh replica if it panics.
fn engine_thread(
    k: usize,
    shared: &Shared,
    factory: &dyn Fn(usize) -> Box<dyn StepBackend>,
    mut card_tx: Option<SyncSender<(String, Vec<String>, usize)>>,
) {
    let _exit = ThreadExit(shared);
    let mut series = None;
    loop {
        // Outside `catch_unwind` on purpose: a factory that panics ends
        // this thread (and fails `Engine::start`, if this is the first
        // build on thread 0) rather than retrying in a hot loop.
        let mut backend = factory(k);
        if let Some(tx) = card_tx.take() {
            let _ = tx.send((backend.model_name(), backend.dtypes(), backend.free_slots()));
        }
        let series = series.get_or_insert_with(|| Series::resolve(&backend.model_name()));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_loop(shared, backend.as_mut(), series)
        }));
        if run.is_ok() {
            return;
        }
    }
}

/// One replica's serving loop; returns when the engine is closed and
/// this replica has nothing left to do. If the replica panics, unwinding
/// drops `inflight` — and with it the reply sender of every request the
/// replica held — which is how each of them is answered exactly once.
fn run_loop(shared: &Shared, backend: &mut dyn StepBackend, series: &Series) {
    // id → (where to answer, enqueue stamp)
    let mut inflight: BTreeMap<u64, (Reply, u64)> = BTreeMap::new();
    loop {
        if backend.active() == 0 || backend.free_slots() > 0 {
            let mut q = shared.lock();
            while backend.active() == 0 && q.jobs.is_empty() {
                if q.closed {
                    return;
                }
                q = shared
                    .arrived
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Admit FIFO into the free slots. Within a replica only this
            // thread admits, so batch composition follows arrival order.
            while backend.free_slots() > 0 {
                let Some(mut job) = q.jobs.pop_front() else {
                    break;
                };
                obs::static_gauge!("serving_queue_depth").add(-1.0);
                match backend.admit_request(&job.req) {
                    AdmitOutcome::Admitted(id) => {
                        let enqueued_ns = job.req.meta.enqueued_ns;
                        let wait_ns = obs::Clock::now().at_ns().saturating_sub(enqueued_ns);
                        series.queue_wait.iter().for_each(|h| h.observe(wait_ns));
                        inflight.insert(id, (job.reply, enqueued_ns));
                    }
                    // Transient: sequences still decoding hold the slots
                    // or KV blocks. Head-of-line wait for their
                    // retirement instead of a spurious 429.
                    _ if backend.active() > 0 => {
                        job.attempts += 1;
                        job.req.meta.record(Phase::Requeue, job.attempts, 0);
                        q.jobs.push_front(job);
                        obs::static_gauge!("serving_queue_depth").add(1.0);
                        break;
                    }
                    // Even an idle replica cannot cover this request.
                    _ => {
                        obs::static_counter!("serving_pool_rejections_total").inc();
                        job.req.meta.record(Phase::Reject, 0, 0);
                        let _ = job.reply.send(Err(SubmitError::PoolExhausted));
                    }
                }
            }
        }
        if backend.active() == 0 {
            continue;
        }
        let step_start = obs::Clock::now();
        let finished = backend.step();
        obs::static_histogram!("serving_exec_ns").observe(step_start.elapsed_ns());
        for (id, recipe) in finished {
            if let Some((reply, enqueued_ns)) = inflight.remove(&id) {
                let latency_ns = obs::Clock::now().at_ns().saturating_sub(enqueued_ns);
                series.latency.iter().for_each(|h| h.observe(latency_ns));
                let _ = reply.send(Ok(GenOut {
                    recipe,
                    latency_ms: latency_ns as f64 / 1e6,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    impl Engine {
        /// Jobs submitted and not yet admitted, so tests can wait for a
        /// state instead of sleeping through it.
        pub(crate) fn queued(&self) -> usize {
            self.shared.lock().jobs.len()
        }
    }

    /// What the scripted replicas report back to the test.
    #[derive(Default)]
    struct Probe {
        /// Batch size of every step, over all replicas.
        batch_sizes: Mutex<Vec<usize>>,
        /// The factory's argument, once per replica built.
        built: Mutex<Vec<usize>>,
        /// Replicas currently inside `step()`.
        stepping: Mutex<usize>,
        changed: Condvar,
        /// While set, steps make no progress: the test holds the engine
        /// in a state until it has looked at it.
        hold: AtomicBool,
    }

    impl Probe {
        fn steps(&self) -> usize {
            self.batch_sizes.lock().unwrap().len()
        }

        /// Spin until the replica is stepping a batch of `n` with
        /// `queued` requests waiting behind it.
        fn await_state(&self, engine: &Engine, n: usize, queued: usize) {
            while self.batch_sizes.lock().unwrap().last() != Some(&n) || engine.queued() != queued {
                std::thread::yield_now();
            }
        }

        /// Enter `step()` and wait until `n` replicas are inside it at
        /// once; false after ten seconds alone.
        fn meet(&self, n: usize) -> bool {
            let mut inside = self.stepping.lock().unwrap();
            *inside += 1;
            self.changed.notify_all();
            let (_inside, timeout) = self
                .changed
                .wait_timeout_while(inside, Duration::from_secs(10), |inside| *inside < n)
                .unwrap();
            !timeout.timed_out()
        }
    }

    /// A scripted replica: each admitted request finishes after a fixed
    /// number of steps; slots and pool size are programmable.
    struct FakeBackend {
        k: usize,
        max_batch: usize,
        pool_tokens: usize,
        steps_to_finish: usize,
        /// Simulated per-step decode time, so requests overlap in
        /// wall-clock time.
        step_delay: Duration,
        /// `step()` panics once this many requests are active.
        panic_at_batch: Option<usize>,
        /// `step()` first waits for this many replicas to be stepping.
        meet: usize,
        active: Vec<(u64, usize)>, // (id, steps remaining)
        next_id: u64,
        probe: Arc<Probe>,
    }

    impl FakeBackend {
        fn new(k: usize, probe: &Arc<Probe>) -> FakeBackend {
            probe.built.lock().unwrap().push(k);
            FakeBackend {
                k,
                max_batch: 4,
                pool_tokens: 100,
                steps_to_finish: 3,
                step_delay: Duration::ZERO,
                panic_at_batch: None,
                meet: 0,
                active: Vec::new(),
                next_id: 0,
                probe: Arc::clone(probe),
            }
        }
    }

    impl StepBackend for FakeBackend {
        fn model_name(&self) -> String {
            "fake".into()
        }

        fn admit_request(&mut self, req: &GenRequest) -> AdmitOutcome {
            if self.active.len() >= self.max_batch {
                return AdmitOutcome::BatchFull;
            }
            // Model the worst-case reservation: one "token" per
            // ingredient, drawn from a fixed pool, one held per active
            // request.
            if req.ingredients.len() + self.active.len() > self.pool_tokens {
                return AdmitOutcome::PoolExhausted;
            }
            req.meta.record(Phase::Admit, 0, 0);
            let id = self.next_id;
            self.next_id += 1;
            self.active.push((id, self.steps_to_finish));
            AdmitOutcome::Admitted(id)
        }

        fn step(&mut self) -> Vec<(u64, GeneratedRecipe)> {
            self.probe
                .batch_sizes
                .lock()
                .unwrap()
                .push(self.active.len());
            if self.panic_at_batch.is_some_and(|n| self.active.len() >= n) {
                panic!("scripted replica panic at batch {}", self.active.len());
            }
            if self.probe.hold.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
                return Vec::new();
            }
            if self.meet > 0 {
                assert!(
                    self.probe.meet(self.meet),
                    "replicas never stepped together"
                );
            }
            if !self.step_delay.is_zero() {
                std::thread::sleep(self.step_delay);
            }
            let mut done = Vec::new();
            let k = self.k;
            self.active.retain_mut(|(id, left)| {
                *left -= 1;
                if *left == 0 {
                    let recipe = GeneratedRecipe {
                        title: format!("k{k}r{id}"),
                        ingredients: vec![],
                        instructions: vec![],
                        well_formed: true,
                    };
                    done.push((*id, recipe));
                }
                *left > 0
            });
            done
        }

        fn active(&self) -> usize {
            self.active.len()
        }

        fn free_slots(&self) -> usize {
            self.max_batch - self.active.len()
        }
    }

    /// A `threads × B` engine of scripted replicas, each customised by
    /// `script` (which also sees how many replicas were built before).
    fn start_fake(
        threads: usize,
        queue_cap: usize,
        script: impl Fn(&mut FakeBackend, usize) + Send + Sync + 'static,
    ) -> (Engine, Arc<Probe>) {
        let probe = Arc::new(Probe::default());
        let for_factory = Arc::clone(&probe);
        let engine = Engine::start(
            threads,
            queue_cap,
            Arc::new(move |k| {
                let built_before = for_factory.built.lock().unwrap().len();
                let mut b = FakeBackend::new(k, &for_factory);
                script(&mut b, built_before);
                Box::new(b) as Box<dyn StepBackend>
            }),
        )
        .unwrap();
        (engine, probe)
    }

    fn pantry(items: &[&str], seed: u64) -> GenRequest {
        let items: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        GenRequest::untraced(&items, "f32", Some(seed))
    }

    /// Submit `n` requests at once; the answers in submission order.
    fn submit_all(engine: &Engine, n: u64) -> Vec<Result<GenOut, SubmitError>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| s.spawn(move || engine.submit(pantry(&["x"], i))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn titles(answers: Vec<Result<GenOut, SubmitError>>) -> Vec<String> {
        let mut titles: Vec<String> = answers
            .into_iter()
            .map(|a| a.expect("request answered with a recipe").recipe.title)
            .collect();
        titles.sort();
        titles
    }

    #[test]
    fn single_request_completes() {
        let (engine, _) = start_fake(1, 64, |_, _| {});
        let out = engine.submit(pantry(&["flour"], 1)).unwrap();
        assert_eq!(out.recipe.title, "k0r0");
        assert!(
            out.latency_ms > 0.0,
            "latency counts from the enqueue stamp"
        );
        assert_eq!((engine.model_name(), engine.threads()), ("fake", 1));
        assert_eq!(engine.dtypes(), ["f32"], "the trait's default dtype set");
    }

    #[test]
    fn concurrent_requests_coalesce_into_batches() {
        let (engine, probe) = start_fake(1, 64, |b, _| b.max_batch = 8);
        probe.hold.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let all = s.spawn(|| submit_all(&engine, 6));
            probe.await_state(&engine, 6, 0);
            probe.hold.store(false, Ordering::SeqCst);
            assert_eq!(titles(all.join().unwrap()).len(), 6);
        });
    }

    #[test]
    fn mid_decode_arrival_joins_the_running_batch() {
        let (engine, probe) = start_fake(1, 64, |_, _| {});
        probe.hold.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let first = s.spawn(|| engine.submit(pantry(&["a"], 1)).unwrap());
            // Let the first request start decoding alone…
            probe.await_state(&engine, 1, 0);
            let second = s.spawn(|| engine.submit(pantry(&["b"], 2)).unwrap());
            // …and the second join it between two of its steps.
            probe.await_state(&engine, 2, 0);
            probe.hold.store(false, Ordering::SeqCst);
            assert_eq!(first.join().unwrap().recipe.title, "k0r0");
            assert_eq!(second.join().unwrap().recipe.title, "k0r1");
        });
    }

    #[test]
    fn finish_mid_step_frees_the_slot_for_the_queue() {
        // One slot: each request can only run after the one before it
        // retires, admitted by the same loop without external nudging.
        let (engine, _) = start_fake(1, 64, |b, _| b.max_batch = 1);
        assert_eq!(titles(submit_all(&engine, 3)), ["k0r0", "k0r1", "k0r2"]);
    }

    #[test]
    fn drains_queue_to_empty_and_idles() {
        let (engine, probe) = start_fake(1, 64, |b, _| b.steps_to_finish = 2);
        for i in 0..5 {
            engine.submit(pantry(&["i"], i)).unwrap();
        }
        // All finished; the thread is blocked idle (no busy spinning):
        // step count is bounded by work actually done.
        let steps = probe.steps();
        assert!(steps <= 5 * 2, "idle engine kept stepping ({steps} steps)");
    }

    #[test]
    fn pool_exhausted_maps_to_submit_error() {
        // Pool of 2 "tokens": a 3-ingredient request can never fit.
        let (engine, _) = start_fake(1, 64, |b, _| b.pool_tokens = 2);
        let err = engine.submit(pantry(&["a", "b", "c"], 0)).unwrap_err();
        assert_eq!(err, SubmitError::PoolExhausted);
        // The engine survives rejection and still serves fitting work.
        let out = engine.submit(pantry(&["a"], 9)).unwrap();
        assert_eq!(out.recipe.title, "k0r0");
    }

    #[test]
    fn transient_refusals_wait_at_the_head_of_the_queue() {
        // Two slots but a pool of 2: while one request decodes, a
        // 2-ingredient one does not fit *yet* — requeued, not rejected.
        let (engine, probe) = start_fake(1, 64, |b, _| {
            b.max_batch = 2;
            b.pool_tokens = 2;
        });
        probe.hold.store(true, Ordering::SeqCst);
        let trace = obs::reqtrace::begin();
        let requeued = || trace.phases().iter().any(|p| p.phase == Phase::Requeue);
        std::thread::scope(|s| {
            let first = s.spawn(|| engine.submit(pantry(&["a"], 1)).unwrap());
            probe.await_state(&engine, 1, 0);
            let mut second = pantry(&["b", "c"], 2);
            second.meta.trace = Some(trace.clone());
            let second = s.spawn(|| engine.submit(second).unwrap());
            while !requeued() {
                std::thread::yield_now();
            }
            assert_eq!(
                engine.queued(),
                1,
                "a requeued job waits in the shared queue"
            );
            probe.hold.store(false, Ordering::SeqCst);
            assert_eq!(first.join().unwrap().recipe.title, "k0r0");
            assert_eq!(second.join().unwrap().recipe.title, "k0r1");
        });
        assert_eq!(trace.phases().last().map(|p| p.phase), Some(Phase::Admit));
        assert_eq!(probe.batch_sizes.lock().unwrap().iter().max(), Some(&1));
    }

    #[test]
    fn overflow_queue_rejects_with_queue_full() {
        // One busy slot and a queue of 1: the queue then holds one
        // request and the next submit bounces, traced as a rejection.
        let (engine, probe) = start_fake(1, 1, |b, _| b.max_batch = 1);
        probe.hold.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let in_flight = s.spawn(|| engine.submit(pantry(&["slow0"], 0)));
            probe.await_state(&engine, 1, 0);
            let queued = s.spawn(|| engine.submit(pantry(&["slow1"], 1)));
            probe.await_state(&engine, 1, 1);
            let trace = obs::reqtrace::begin();
            let mut bounced = pantry(&["c"], 2);
            bounced.meta.trace = Some(trace.clone());
            assert_eq!(engine.submit(bounced).unwrap_err(), SubmitError::QueueFull);
            assert_eq!(trace.phases().last().map(|p| p.phase), Some(Phase::Reject));
            // The accepted requests still complete.
            probe.hold.store(false, Ordering::SeqCst);
            assert!(in_flight.join().unwrap().is_ok());
            assert!(queued.join().unwrap().is_ok());
        });
    }

    #[test]
    fn the_request_trace_reaches_the_backend() {
        let (engine, _) = start_fake(1, 64, |_, _| {});
        let trace = obs::reqtrace::begin();
        // The serving handler records Enqueue before submitting.
        trace.record(Phase::Enqueue, 0, 0);
        let mut req = pantry(&["flour"], 1);
        req.meta.trace = Some(trace.clone());
        assert_eq!(engine.submit(req).unwrap().recipe.title, "k0r0");
        let kinds: Vec<_> = trace.phases().iter().map(|p| p.phase).collect();
        assert_eq!(kinds, [Phase::Accept, Phase::Enqueue, Phase::Admit]);
    }

    #[test]
    fn close_with_requests_queued_and_in_flight_answers_all_of_them() {
        let (engine, probe) = start_fake(1, 64, |b, _| b.max_batch = 2);
        probe.hold.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let accepted = s.spawn(|| submit_all(&engine, 5));
            // Two in flight, three queued behind them.
            probe.await_state(&engine, 2, 3);
            engine.close();
            assert_eq!(
                engine.submit(pantry(&["late"], 9)).unwrap_err(),
                SubmitError::Closed
            );
            probe.hold.store(false, Ordering::SeqCst);
            assert_eq!(
                titles(accepted.join().unwrap()).len(),
                5,
                "accepted request dropped"
            );
        });
    }

    #[test]
    fn replicas_are_built_once_per_thread_with_their_index() {
        let (engine, probe) = start_fake(3, 16, |b, _| b.max_batch = 1);
        for i in 0..12 {
            engine.submit(pantry(&["x"], i)).unwrap();
        }
        drop(engine); // joins: every thread has built its replica
        let mut built = probe.built.lock().unwrap().clone();
        built.sort();
        assert_eq!(built, [0, 1, 2]);
    }

    #[test]
    fn one_slot_replicas_overlap_in_wall_time() {
        // Every step waits until four replicas are stepping at once:
        // only four requests decoding in parallel get past it.
        let (engine, _) = start_fake(4, 16, |b, _| {
            b.max_batch = 1;
            b.steps_to_finish = 1;
            b.meet = 4;
        });
        assert_eq!(titles(submit_all(&engine, 4)).len(), 4);
    }

    #[test]
    fn a_panicking_replica_answers_its_in_flight_once_and_is_rebuilt() {
        for slots in [1, 3] {
            // The first replica panics in the step that has every slot
            // occupied; the one rebuilt after it behaves.
            let (engine, probe) = start_fake(1, 16, move |b, built_before| {
                b.max_batch = slots;
                if built_before == 0 {
                    b.steps_to_finish = usize::MAX;
                    b.panic_at_batch = Some(slots);
                }
            });
            let answers = submit_all(&engine, slots as u64);
            assert_eq!(answers.len(), slots, "a reply was lost or doubled");
            for a in answers {
                assert_eq!(a.unwrap_err(), SubmitError::ReplicaPanicked);
            }
            // Later admissions are served, by a fresh replica.
            assert_eq!(titles(submit_all(&engine, slots as u64)).len(), slots);
            assert_eq!(*probe.built.lock().unwrap(), [0, 0]);
        }
    }

    #[test]
    fn a_burst_on_two_by_three_finishes_while_one_thread_idles() {
        let (engine, probe) = start_fake(2, 16, |b, _| {
            b.max_batch = 3;
            b.steps_to_finish = 20;
            b.step_delay = Duration::from_millis(1);
        });
        assert_eq!(engine.capacity(), 16 + 2 * 3, "queue + threads × slots");
        // Twelve requests over six slots. Towards the end one thread
        // runs dry and blocks on the queue while the other still has
        // sequences decoding and a free slot to poll the queue for.
        assert_eq!(titles(submit_all(&engine, 12)).len(), 12);
        // And from both threads idle: whichever wakes decodes with a
        // free slot beside a blocked sibling for all twenty steps. A
        // sibling that blocked *holding* the queue lock would hang this.
        assert!(engine.submit(pantry(&["solo"], 99)).is_ok());
        let sizes = probe.batch_sizes.lock().unwrap();
        assert!(sizes.iter().all(|&n| (1..=3).contains(&n)), "{sizes:?}");
        assert_eq!(
            sizes.iter().sum::<usize>(),
            13 * 20,
            "a sequence-step was lost"
        );
    }

    #[test]
    fn a_panicking_factory_is_an_error_never_a_hang() {
        // At start: the first replica cannot be built.
        let start = Engine::start(2, 4, Arc::new(|_| panic!("scripted factory panic")));
        assert_eq!(
            start.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidData)
        );
        // At rebuild: the only thread dies, which closes the engine.
        let probe = Arc::new(Probe::default());
        let for_factory = Arc::clone(&probe);
        let engine = Engine::start(
            1,
            4,
            Arc::new(move |k| {
                assert!(
                    for_factory.built.lock().unwrap().is_empty(),
                    "no second replica"
                );
                let mut b = FakeBackend::new(k, &for_factory);
                b.panic_at_batch = Some(1);
                Box::new(b) as Box<dyn StepBackend>
            }),
        )
        .unwrap();
        assert_eq!(
            engine.submit(pantry(&["x"], 0)).unwrap_err(),
            SubmitError::ReplicaPanicked
        );
        while !engine.shared.lock().closed {
            std::thread::yield_now();
        }
        assert_eq!(
            engine.submit(pantry(&["y"], 1)).unwrap_err(),
            SubmitError::Closed
        );
    }
}
