//! The workloads that go over loopback TCP to an in-process server:
//! `serve_pooled_mixed` (closed loop), `serve_batched_open` (open loop)
//! and `http_light` (no model work).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::client::{exchange, Reply};
use crate::inputs::{burst_schedule, shared_requests, unique_requests, GenRequest};
use crate::json::{self, quote, Value};
use crate::pass::{verify_sample, Output, Pass, Workload};
use crate::spans::SpanLog;
use crate::stats::{now_ns, percentile, sorted, thread_cpu_ms};
use crate::sut::{self, Fixture, Recipe, Server, MODEL_NAME};

const LIST_LEN: usize = 4096;

/// The open loop sends this many requests at once, this often: 8 req/s,
/// about half of what the batched server sustains on this fixture with
/// all eight slots busy. Constants, never tuned at run time, so the load
/// is the same on every commit.
///
/// Arrivals are not Poisson. Over a ten-second window Poisson arrivals at
/// this load moved the median latency by 22–37% from seed to seed,
/// because a sequence that shares the engine with two others decodes at
/// half the speed of one that has it alone; bursts make every request
/// share it with the same number.
pub const OPEN_LOOP_BURST: usize = 4;
pub const OPEN_LOOP_PERIOD_S: f64 = 0.5;
/// Sender threads of the open loop: as many as the engine has batch
/// slots, so two bursts can be in flight without the generator holding
/// one back. They sleep or block on sockets; the CPU they use is reported.
const OPEN_LOOP_SENDERS: usize = 8;

/// What one generate exchange produced.
struct Exchange {
    index: usize,
    /// From due time (open loop) or send start, to the last body byte.
    latency_ms: f64,
    /// How late the generator sent it (open loop).
    lag_ms: f64,
    /// The server's own `latency_ms` field.
    server_ms: f64,
    result: Result<Recipe, Failure>,
}

enum Failure {
    Rejected,
    Other(String),
}

/// Strict check of a generate response: status, JSON shape, model card
/// and the dtype that was asked for.
fn validate_generate(reply: &Reply, int8: bool) -> Result<(Recipe, f64), Failure> {
    if reply.status == 429 || reply.status == 503 {
        return Err(Failure::Rejected);
    }
    if reply.status != 200 {
        return Err(Failure::Other(format!("status {}", reply.status)));
    }
    let check = || -> Result<(Recipe, f64), String> {
        let v = json::parse(&reply.body)?;
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or(format!("`{key}` missing or not a string"))
        };
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_string_vec)
                .ok_or(format!("`{key}` missing or not strings"))
        };
        let recipe = Recipe {
            title: text("title")?.to_string(),
            ingredients: list("ingredients")?,
            instructions: list("instructions")?,
        };
        if recipe.title.is_empty() {
            return Err("empty title".into());
        }
        if !matches!(v.get("well_formed"), Some(Value::Bool(_))) {
            return Err("`well_formed` missing or not a bool".into());
        }
        if text("model")? != MODEL_NAME {
            return Err(format!("model `{}`", text("model")?));
        }
        let want = if int8 { "int8" } else { "f32" };
        if text("dtype")? != want {
            return Err(format!("dtype `{}` for a {want} request", text("dtype")?));
        }
        let server_ms = v
            .get("latency_ms")
            .and_then(Value::as_f64)
            .filter(|ms| *ms > 0.0)
            .ok_or("`latency_ms` missing or not positive")?;
        Ok((recipe, server_ms))
    };
    check().map_err(Failure::Other)
}

/// The program's own account of one request (`/debug/requests/<id>`),
/// turned into child spans of the client's wait. `clock_offset_ns`
/// places the program's clock on the benchmark's.
fn server_spans(
    addr: SocketAddr,
    trace_id: u64,
    clock_offset_ns: i64,
    parent: usize,
    index: u64,
    log: &mut SpanLog,
) {
    let path = format!("/debug/requests/{trace_id}");
    // The server seals a trace just after it writes the response; a
    // reader that is quicker than that gets a 404 once.
    let body = (0..3).find_map(|attempt| {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        exchange(addr, "GET", &path, None)
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| r.body)
    });
    let Some(timeline) = body.and_then(|b| json::parse(&b).ok()) else {
        return;
    };
    let Some(events) = timeline.get("timeline").and_then(Value::as_array) else {
        return;
    };
    let at = |e: &Value| {
        e.get("at_ns")
            .and_then(Value::as_f64)
            .map(|ns| (ns as i64 + clock_offset_ns).max(0) as u64)
    };
    let first = |name: &str| {
        events
            .iter()
            .find(|e| e.get("phase").and_then(Value::as_str) == Some(name))
            .and_then(at)
    };
    let last = |name: &str| {
        events
            .iter()
            .rev()
            .find(|e| e.get("phase").and_then(Value::as_str) == Some(name))
            .and_then(at)
    };
    let (Some(accept), Some(respond)) = (first("accept"), last("respond")) else {
        return;
    };
    let enqueue = first("enqueue").unwrap_or(accept);
    let admit = first("admit").unwrap_or(enqueue);
    let prefill_end = last("prefill_chunk").unwrap_or(admit);
    let decode_end = last("retire")
        .or(last("decode_step"))
        .unwrap_or(prefill_end);
    let tokens = events
        .iter()
        .filter(|e| e.get("phase").and_then(Value::as_str) == Some("decode_step"))
        .count() as u64;
    for (name, a, b, count) in [
        ("srv.parse", accept, enqueue, 0),
        ("srv.queue", enqueue, admit, 0),
        ("srv.prefill", admit, prefill_end, 0),
        ("srv.decode", prefill_end, decode_end, tokens),
        ("srv.respond", decode_end, respond, 0),
    ] {
        log.push(name, a, b, Some(parent), index, count);
    }
}

/// The client-side phases of one exchange as children of a `request`
/// span that starts at `origin_ns` (the due time in the open loop, where
/// the wait before the send is the `lag` span). Returns the index of the
/// `wait_first_byte` span, under which the server's phases go.
fn client_spans(
    log: &mut SpanLog,
    id: u64,
    origin_ns: u64,
    reply: &Reply,
    sent_bytes: usize,
    validated_ns: u64,
) -> usize {
    let s = reply.stamps;
    let root = log.push("request", origin_ns, validated_ns, None, id, 0);
    if origin_ns < s.start_ns {
        log.push("lag", origin_ns, s.start_ns, Some(root), id, 0);
    }
    let mut child = |name, a, b, count: usize| log.push(name, a, b, Some(root), id, count as u64);
    child("connect", s.start_ns, s.connected_ns, 0);
    child("write", s.connected_ns, s.written_ns, sent_bytes);
    let wait = child("wait_first_byte", s.written_ns, s.first_byte_ns, 0);
    child("read_body", s.first_byte_ns, s.done_ns, reply.body.len());
    child("validate", s.done_ns, validated_ns, 0);
    wait
}

/// Send one generate request and validate the answer. With a `log`, also
/// record the client-side phases and the server's timeline, placed on
/// the benchmark clock by `clock_offset_ns`.
fn generate(
    addr: SocketAddr,
    index: usize,
    req: &GenRequest,
    due_ns: Option<u64>,
    log: Option<&mut SpanLog>,
    clock_offset_ns: i64,
) -> Exchange {
    let ingredients: Vec<String> = req.ingredients.iter().map(|s| quote(s)).collect();
    let body = format!(
        "{{\"ingredients\":[{}],\"seed\":{}}}",
        ingredients.join(","),
        req.seed
    );
    let path = if req.int8 {
        "/api/generate?dtype=int8"
    } else {
        "/api/generate"
    };
    let reply = match exchange(addr, "POST", path, Some(&body)) {
        Ok(r) => r,
        Err(e) => {
            return Exchange {
                index,
                latency_ms: 0.0,
                lag_ms: 0.0,
                server_ms: 0.0,
                result: Err(Failure::Other(e)),
            };
        }
    };
    let s = reply.stamps;
    let origin = due_ns.unwrap_or(s.start_ns);
    let validated = validate_generate(&reply, req.int8);
    if let Some(log) = log {
        let id = index as u64;
        let wait = client_spans(log, id, origin, &reply, body.len(), now_ns());
        if let Some(trace_id) = reply.trace_id {
            server_spans(addr, trace_id, clock_offset_ns, wait, id, log);
        }
    }
    let (result, server_ms) = match validated {
        Ok((recipe, server_ms)) => (Ok(recipe), server_ms),
        Err(f) => (Err(f), 0.0),
    };
    Exchange {
        index,
        latency_ms: s.done_ns.saturating_sub(origin) as f64 / 1e6,
        lag_ms: s.start_ns.saturating_sub(origin) as f64 / 1e6,
        server_ms,
        result,
    }
}

/// Run `threads` load-generator threads. Each asks `next` for a request
/// index and, in an open loop, its due time, sleeps until then, sends,
/// and stops when `next` has no more. The result is one [`Pass`].
fn run_threads(
    fx: &Fixture,
    addr: SocketAddr,
    requests: &[GenRequest],
    threads: usize,
    traced: bool,
    next: impl Fn() -> Option<(usize, Option<u64>)> + Sync,
) -> Pass {
    let clock_offset_ns = now_ns() as i64 - sut::program_clock_ns() as i64;
    let start = now_ns();
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let cpu0 = thread_cpu_ms();
                    let (mut done, mut log) = (Vec::new(), SpanLog::default());
                    while let Some((index, due_ns)) = next() {
                        if let Some(wait) = due_ns.and_then(|due| due.checked_sub(now_ns())) {
                            std::thread::sleep(Duration::from_nanos(wait));
                        }
                        let log = traced.then_some(&mut log);
                        done.push(generate(
                            addr,
                            index,
                            &requests[index],
                            due_ns,
                            log,
                            clock_offset_ns,
                        ));
                    }
                    (done, log, thread_cpu_ms() - cpu0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    collect(fx, per_thread, (now_ns() - start) as f64 / 1e9)
}

/// Fold the threads' exchanges into a [`Pass`].
fn collect(fx: &Fixture, threads: Vec<(Vec<Exchange>, SpanLog, f64)>, wall_s: f64) -> Pass {
    let mut pass = Pass {
        wall_s,
        ..Pass::default()
    };
    let (mut overhead_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let mut rejected = 0u64;
    let mut first_error = None;
    for (exchanges, log, cpu_ms) in threads {
        pass.spans.merge(log);
        pass.client_cpu_ms += cpu_ms;
        for x in exchanges {
            match x.result {
                Ok(recipe) => {
                    pass.latencies_ms.push(x.latency_ms);
                    overhead_ms.push(x.latency_ms - x.lag_ms - x.server_ms);
                    lag_ms.push(x.lag_ms);
                    pass.out_tokens += fx.count_tokens(&recipe) as u64;
                    pass.outputs.push(Output {
                        index: x.index,
                        recipe,
                    });
                }
                Err(Failure::Rejected) => {
                    pass.failed += 1;
                    rejected += 1;
                }
                Err(Failure::Other(e)) => {
                    pass.failed += 1;
                    first_error.get_or_insert(format!("request {}: {e}", x.index));
                }
            }
        }
    }
    if let Some(e) = first_error {
        println!("pass: first failure — {e}");
    }
    println!(
        "pass: {} sent, {} succeeded, {} failed ({} refused) in {wall_s:.3} s",
        pass.attempted(),
        pass.latencies_ms.len(),
        pass.failed,
        rejected
    );
    if !lag_ms.is_empty() {
        pass.layer.push((
            "serving.overhead_p50_ms",
            percentile(&sorted(overhead_ms), 50.0),
        ));
        pass.layer.push((
            "bench.generator_lag_p95_ms",
            percentile(&sorted(lag_ms), 95.0),
        ));
    }
    pass.layer.push((
        "serving.rejected_share",
        rejected as f64 / pass.attempted().max(1) as f64,
    ));
    pass
}

fn warm_up(addr: SocketAddr, requests: &[GenRequest]) {
    for (i, r) in requests.iter().enumerate() {
        if generate(addr, i, r, None, None, 0).result.is_err() {
            println!("warm-up request {i} failed");
        }
    }
}

/// `serve_pooled_mixed`: `clients` connections in a closed loop against
/// the replicated-worker server, unique short pantries, every fourth
/// request asking for int8.
pub struct Pooled<'a> {
    fx: &'a Fixture,
    server: Server,
    clients: usize,
    requests: Vec<GenRequest>,
    next: usize,
}

impl<'a> Pooled<'a> {
    pub fn new(fx: &'a Fixture, names: &[&str], seed: u64, clients: usize) -> Pooled<'a> {
        let server = fx.boot_pooled(clients);
        warm_up(
            server.addr(),
            &unique_requests(names, seed ^ 0x7761_726d, 4, true),
        );
        Pooled {
            fx,
            server,
            clients,
            requests: unique_requests(names, seed, LIST_LEN, true),
            next: 0,
        }
    }
}

impl Workload for Pooled<'_> {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let cursor = AtomicUsize::new(self.next);
        let deadline = now_ns() + (seconds * 1e9) as u64;
        let len = self.requests.len();
        let next = || {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            (now_ns() < deadline && i < len).then_some((i, None))
        };
        let addr = self.server.addr();
        let pass = run_threads(self.fx, addr, &self.requests, self.clients, traced, next);
        self.next = cursor.load(Ordering::Relaxed).min(len);
        pass
    }

    fn verify(&mut self, pass: &Pass, max_checks: usize) -> (usize, usize) {
        let mut replica = self.fx.solo_replica();
        verify_sample(&pass.outputs, &self.requests, max_checks, |r| {
            Some(replica.generate(&r.ingredients, r.int8, r.seed))
        })
    }

    fn stop(self: Box<Self>) {
        self.server.stop();
    }
}

/// `serve_batched_open`: bursts of arrivals at a fixed rate against the
/// continuous-batching server, Zipf-shared pantries. Latency runs from
/// each request's due time, so a stall is charged to the requests behind
/// it.
pub struct Open<'a> {
    fx: &'a Fixture,
    server: Server,
    requests: Vec<GenRequest>,
    next: usize,
}

impl<'a> Open<'a> {
    pub fn new(fx: &'a Fixture, names: &[&str], seed: u64) -> Open<'a> {
        let server = fx.boot_batched();
        warm_up(
            server.addr(),
            &shared_requests(names, seed ^ 0x7761_726d, 3),
        );
        Open {
            fx,
            server,
            requests: shared_requests(names, seed, LIST_LEN),
            next: 0,
        }
    }
}

impl Workload for Open<'_> {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let first = self.next;
        let schedule = burst_schedule(OPEN_LOOP_BURST, OPEN_LOOP_PERIOD_S, seconds);
        let arrivals = schedule.len().min(self.requests.len() - first);
        let cursor = AtomicUsize::new(0);
        let start = now_ns();
        let next = || {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            (k < arrivals).then(|| (first + k, Some(start + schedule[k])))
        };
        let addr = self.server.addr();
        let pass = run_threads(
            self.fx,
            addr,
            &self.requests,
            OPEN_LOOP_SENDERS,
            traced,
            next,
        );
        self.next = first + arrivals;
        Pass {
            paced: true,
            ..pass
        }
    }

    fn verify(&mut self, pass: &Pass, max_checks: usize) -> (usize, usize) {
        let mut replica = self.fx.batch_replica();
        verify_sample(&pass.outputs, &self.requests, max_checks, |r| {
            replica.generate(&r.ingredients, r.seed)
        })
    }

    fn stop(self: Box<Self>) {
        self.server.stop();
    }
}

/// `http_light`: one connection at a time cycling four cheap requests.
/// The model does nothing: accept, parse, route, JSON and the metrics
/// rendering are all of it.
pub struct HttpLight {
    server: Server,
}

impl HttpLight {
    pub fn new(fx: &Fixture) -> HttpLight {
        let server = fx.boot_pooled(1);
        for i in 0..8 {
            let _ = light_request(server.addr(), i);
        }
        HttpLight { server }
    }
}

/// Request `i` of the cycle; `Err` says what was wrong with the answer.
fn light_request(addr: SocketAddr, i: usize) -> Result<Reply, String> {
    let (method, path, body, status, marker) = match i % 4 {
        0 => ("GET", "/api/health", None, 200, "\"status\":\"ok\""),
        1 => ("GET", "/api/models", None, 200, MODEL_NAME),
        2 => ("GET", "/metrics", None, 200, "http_requests_total"),
        _ => (
            "POST",
            "/api/generate",
            Some("{\"ingredients\":[]}"),
            400,
            "\"error\"",
        ),
    };
    let reply = exchange(addr, method, path, body)?;
    if reply.status != status {
        return Err(format!(
            "{method} {path}: status {} (expected {status})",
            reply.status
        ));
    }
    if !reply.body.contains(marker) {
        return Err(format!("{method} {path}: body lacks `{marker}`"));
    }
    if path != "/metrics" && json::parse(&reply.body).is_err() {
        return Err(format!("{method} {path}: body is not JSON"));
    }
    Ok(reply)
}

impl Workload for HttpLight {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass {
        let addr = self.server.addr();
        let mut pass = Pass::default();
        let cpu0 = thread_cpu_ms();
        let start = now_ns();
        let deadline = start + (seconds * 1e9) as u64;
        let mut i = 0;
        while now_ns() < deadline {
            match light_request(addr, i) {
                Ok(reply) => {
                    let s = reply.stamps;
                    pass.latencies_ms
                        .push((s.done_ns - s.start_ns) as f64 / 1e6);
                    if traced {
                        client_spans(&mut pass.spans, i as u64, s.start_ns, &reply, 0, now_ns());
                    }
                }
                Err(e) => {
                    if pass.failed == 0 {
                        println!("pass: first failure — {e}");
                    }
                    pass.failed += 1;
                }
            }
            i += 1;
        }
        pass.wall_s = (now_ns() - start) as f64 / 1e9;
        pass.client_cpu_ms = thread_cpu_ms() - cpu0;
        println!(
            "pass: {} sent, {} succeeded, {} failed in {:.3} s",
            pass.attempted(),
            pass.latencies_ms.len(),
            pass.failed,
            pass.wall_s
        );
        pass
    }

    /// Every response was checked as it arrived; there is no generated
    /// text to replay.
    fn verify(&mut self, _pass: &Pass, _max_checks: usize) -> (usize, usize) {
        (0, 0)
    }

    fn stop(self: Box<Self>) {
        self.server.stop();
    }
}

/// Median round trip of `GET /healthz`, the floor under every served
/// request, in ms.
pub fn healthz_roundtrip_p50_ms(addr: SocketAddr) -> f64 {
    let samples: Vec<f64> = (0..40)
        .filter_map(|_| exchange(addr, "GET", "/healthz", None).ok())
        .filter(|r| r.status == 200 && r.body == "ok")
        .map(|r| (r.stamps.done_ns - r.stamps.start_ns) as f64 / 1e6)
        .collect();
    crate::stats::median(samples)
}
