//! The Ratatouille HTTP API: the backend half of Figs. 4–5.
//!
//! Endpoints:
//! * `GET  /`             — the embedded single-page frontend;
//! * `GET  /api/health`   — liveness + worker count + routes;
//! * `GET  /api/models`   — the serving model's card;
//! * `POST /api/generate` — `{"ingredients": ["flour", …]}` (at most 32
//!   names of at most 64 bytes each, else 400) →
//!   `{"title", "ingredients", "instructions", "model", "latency_ms"}`;
//! * `GET  /healthz`      — bare-text liveness probe;
//! * `GET  /metrics`      — the `obs` registry in Prometheus text format;
//! * `GET  /debug/requests`        — completed request-trace summaries;
//! * `GET  /debug/requests/<id>`   — one request's full phase timeline;
//! * `GET  /debug/trace?fmt=chrome` — Chrome trace-event JSON of every
//!   retained request (open in `chrome://tracing` or Perfetto).
//!
//! Every server shape answers from the same route table over the same
//! [`Engine`]; the API is generic over the backend traits
//! ([`RecipeBackend`], [`StepBackend`]) so this crate stays free of model
//! dependencies, and the `ratatouille` crate plugs the real models in.

use std::sync::Arc;

use obs::reqtrace::TraceSink;

use crate::batch::{
    AdmitOutcome, BatchServerConfig, Engine, GenRequest, StepBackend, StepBackendFactory,
    SubmitError,
};
use crate::frontend;
use crate::http::{HttpServer, Request, Response, StatusCode};
use crate::json::Json;
use crate::router::Router;

/// A structured recipe produced by a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedRecipe {
    /// Recipe title.
    pub title: String,
    /// Ingredient lines ("2 cups flour").
    pub ingredients: Vec<String>,
    /// Instruction steps.
    pub instructions: Vec<String>,
    /// Whether the generation passed structural validation.
    pub well_formed: bool,
}

/// A recipe-generation backend replica that decodes one request at a
/// time. Each engine thread builds its own via [`RecipeBackendFactory`].
pub trait RecipeBackend {
    /// Generate the recipe for one request. Its dtype is one of
    /// [`Self::dtypes`]; its seed, when pinned, names one recipe (same
    /// seed, same bytes); its trace and enqueue stamp ride in `req.meta`
    /// for the decode loop's TTFT and per-step records.
    fn generate_request(&mut self, req: &GenRequest) -> GeneratedRecipe;

    /// Model card name ("GPT-2 medium").
    fn model_name(&self) -> String;

    /// The weight dtypes this backend can serve; the first entry is the
    /// default when a request names none. The server validates
    /// `?dtype=…` against this set at request time (400 otherwise).
    fn dtypes(&self) -> Vec<String> {
        vec!["f32".to_string()]
    }

    /// [`Self::generate_request`] for an untraced, unseeded f32 request.
    fn generate(&mut self, ingredients: &[String]) -> GeneratedRecipe {
        self.generate_seeded(ingredients, "f32", None)
    }

    /// [`Self::generate_request`] for an untraced request.
    fn generate_seeded(
        &mut self,
        ingredients: &[String],
        dtype: &str,
        seed: Option<u64>,
    ) -> GeneratedRecipe {
        self.generate_request(&GenRequest::untraced(ingredients, dtype, seed))
    }
}

/// Thread-safe factory producing per-thread backend replicas.
pub type RecipeBackendFactory = Arc<dyn Fn(usize) -> Box<dyn RecipeBackend> + Send + Sync>;

/// A [`RecipeBackend`] replica as a one-slot [`StepBackend`]: `step()`
/// runs the whole admitted request, so solo decode pays no per-token
/// engine cost.
struct OneSlot {
    backend: Box<dyn RecipeBackend>,
    admitted: Option<GenRequest>,
}

impl StepBackend for OneSlot {
    fn model_name(&self) -> String {
        self.backend.model_name()
    }

    fn dtypes(&self) -> Vec<String> {
        self.backend.dtypes()
    }

    fn admit_request(&mut self, req: &GenRequest) -> AdmitOutcome {
        if self.admitted.is_some() {
            return AdmitOutcome::BatchFull;
        }
        // Pickup is the admission; no KV cache, so both args are 0.
        req.meta.record(obs::reqtrace::Phase::Admit, 0, 0);
        self.admitted = Some(req.clone());
        AdmitOutcome::Admitted(0)
    }

    fn step(&mut self) -> Vec<(u64, GeneratedRecipe)> {
        match self.admitted.take() {
            Some(req) => vec![(0, self.backend.generate_request(&req))],
            None => Vec::new(),
        }
    }

    fn active(&self) -> usize {
        usize::from(self.admitted.is_some())
    }

    fn free_slots(&self) -> usize {
        1 - self.active()
    }
}

/// Connections allowed beyond what the engine can hold: room for
/// `/metrics`, `/healthz`, the debug routes, and for generate requests
/// over capacity to be told so by the engine rather than the acceptor.
const CONNECTION_HEADROOM: usize = 16;

/// The assembled Ratatouille API server: one [`Engine`] behind one
/// route table.
pub struct ApiServer {
    server: HttpServer,
    engine: Arc<Engine>,
}

impl ApiServer {
    /// Boot the replicated stack — the engine at `K × 1`: `workers`
    /// engine threads (the paper's "replicate the docker" axis), each
    /// decoding one request at a time on its own `factory(k)` replica.
    ///
    /// `addr` like `"127.0.0.1:0"`; `queue_cap` bounds the shared
    /// request queue (overflow → 503).
    pub fn start(
        addr: &str,
        workers: usize,
        queue_cap: usize,
        factory: RecipeBackendFactory,
    ) -> std::io::Result<ApiServer> {
        let replica = move |k| {
            Box::new(OneSlot {
                backend: factory(k),
                admitted: None,
            }) as Box<dyn StepBackend>
        };
        Self::serve(addr, Engine::start(workers, queue_cap, Arc::new(replica))?)
    }

    /// Boot the continuous-batching stack — the engine at `1 × B`: one
    /// replica whose `B` slots share every decode step, requests
    /// joining and leaving between token steps. Same routes as
    /// [`ApiServer::start`].
    pub fn start_batched(
        addr: &str,
        cfg: BatchServerConfig,
        factory: StepBackendFactory,
    ) -> std::io::Result<ApiServer> {
        let replica = move |_| factory();
        Self::serve(addr, Engine::start(1, cfg.queue_cap, Arc::new(replica))?)
    }

    fn serve(addr: &str, engine: Engine) -> std::io::Result<ApiServer> {
        let engine = Arc::new(engine);
        let router = build_router(Arc::clone(&engine));
        // Every request the engine holds keeps its connection open, so the
        // bound sits above the engine's capacity: its own 503 and 429 stay
        // reachable, and the cheap routes answer while it is full.
        let max_connections = engine.capacity() + CONNECTION_HEADROOM;
        let server = HttpServer::start(addr, max_connections, move |req| router.dispatch(&req))?;
        Ok(ApiServer { server, engine })
    }

    /// Bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The model this server serves.
    pub fn model_name(&self) -> &str {
        self.engine.model_name()
    }

    /// Graceful shutdown: stop accepting, let every accepted request
    /// answer, then close the engine and join its threads.
    pub fn stop(self) {
        self.server.stop();
        drop(self.engine);
    }
}

/// The route table, registered once for every server shape.
fn build_router(engine: Arc<Engine>) -> Router {
    let health = Json::object(vec![
        ("status", Json::string("ok")),
        ("workers", Json::Number(engine.threads() as f64)),
    ])
    .to_string();
    let models = Json::object(vec![
        ("models", Json::string_array(&[engine.model_name()])),
        ("dtypes", Json::string_array(engine.dtypes())),
    ])
    .to_string();
    Router::new()
        .route("GET", "/", |_req| Response::html(frontend::INDEX_HTML))
        .route("GET", "/api/health", move |_req| {
            Response::json(StatusCode::Ok, health.clone())
        })
        .route("GET", "/api/models", move |_req| {
            Response::json(StatusCode::Ok, models.clone())
        })
        .route("POST", "/api/generate", move |req| handle_generate(req, &engine))
        .route("GET", "/healthz", |_req| {
            Response::text(StatusCode::Ok, "ok")
        })
        .route("GET", "/metrics", |_req| Response {
            status: StatusCode::Ok,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: obs::metrics::render_prometheus().into_bytes(),
        })
        .route("GET", "/debug/requests", handle_debug_requests)
        .route_prefix("GET", "/debug/requests/", handle_debug_request_detail)
        .route("GET", "/debug/trace", handle_debug_trace)
}

/// A JSON `{"error": …}` body under `status`.
fn error_json(status: StatusCode, msg: impl Into<String>) -> Response {
    Response::json(
        status,
        Json::object(vec![("error", Json::string(msg))]).to_string(),
    )
}

fn handle_generate(req: &Request, engine: &Engine) -> Response {
    let dtypes = engine.dtypes();
    let default_dtype = dtypes.first().map_or("f32", String::as_str);
    let dtype = query_param(&req.query, "dtype").unwrap_or(default_dtype);
    if !dtypes.iter().any(|d| d == dtype) {
        return error_json(
            StatusCode::BadRequest,
            format!(
                "unsupported dtype `{dtype}`; this model serves: {}",
                dtypes.join(", ")
            ),
        );
    }
    let (ingredients, seed) = match parse_generate_body(req) {
        Ok(ok) => ok,
        Err(resp) => return resp,
    };
    // Open the request's queue span before handing off to the engine
    // (`tests/serving_integration.rs` asserts `enqueue` precedes `admit`).
    if let Some(t) = &req.trace {
        t.record_phase(obs::reqtrace::Phase::Enqueue, 0, 0);
    }
    let submitted = engine.submit(GenRequest {
        ingredients,
        dtype: dtype.to_string(),
        seed,
        // `submit` takes the enqueue stamp.
        meta: obs::reqtrace::TraceMeta {
            trace: req.trace.clone(),
            ..Default::default()
        },
    });
    match submitted {
        Ok(out) => {
            let body = Json::object(vec![
                ("title", Json::string(out.recipe.title)),
                ("ingredients", Json::string_array(&out.recipe.ingredients)),
                ("instructions", Json::string_array(&out.recipe.instructions)),
                ("well_formed", Json::Bool(out.recipe.well_formed)),
                ("model", Json::string(engine.model_name())),
                ("dtype", Json::string(dtype)),
                ("latency_ms", Json::Number(out.latency_ms)),
            ]);
            Response::json(StatusCode::Ok, body.to_string())
        }
        Err(SubmitError::QueueFull) => {
            error_json(StatusCode::ServiceUnavailable, "server overloaded, retry")
        }
        Err(SubmitError::PoolExhausted) => error_json(
            StatusCode::TooManyRequests,
            "KV cache exhausted; shrink the request or retry later",
        ),
        Err(e @ (SubmitError::ReplicaPanicked | SubmitError::Closed)) => {
            error_json(StatusCode::InternalServerError, e.to_string())
        }
    }
}

/// The most ingredients one generate request may name.
const MAX_INGREDIENTS: usize = 32;

/// The longest ingredient one generate request may name, in UTF-8 bytes
/// (the ontology's longest name is 20). With [`MAX_INGREDIENTS`] this
/// bounds a prompt at about 2 KiB, so its K/V fits a replica: unbounded,
/// one 256 KB spaceless ingredient encoded to 157,287 prompt tokens,
/// about 640 MB of f32 K/V pushed through one stream.
const MAX_INGREDIENT_BYTES: usize = 64;

/// Parse a generate request body: a non-empty `"ingredients"` string
/// array of at most [`MAX_INGREDIENTS`] names of at most
/// [`MAX_INGREDIENT_BYTES`] each, plus an optional non-negative integer
/// `"seed"`. Errors arrive as ready 400s, before the request is queued
/// or encoded.
fn parse_generate_body(req: &Request) -> Result<(Vec<String>, Option<u64>), Response> {
    let bad = |msg: String| error_json(StatusCode::BadRequest, msg);
    let parsed = match Json::parse(&req.body_str()) {
        Ok(v) => v,
        Err(e) => return Err(bad(format!("invalid json: {e}"))),
    };
    let ingredients = parsed
        .get("ingredients")
        .map(Json::as_string_vec)
        .unwrap_or_default();
    if ingredients.is_empty() {
        return Err(bad(
            "`ingredients` must be a non-empty array of strings".to_string(),
        ));
    }
    if ingredients.len() > MAX_INGREDIENTS {
        return Err(bad(format!(
            "{} ingredients; a request names at most {MAX_INGREDIENTS}",
            ingredients.len()
        )));
    }
    if let Some(long) = ingredients.iter().find(|i| i.len() > MAX_INGREDIENT_BYTES) {
        return Err(bad(format!(
            "an ingredient of {} bytes; each is at most {MAX_INGREDIENT_BYTES}",
            long.len()
        )));
    }
    let seed = match parsed.get("seed") {
        None => None,
        Some(v) => match v.as_f64() {
            Some(s) if s >= 0.0 && s.fract() == 0.0 && s <= u64::MAX as f64 => Some(s as u64),
            _ => return Err(bad("`seed` must be a non-negative integer".to_string())),
        },
    };
    Ok((ingredients, seed))
}

/// First value for `key` in a `k=v&k2=v2` query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// `GET /debug/requests` — JSON summaries of every retained completed
/// trace (bounded ring + slow-request reservoir), newest first.
fn handle_debug_requests(_req: &Request) -> Response {
    let traces = obs::reqtrace::completed();
    let mut items = Vec::with_capacity(traces.len());
    for t in &traces {
        let phases = t.phases();
        let decode_steps = phases
            .iter()
            .filter(|p| p.phase == obs::reqtrace::Phase::DecodeStep)
            .count();
        // HTTP status from the final `respond` record (absent only if
        // the phase log overflowed before the response was written).
        let status = phases
            .iter()
            .rev()
            .find(|p| p.phase == obs::reqtrace::Phase::Respond)
            .map_or(Json::Null, |p| Json::Number(p.a as f64));
        items.push(Json::object(vec![
            ("id", Json::Number(t.id() as f64)),
            ("start_ns", Json::Number(t.start_ns() as f64)),
            ("duration_ns", Json::Number(t.duration_ns() as f64)),
            ("phases", Json::Number(phases.len() as f64)),
            ("decode_steps", Json::Number(decode_steps as f64)),
            ("dropped", Json::Number(t.dropped() as f64)),
            ("status", status),
        ]));
    }
    let body = Json::object(vec![("requests", Json::Array(items))]);
    Response::json(StatusCode::Ok, body.to_string())
}

/// `GET /debug/requests/<id>` — one request's full phase timeline, with
/// per-phase argument names from [`obs::reqtrace::Phase::arg_keys`].
fn handle_debug_request_detail(req: &Request) -> Response {
    let id = match req
        .path
        .strip_prefix("/debug/requests/")
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(id) => id,
        None => {
            return Response::json(
                StatusCode::BadRequest,
                Json::object(vec![(
                    "error",
                    Json::string("trace id must be an integer"),
                )])
                .to_string(),
            )
        }
    };
    let Some(t) = obs::reqtrace::find(id) else {
        return Response::json(
            StatusCode::NotFound,
            Json::object(vec![(
                "error",
                Json::string(format!(
                    "trace {id} not retained (ring keeps the last {}, \
                     the reservoir the {} slowest)",
                    obs::reqtrace::RING_CAPACITY,
                    obs::reqtrace::SLOW_CAPACITY
                )),
            )])
            .to_string(),
        );
    };
    let timeline: Vec<Json> = t
        .phases()
        .iter()
        .map(|p| {
            let (ka, kb) = p.phase.arg_keys();
            Json::object(vec![
                ("phase", Json::string(p.phase.name())),
                ("at_ns", Json::Number(p.at_ns as f64)),
                (ka, Json::Number(p.a as f64)),
                (kb, Json::Number(p.b as f64)),
            ])
        })
        .collect();
    let body = Json::object(vec![
        ("id", Json::Number(t.id() as f64)),
        ("start_ns", Json::Number(t.start_ns() as f64)),
        ("done_ns", Json::Number(t.done_ns() as f64)),
        ("duration_ns", Json::Number(t.duration_ns() as f64)),
        ("dropped", Json::Number(t.dropped() as f64)),
        ("timeline", Json::Array(timeline)),
    ]);
    Response::json(StatusCode::Ok, body.to_string())
}

/// `GET /debug/trace?fmt=chrome` — every retained trace as Chrome
/// trace-event JSON (load in `chrome://tracing` or Perfetto).
fn handle_debug_trace(req: &Request) -> Response {
    match query_param(&req.query, "fmt") {
        None | Some("chrome") => Response {
            status: StatusCode::Ok,
            content_type: "application/json".into(),
            body: obs::reqtrace::chrome_trace_json().into_bytes(),
        },
        Some(other) => Response::json(
            StatusCode::BadRequest,
            Json::object(vec![(
                "error",
                Json::string(format!("unknown trace format `{other}`; try fmt=chrome")),
            )])
            .to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    /// A deterministic toy backend for API tests.
    struct EchoBackend;

    /// The test replicas' recipe. A pantry over the request bounds must
    /// never reach a replica; one that does panics it (a 500).
    fn echo(ingredients: &[String]) -> GeneratedRecipe {
        assert!(
            ingredients.len() <= MAX_INGREDIENTS
                && ingredients.iter().all(|i| i.len() <= MAX_INGREDIENT_BYTES),
            "a pantry over the request bounds reached a replica"
        );
        GeneratedRecipe {
            title: format!("{} delight", ingredients[0]),
            ingredients: ingredients.iter().map(|i| format!("1 cup {i}")).collect(),
            instructions: vec![format!("mix the {}", ingredients.join(" and "))],
            well_formed: true,
        }
    }

    impl RecipeBackend for EchoBackend {
        fn generate_request(&mut self, req: &GenRequest) -> GeneratedRecipe {
            echo(&req.ingredients)
        }

        fn model_name(&self) -> String {
            "echo-model".into()
        }
    }

    fn boot() -> ApiServer {
        ApiServer::start(
            "127.0.0.1:0",
            2,
            8,
            Arc::new(|_| Box::new(EchoBackend) as Box<dyn RecipeBackend>),
        )
        .unwrap()
    }

    #[test]
    fn health_and_models() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, body) = client.get("/api/health").unwrap();
        assert_eq!(status, 200);
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("workers").unwrap().as_f64(), Some(2.0));

        let (status, body) = client.get("/api/models").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("echo-model"));
        srv.stop();
    }

    #[test]
    fn generate_roundtrip() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, body) = client
            .post_json("/api/generate", r#"{"ingredients":["flour","water"]}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("flour delight"));
        assert_eq!(
            v.get("ingredients").unwrap().as_string_vec(),
            vec!["1 cup flour", "1 cup water"]
        );
        assert_eq!(v.get("model").unwrap().as_str(), Some("echo-model"));
        assert!(v.get("latency_ms").unwrap().as_f64().unwrap() >= 0.0);
        srv.stop();
    }

    /// One body of 20,000 `[`s recursed the parser past a handler
    /// thread's stack and aborted the process; it must be a 400, and the
    /// server must go on serving.
    #[test]
    fn deeply_nested_body_is_a_400_and_the_server_survives() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, body) = client.post_json("/api/generate", &"[".repeat(20_000)).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting"), "{body}");
        let (status, body) = client
            .post_json("/api/generate", r#"{"ingredients":["flour"]}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        srv.stop();
    }

    /// Pantries over the bounds — one near-`MAX_BODY` ingredient, one
    /// ingredient a byte too long, one ingredient too many — are 400s on
    /// both server shapes, and a pantry at the bounds and the next normal
    /// request are 200s.
    #[test]
    fn oversized_pantry_is_a_400_on_both_servers() {
        let replicated = boot();
        let batched = ApiServer::start_batched(
            "127.0.0.1:0",
            BatchServerConfig::default(),
            Arc::new(|| Box::<EchoStepBackend>::default() as Box<dyn StepBackend>),
        )
        .unwrap();
        let pantry = |names: Vec<String>| {
            let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            format!(r#"{{"ingredients":[{}]}}"#, quoted.join(","))
        };
        let huge = pantry(vec!["a".repeat(crate::http::MAX_BODY - 64)]);
        assert!(huge.len() < crate::http::MAX_BODY);
        let too_long = pantry(vec!["b".repeat(MAX_INGREDIENT_BYTES + 1)]);
        let too_many = pantry(vec!["salt".to_string(); MAX_INGREDIENTS + 1]);
        let at_bounds = pantry(vec!["é".repeat(MAX_INGREDIENT_BYTES / 2); MAX_INGREDIENTS]);
        for srv in [&replicated, &batched] {
            let client = HttpClient::new(srv.addr());
            let over = [(&huge, "bytes"), (&too_long, "bytes"), (&too_many, "ingredients")];
            for (body, what) in over {
                let (status, reply) = client.post_json("/api/generate", body).unwrap();
                assert_eq!(status, 400, "{reply}");
                assert!(reply.contains(what), "{reply}");
            }
            let (status, reply) = client.post_json("/api/generate", &at_bounds).unwrap();
            assert_eq!(status, 200, "{reply}");
            let (status, reply) = client
                .post_json("/api/generate", r#"{"ingredients":["flour"]}"#)
                .unwrap();
            assert_eq!(status, 200, "{reply}");
        }
        replicated.stop();
        batched.stop();
    }

    #[test]
    fn generate_rejects_bad_input() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, _) = client.post_json("/api/generate", "not json").unwrap();
        assert_eq!(status, 400);
        let (status, body) = client.post_json("/api/generate", r#"{}"#).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("ingredients"));
        let (status, _) = client
            .post_json("/api/generate", r#"{"ingredients":[]}"#)
            .unwrap();
        assert_eq!(status, 400);
        srv.stop();
    }

    #[test]
    fn frontend_served_at_root() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, body) = client.get("/").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("<html"), "frontend missing");
        assert!(body.contains("Ratatouille"));
        srv.stop();
    }

    /// A backend with an int8 variant that stamps the dtype it used into
    /// the title.
    struct DtypeBackend;

    impl RecipeBackend for DtypeBackend {
        fn generate_request(&mut self, req: &GenRequest) -> GeneratedRecipe {
            GeneratedRecipe {
                title: format!("{} via {}", req.ingredients[0], req.dtype),
                ingredients: req.ingredients.clone(),
                instructions: vec!["cook".into()],
                well_formed: true,
            }
        }

        fn model_name(&self) -> String {
            "dtype-model".into()
        }

        fn dtypes(&self) -> Vec<String> {
            vec!["f32".into(), "int8".into()]
        }
    }

    #[test]
    fn dtype_query_routes_to_variant() {
        let srv = ApiServer::start(
            "127.0.0.1:0",
            1,
            4,
            Arc::new(|_| Box::new(DtypeBackend) as Box<dyn RecipeBackend>),
        )
        .unwrap();
        let client = HttpClient::new(srv.addr());

        // default dtype is the first supported one
        let (status, body) = client
            .post_json("/api/generate", r#"{"ingredients":["rice"]}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("rice via f32"));
        assert_eq!(v.get("dtype").unwrap().as_str(), Some("f32"));

        // explicit ?dtype=int8 reaches the quantized path and is echoed
        let (status, body) = client
            .post_json("/api/generate?dtype=int8", r#"{"ingredients":["rice"]}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("rice via int8"));
        assert_eq!(v.get("dtype").unwrap().as_str(), Some("int8"));

        // unsupported dtype is a client error, not a worker crash
        let (status, body) = client
            .post_json("/api/generate?dtype=fp4", r#"{"ingredients":["rice"]}"#)
            .unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("unsupported dtype"));

        // the model card lists the supported set
        let (status, body) = client.get("/api/models").unwrap();
        assert_eq!(status, 200);
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("dtypes").unwrap().as_string_vec(),
            vec!["f32", "int8"]
        );
        srv.stop();
    }

    #[test]
    fn dtype_defaults_dont_break_plain_backends() {
        // EchoBackend keeps the trait's default dtype set: f32 only, and
        // asking for int8 is a 400.
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, body) = client
            .post_json("/api/generate?dtype=int8", r#"{"ingredients":["flour"]}"#)
            .unwrap();
        assert_eq!(status, 400, "{body}");
        let (_, body) = client.get("/api/models").unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("dtypes").unwrap().as_string_vec(), vec!["f32"]);
        srv.stop();
    }

    /// The echo model as a [`StepBackend`]: every admitted request
    /// finishes in the next step.
    #[derive(Default)]
    struct EchoStepBackend {
        admitted: Vec<(u64, GenRequest)>,
        next_id: u64,
    }

    impl StepBackend for EchoStepBackend {
        fn model_name(&self) -> String {
            "echo-model".into()
        }

        fn admit_request(&mut self, req: &GenRequest) -> AdmitOutcome {
            self.next_id += 1;
            self.admitted.push((self.next_id, req.clone()));
            AdmitOutcome::Admitted(self.next_id)
        }

        fn step(&mut self) -> Vec<(u64, GeneratedRecipe)> {
            let done = self.admitted.drain(..);
            done.map(|(id, req)| (id, echo(&req.ingredients))).collect()
        }

        fn active(&self) -> usize {
            self.admitted.len()
        }

        fn free_slots(&self) -> usize {
            4 - self.admitted.len()
        }
    }

    #[test]
    fn both_backend_traits_are_served_by_the_one_router() {
        let replicated = ApiServer::start(
            "127.0.0.1:0",
            1,
            8,
            Arc::new(|_| Box::new(EchoBackend) as Box<dyn RecipeBackend>),
        )
        .unwrap();
        let batched = ApiServer::start_batched(
            "127.0.0.1:0",
            BatchServerConfig::default(),
            Arc::new(|| Box::<EchoStepBackend>::default() as Box<dyn StepBackend>),
        )
        .unwrap();
        let (a, b) = (
            HttpClient::new(replicated.addr()),
            HttpClient::new(batched.addr()),
        );
        for path in ["/api/health", "/api/models", "/nope", "/api/stats", "/debug/stacks"] {
            assert_eq!(a.get(path).unwrap(), b.get(path).unwrap(), "GET {path}");
        }
        for path in ["/nope", "/api/stats", "/debug/stacks"] {
            assert_eq!(a.get(path).unwrap().0, 404, "GET {path}");
        }
        let body = r#"{"ingredients":["flour"]}"#;
        let bad = a.post_json("/api/generate?dtype=int8", body).unwrap();
        assert_eq!(bad.0, 400);
        assert!(bad.1.contains("this model serves: f32"), "{}", bad.1);
        assert_eq!(bad, b.post_json("/api/generate?dtype=int8", body).unwrap());
        // Same recipe too; only the measured latency may differ.
        let recipes = [&a, &b].map(|c| {
            let (status, body) = c.post_json("/api/generate", body).unwrap();
            assert_eq!(status, 200, "{body}");
            let v = Json::parse(&body).unwrap();
            assert!(v.get("latency_ms").unwrap().as_f64().unwrap() > 0.0);
            ["title", "model", "dtype"].map(|k| v.get(k).unwrap().as_str().map(String::from))
        });
        assert_eq!(recipes[0], recipes[1]);
        replicated.stop();
        batched.stop();
    }

    /// Blocks each request until the test lets it through; a pantry
    /// starting with "boom" panics instead.
    struct GatedBackend {
        started: std::sync::mpsc::Sender<()>,
        release: Arc<std::sync::Mutex<std::sync::mpsc::Receiver<()>>>,
    }

    impl RecipeBackend for GatedBackend {
        fn generate_request(&mut self, req: &GenRequest) -> GeneratedRecipe {
            assert_ne!(req.ingredients[0], "boom", "scripted replica panic");
            self.started.send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            echo(&req.ingredients)
        }

        fn model_name(&self) -> String {
            "gated-model".into()
        }
    }

    #[test]
    fn full_queue_is_503_panic_is_500_and_stop_answers_what_was_accepted() {
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let srv = ApiServer::start(
            "127.0.0.1:0",
            1,
            1,
            Arc::new(move |_| {
                Box::new(GatedBackend {
                    started: started_tx.clone(),
                    release: Arc::clone(&release_rx),
                }) as Box<dyn RecipeBackend>
            }),
        )
        .unwrap();
        let addr = srv.addr();
        let post = move |pantry: &str| {
            let body = format!(r#"{{"ingredients":["{pantry}"]}}"#);
            HttpClient::new(addr)
                .post_json("/api/generate", &body)
                .unwrap()
        };

        // A replica panic is this request's 500; the next one is served
        // by the rebuilt replica.
        let (status, body) = post("boom");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");

        // One request in flight, one queued: the third finds the queue
        // full.
        let in_flight = std::thread::spawn(move || post("first"));
        started.recv().unwrap();
        let queued = std::thread::spawn(move || post("second"));
        while srv.engine.queued() == 0 {
            std::thread::yield_now();
        }
        let (status, body) = post("third");
        assert_eq!(status, 503, "{body}");

        // `stop()` with one in flight and one queued answers both.
        release.send(()).unwrap();
        release.send(()).unwrap();
        srv.stop();
        for (h, title) in [(in_flight, "first delight"), (queued, "second delight")] {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "{body}");
            assert!(body.contains(title), "{body}");
        }
    }

    #[test]
    fn debug_requests_expose_the_full_trace_timeline() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, headers, _) = client
            .post_json_with_headers("/api/generate", r#"{"ingredients":["kale"]}"#)
            .unwrap();
        assert_eq!(status, 200);
        let id: u64 = headers
            .iter()
            .find(|(k, _)| k == "x-trace-id")
            .and_then(|(_, v)| v.parse().ok())
            .expect("x-trace-id header on a traced response");

        // The summary list retains the request.
        let (status, body) = client.get("/debug/requests").unwrap();
        assert_eq!(status, 200);
        let v = Json::parse(&body).unwrap();
        let ids: Vec<f64> = v
            .get("requests")
            .and_then(|r| r.as_array().map(|a| a.to_vec()))
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("id").and_then(Json::as_f64))
            .collect();
        assert!(ids.contains(&(id as f64)), "{body}");

        // The detail view reconstructs the lifecycle in order: the
        // pooled path records accept → enqueue → admit → respond.
        let (status, body) = client.get(&format!("/debug/requests/{id}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(id as f64));
        assert!(v.get("duration_ns").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
        let phases: Vec<String> = v
            .get("timeline")
            .and_then(|t| t.as_array().map(|a| a.to_vec()))
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("phase").and_then(|p| p.as_str().map(str::to_string)))
            .collect();
        assert_eq!(
            phases,
            vec!["accept", "enqueue", "admit", "respond"],
            "{body}"
        );

        // Unknown ids 404, garbage ids 400.
        let (status, _) = client.get("/debug/requests/999999999").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client.get("/debug/requests/not-a-number").unwrap();
        assert_eq!(status, 400);

        // The Chrome export is a JSON array of complete events.
        let (status, body) = client.get("/debug/trace?fmt=chrome").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        assert!(Json::parse(&body).is_ok(), "chrome export must parse");
        let (status, _) = client.get("/debug/trace?fmt=svg").unwrap();
        assert_eq!(status, 400);
        srv.stop();
    }

    #[test]
    fn unknown_route_404() {
        let srv = boot();
        let client = HttpClient::new(srv.addr());
        let (status, _) = client.get("/nope").unwrap();
        assert_eq!(status, 404);
        srv.stop();
    }
}
