//! # ratatouille-serving
//!
//! The Ratatouille web application (§VI of the paper), rebuilt in Rust:
//!
//! * [`http`] — an HTTP/1.1 server on `std::net::TcpListener`, written
//!   from scratch (no framework), with keep-alive-free request/response
//!   handling and graceful shutdown;
//! * [`json`] — a hand-rolled JSON parser/serializer (the offline crate
//!   whitelist has `serde` but not `serde_json`; a recipe API needs JSON);
//! * [`router`] — method + path routing;
//! * [`batch`] — the serving engine every request goes through: `K`
//!   threads, each owning a full model replica with `B` decode slots,
//!   over one bounded queue (`Mutex<VecDeque>` + `Condvar`). The paper
//!   decouples the React frontend from the Flask backend with
//!   "microservices … if load increases then developer only need to
//!   replicate the docker"; that is the engine at `K × 1`. Continuous
//!   batching — requests joining and leaving a shared multi-sequence
//!   decode between token steps — is the same loop at `1 × B`;
//! * [`api`] — one route table and one generate handler over that
//!   engine, for either backend trait;
//! * [`frontend`] — the embedded single-page UI (Fig. 4);
//! * [`client`] — a tiny blocking HTTP client for tests, examples and the
//!   CLI.
#![warn(missing_docs)]


pub mod api;
pub mod batch;
pub mod client;
pub mod frontend;
pub mod http;
pub mod json;
pub mod router;

pub use api::{ApiServer, GeneratedRecipe, RecipeBackend};
pub use batch::{
    AdmitOutcome, BatchServerConfig, Engine, GenOut, GenRequest, ReplicaFactory, StepBackend,
    StepBackendFactory, SubmitError,
};
pub use http::{HttpServer, Request, Response, StatusCode};
pub use json::Json;
pub use router::Router;
