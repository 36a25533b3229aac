//! **Fig. 4 reproduction** — "Website interface to choose ingredients and
//! generate recipe".
//!
//! Boots the full serving stack (engine of model replicas + HTTP
//! server + embedded frontend), then exercises it the way the browser
//! would: health check, model card, and a generate request, printing the
//! JSON round trip.
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- fig4_web_generate
//! ```

use ratatouille::models::registry::ModelKind;
use ratatouille::serving::api::ApiServer;
use ratatouille::serving::client::HttpClient;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, train_row, Scale};

pub fn run() {
    let scale = Scale::from_env();
    eprintln!("[fig4] training a serving model ({scale:?} scale)…");
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    // the latency-friendly tier serves the demo
    let trained = train_row(&pipeline, ModelKind::DistilGpt2, scale);

    println!("FIG. 4 — WEB APPLICATION ROUND TRIP\n");
    let server = ApiServer::start("127.0.0.1:0", 2, 16, trained.backend_factory())
        .expect("server boot");
    println!("server listening on http://{}", server.addr());
    println!("worker replicas: 2 (the paper's \"replicate the docker\" axis)\n");

    let client = HttpClient::new(server.addr());

    let (status, body) = client.get("/api/health").expect("health");
    println!("GET /api/health        → {status}\n  {body}\n");

    let (status, body) = client.get("/api/models").expect("models");
    println!("GET /api/models        → {status}\n  {body}\n");

    let (status, body) = client.get("/").expect("frontend");
    println!(
        "GET /                  → {status} ({} bytes of embedded SPA)\n",
        body.len()
    );

    // A pinned seed: unseeded, each replica samples from its own RNG, so
    // the body would depend on which replica takes the request.
    let req = r#"{"ingredients":["chicken","rice","soy sauce","ginger"],"seed":42}"#;
    println!("POST /api/generate\n  ← {req}");
    let (status, body) = client.post_json("/api/generate", req).expect("generate");
    println!("  → {status}\n  {body}\n");

    // and an invalid request, to show the API's error contract
    let (status, body) = client.post_json("/api/generate", "{}").expect("bad req");
    println!("POST /api/generate (missing ingredients) → {status}\n  {body}");

    server.stop();
}
