//! The overload series on `/metrics`, read back after a scripted
//! overload of a one-replica server. A binary of its own: the registry
//! is process-wide, so no other test's traffic moves these counters.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ratatouille_serving::api::{ApiServer, GeneratedRecipe, RecipeBackend};
use ratatouille_serving::batch::GenRequest;
use ratatouille_serving::client::HttpClient;

/// Signals each request it picks up, then holds it until released.
struct GatedBackend {
    started: Sender<String>,
    release: Arc<Mutex<Receiver<()>>>,
}

impl RecipeBackend for GatedBackend {
    fn generate_request(&mut self, req: &GenRequest) -> GeneratedRecipe {
        let pantry = req.ingredients[0].clone();
        self.started.send(pantry.clone()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        GeneratedRecipe {
            title: format!("{pantry} delight"),
            ingredients: req.ingredients.clone(),
            instructions: vec!["cook".into()],
            well_formed: true,
        }
    }

    fn model_name(&self) -> String {
        "gated-model".into()
    }
}

fn queue_depth() -> f64 {
    obs::metrics::gauge("serving_queue_depth").get()
}

#[test]
fn one_replica_overload_counts_each_503_and_drains_to_idle() {
    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    let release_rx = Arc::new(Mutex::new(release_rx));
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
    // Bound after the server, so a failed assertion drops it first: the
    // held replica then wakes, and the server's drop can drain.
    let release = release;
    let addr = srv.addr();
    let post = move |pantry: &str| {
        let body = format!(r#"{{"ingredients":["{pantry}"]}}"#);
        HttpClient::new(addr).post_json("/api/generate", &body).unwrap()
    };
    let rejections = obs::metrics::counter("serving_queue_rejections_total");
    let answered = obs::metrics::histogram("generate_latency_ns");
    let (rejected_before, answered_before) = (rejections.get(), answered.count());

    // One request in flight, one queued: the third finds the queue full.
    let in_flight = std::thread::spawn(move || post("first"));
    assert_eq!(started.recv().unwrap(), "first");
    let queued = std::thread::spawn(move || post("second"));
    for _ in 0..10_000 {
        if queue_depth() == 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(queue_depth(), 1.0, "the second request never queued");
    let (status, body) = post("third");
    assert_eq!(status, 503, "{body}");
    let overloaded = 1;
    assert_eq!(rejections.get() - rejected_before, overloaded);

    // Drain: each accepted request gets its own answer, exactly once.
    release.send(()).unwrap();
    assert_eq!(started.recv().unwrap(), "second");
    release.send(()).unwrap();
    for (h, title) in [(in_flight, "first delight"), (queued, "second delight")] {
        let (status, body) = h.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(title), "{body}");
    }
    assert_eq!(answered.count() - answered_before, 2);
    assert_eq!(queue_depth(), 0.0, "queue depth at idle");
    assert_eq!(rejections.get() - rejected_before, overloaded);
    srv.stop();
    assert!(started.try_recv().is_err(), "a replica picked up a request twice");
}
