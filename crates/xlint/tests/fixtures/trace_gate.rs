//! Seeded trace-before-backend violations: the hand-offs on lines 6 and
//! 17 give the request to the engine before recording any trace phase.
//! The traced handler, the worker helper and the span-free handler are clean.

fn handle_generate(engine: &Engine, job: Job) -> Response {
    engine.submit(job)
}

fn handle_generate_traced(req: &Request, engine: &Engine, job: Job) -> Response {
    if let Some(t) = &req.trace {
        t.record_phase(Phase::Enqueue, 0, 0);
    }
    engine.submit(job)
}

fn handle_generate_late(req: &Request, engine: &Engine, job: Job) -> Response {
    let out = engine.submit(job);
    req.trace.record_phase(Phase::Enqueue, 0, 0);
    out
}

fn requeue_worker(engine: &Engine, job: Job) -> Response {
    engine.submit(job)
}

fn handle_healthz() -> Response {
    render_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn handle_exempt() {
        engine().submit(job());
    }
}
