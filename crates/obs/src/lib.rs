//! Zero-dependency observability: clock, metrics registry, tracing spans.
//!
//! `obs` is the repo's telemetry layer and its *only* wall-clock
//! authority (see [`clock`]). It provides:
//!
//! * [`metrics`] — lock-free counters, gauges and log-linear latency
//!   histograms behind a name-keyed registry, rendered in Prometheus text
//!   format by [`metrics::render_prometheus`] (served at `GET /metrics`);
//! * [`trace`] — hierarchical RAII spans aggregated into a
//!   flamegraph-compatible folded-stacks dump;
//! * [`reqtrace`] — per-request phase traces (lock-free on the decode
//!   path) with a bounded completed ring and a slow-request reservoir,
//!   serving `/debug/requests` and Chrome trace-event export;
//! * [`Clock`]/[`Stamp`] — monotonic stamps, re-exported from [`clock`].
//!
//! # Determinism contract
//!
//! Instrumentation is always on, yet cannot affect results: stamps,
//! counters and spans are write-only telemetry — no computation reads
//! them back. `clippy.toml` enforces the boundary by banning
//! `Instant::now()` and `SystemTime` in the instrumented crates (the
//! `scripts/ci.sh` clippy step, which leaves obs out), so any new timing
//! necessarily flows through here.
//!
//! # Usage
//!
//! ```
//! // a cached-handle counter and histogram at a hot call site
//! obs::static_counter!("doc_requests_total").inc();
//! let start = obs::Clock::now();
//! // ... work ...
//! obs::static_histogram!("doc_request_ns").observe(start.elapsed_ns());
//!
//! // a hierarchical span (records on scope exit)
//! let _span = obs::span!("doc.example");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod reqtrace;
pub mod trace;

pub use clock::{Clock, Stamp};

/// Open a tracing span for the current scope: `let _s = obs::span!("x");`.
/// Expands to [`trace::span`]; the guard records the span when dropped.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

/// A [`metrics::Counter`] handle cached per call site (registry lookup
/// runs once): `obs::static_counter!("reqs_total").inc();`.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// A [`metrics::Gauge`] handle cached per call site:
/// `obs::static_gauge!("queue_depth").add(1.0);`.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// A [`metrics::Histogram`] handle cached per call site:
/// `obs::static_histogram!("step_ns").observe(ns);`.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_and_record() {
        for _ in 0..3 {
            crate::static_counter!("obs_test_macro_counter").inc();
        }
        assert_eq!(crate::metrics::counter("obs_test_macro_counter").get(), 3);

        crate::static_gauge!("obs_test_macro_gauge").set(4.5);
        assert_eq!(crate::metrics::gauge("obs_test_macro_gauge").get(), 4.5);

        crate::static_histogram!("obs_test_macro_hist").observe(42);
        assert_eq!(crate::metrics::histogram("obs_test_macro_hist").count(), 1);

        let start = crate::Clock::now();
        {
            let _s = crate::span!("obs_test_macro_span");
        }
        assert!(start.elapsed_secs() >= 0.0);
    }
}
