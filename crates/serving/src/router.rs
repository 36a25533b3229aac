//! Method + path routing.

use std::collections::BTreeMap;
use std::sync::Arc;

use obs::metrics::Counter;

use crate::http::{Request, Response, StatusCode};

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A handler and its `http_route_hits_total{route=…}` series, resolved
/// once at registration, so dispatch never touches the metrics registry.
/// Cardinality is bounded by the set of registered routes; unmatched
/// paths are deliberately not labeled (unbounded).
#[derive(Clone)]
struct Route {
    handler: Handler,
    hits: Arc<Counter>,
}

impl Route {
    fn new(label: &str, handler: Handler) -> Route {
        let hits = obs::metrics::counter(&format!("http_route_hits_total{{route=\"{label}\"}}"));
        Route { handler, hits }
    }

    fn call(&self, req: &Request) -> Response {
        self.hits.inc();
        (self.handler)(req)
    }
}

/// Routes `(METHOD, /path)` pairs to handlers. Unknown paths get 404;
/// known paths with the wrong method get 405.
#[derive(Clone, Default)]
pub struct Router {
    /// Exact routes: path, then method.
    routes: BTreeMap<String, BTreeMap<String, Route>>,
    /// Prefix-matched routes (`/debug/requests/<id>`), tried after exact
    /// matches, longest prefix first.
    prefix_routes: Vec<(String, String, Route)>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a handler.
    pub fn route<F>(mut self, method: &str, path: &str, handler: F) -> Self
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let method = method.to_ascii_uppercase();
        let route = Route::new(&format!("{method} {path}"), Arc::new(handler));
        self.routes
            .entry(path.to_string())
            .or_default()
            .insert(method, route);
        self
    }

    /// Register a handler for every path starting with `prefix` (the
    /// handler parses the remainder itself, e.g. the `<id>` suffix of
    /// `/debug/requests/<id>`). Exact routes win over prefixes; among
    /// prefixes, the longest match wins.
    pub fn route_prefix<F>(mut self, method: &str, prefix: &str, handler: F) -> Self
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let method = method.to_ascii_uppercase();
        // Labeled by the registered prefix, not the request path: the
        // suffix (`<id>`) is client-chosen and unbounded.
        let route = Route::new(&format!("{method} {prefix}*"), Arc::new(handler));
        self.prefix_routes.push((method, prefix.to_string(), route));
        self.prefix_routes
            .sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.1.cmp(&b.1)));
        self
    }

    /// Dispatch a request. `OPTIONS` on any registered path answers the
    /// CORS preflight (the decoupled-frontend contract).
    pub fn dispatch(&self, req: &Request) -> Response {
        let exact = self.routes.get(req.path.as_str());
        if let Some(route) = exact.and_then(|methods| methods.get(req.method.as_str())) {
            return route.call(req);
        }
        let mut prefix_hit = false;
        for (method, prefix, route) in &self.prefix_routes {
            if !req.path.starts_with(prefix.as_str()) {
                continue;
            }
            prefix_hit = true;
            if req.method == *method {
                return route.call(req);
            }
        }
        if exact.is_some() || prefix_hit {
            if req.method == "OPTIONS" {
                return Response::preflight();
            }
            return Response::text(StatusCode::MethodNotAllowed, "method not allowed");
        }
        Response::text(StatusCode::NotFound, "not found")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: String::new(),
            headers: vec![],
            body: vec![],
            trace: None,
        }
    }

    #[test]
    fn dispatches_by_method_and_path() {
        let r = Router::new()
            .route("GET", "/a", |_| Response::text(StatusCode::Ok, "get-a"))
            .route("POST", "/a", |_| Response::text(StatusCode::Ok, "post-a"));
        assert_eq!(r.dispatch(&req("GET", "/a")).body, b"get-a");
        assert_eq!(r.dispatch(&req("POST", "/a")).body, b"post-a");
    }

    #[test]
    fn unknown_path_404() {
        let r = Router::new().route("GET", "/a", |_| Response::text(StatusCode::Ok, "x"));
        assert_eq!(r.dispatch(&req("GET", "/zzz")).status, StatusCode::NotFound);
    }

    #[test]
    fn wrong_method_405() {
        let r = Router::new().route("GET", "/a", |_| Response::text(StatusCode::Ok, "x"));
        assert_eq!(
            r.dispatch(&req("DELETE", "/a")).status,
            StatusCode::MethodNotAllowed
        );
    }

    #[test]
    fn options_preflight_on_registered_paths() {
        let r = Router::new().route("POST", "/api/generate", |_| {
            Response::text(StatusCode::Ok, "x")
        });
        let resp = r.dispatch(&req("OPTIONS", "/api/generate"));
        assert_eq!(resp.status, StatusCode::Ok);
        let wire = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(wire.contains("Access-Control-Allow-Origin: *"));
        assert!(wire.contains("Access-Control-Allow-Methods"));
        // unknown path still 404s even for OPTIONS
        assert_eq!(
            r.dispatch(&req("OPTIONS", "/nope")).status,
            StatusCode::NotFound
        );
    }

    #[test]
    fn method_is_case_insensitive_at_registration() {
        let r = Router::new().route("get", "/a", |_| Response::text(StatusCode::Ok, "x"));
        assert_eq!(r.dispatch(&req("GET", "/a")).status, StatusCode::Ok);
    }

    #[test]
    fn prefix_route_matches_suffixed_paths() {
        let r = Router::new()
            .route("GET", "/debug/requests", |_| {
                Response::text(StatusCode::Ok, "list")
            })
            .route_prefix("GET", "/debug/requests/", |req| {
                Response::text(StatusCode::Ok, format!("one:{}", req.path))
            });
        // Exact route wins for the bare path…
        assert_eq!(r.dispatch(&req("GET", "/debug/requests")).body, b"list");
        // …the prefix route takes any suffix…
        assert_eq!(
            r.dispatch(&req("GET", "/debug/requests/17")).body,
            b"one:/debug/requests/17"
        );
        // …wrong method on a prefix match is 405, not 404…
        assert_eq!(
            r.dispatch(&req("POST", "/debug/requests/17")).status,
            StatusCode::MethodNotAllowed
        );
        // …and unrelated paths still 404.
        assert_eq!(r.dispatch(&req("GET", "/debug/req")).status, StatusCode::NotFound);
    }

    /// The `http_route_hits_total` series of `route`, read without
    /// registering it.
    fn hits(route: &str) -> Option<u64> {
        let series = format!("http_route_hits_total{{route=\"{route}\"}} ");
        obs::metrics::render_prometheus()
            .lines()
            .find_map(|l| l.strip_prefix(series.as_str())?.parse().ok())
    }

    #[test]
    fn route_hits_count_exact_and_prefix_routes_from_zero() {
        let r = Router::new()
            .route("GET", "/router-hits", |_| {
                Response::text(StatusCode::Ok, "exact")
            })
            .route_prefix("get", "/router-hits/", |_| {
                Response::text(StatusCode::Ok, "prefix")
            });
        // Both series exist, at zero, before any request.
        assert_eq!(hits("GET /router-hits"), Some(0));
        assert_eq!(hits("GET /router-hits/*"), Some(0));

        for _ in 0..3 {
            assert_eq!(r.dispatch(&req("GET", "/router-hits")).body, b"exact");
        }
        for id in ["1", "2"] {
            let path = format!("/router-hits/{id}");
            assert_eq!(r.dispatch(&req("GET", &path)).body, b"prefix");
        }
        // Wrong method, preflight and unmatched paths count nowhere.
        r.dispatch(&req("POST", "/router-hits"));
        r.dispatch(&req("OPTIONS", "/router-hits/1"));
        assert_eq!(
            r.dispatch(&req("GET", "/router-hits-unmatched")).status,
            StatusCode::NotFound
        );
        assert_eq!(hits("GET /router-hits"), Some(3));
        assert_eq!(hits("GET /router-hits/*"), Some(2));
        // No series is minted from a request path.
        let text = obs::metrics::render_prometheus();
        for path in [
            "/router-hits/1",
            "/router-hits-unmatched",
            "POST /router-hits",
        ] {
            assert!(!text.contains(path), "{path} labels a series in:\n{text}");
        }
    }
}
