//! Method + path routing.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::http::{Request, Response, StatusCode};

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Routes `(METHOD, /path)` pairs to handlers. Unknown paths get 404;
/// known paths with the wrong method get 405.
#[derive(Clone, Default)]
pub struct Router {
    routes: BTreeMap<(String, String), Handler>,
    /// Prefix-matched routes (`/debug/requests/<id>`), tried after exact
    /// matches, longest prefix first.
    prefix_routes: Vec<(String, String, Handler)>,
    paths: Vec<String>,
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
        self.routes.insert(
            (method.to_ascii_uppercase(), path.to_string()),
            Arc::new(handler),
        );
        if !self.paths.contains(&path.to_string()) {
            self.paths.push(path.to_string());
        }
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
        self.prefix_routes.push((
            method.to_ascii_uppercase(),
            prefix.to_string(),
            Arc::new(handler),
        ));
        self.prefix_routes
            .sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.1.cmp(&b.1)));
        self
    }

    /// Dispatch a request. `OPTIONS` on any registered path answers the
    /// CORS preflight (the decoupled-frontend contract).
    pub fn dispatch(&self, req: &Request) -> Response {
        if let Some(h) = self.routes.get(&(req.method.clone(), req.path.clone())) {
            // Per-route hit counter. Cardinality is bounded by the set of
            // registered routes, so the dynamic registry lookup is safe;
            // unmatched paths are deliberately not labeled (unbounded).
            obs::metrics::counter(&format!(
                "http_route_hits_total{{route=\"{} {}\"}}",
                req.method, req.path
            ))
            .inc();
            return h(req);
        }
        let mut prefix_hit = false;
        for (method, prefix, h) in &self.prefix_routes {
            if !req.path.starts_with(prefix.as_str()) {
                continue;
            }
            prefix_hit = true;
            if req.method == *method {
                // Label by the registered prefix, not the request path:
                // the suffix (`<id>`) is client-chosen and unbounded.
                obs::metrics::counter(&format!(
                    "http_route_hits_total{{route=\"{method} {prefix}*\"}}"
                ))
                .inc();
                return h(req);
            }
        }
        if self.paths.contains(&req.path) || prefix_hit {
            if req.method == "OPTIONS" {
                return Response::preflight();
            }
            return Response::text(StatusCode::MethodNotAllowed, "method not allowed");
        }
        Response::text(StatusCode::NotFound, "not found")
    }

    /// Registered paths (for the health endpoint's route listing).
    pub fn paths(&self) -> &[String] {
        &self.paths
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
}
