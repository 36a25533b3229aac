//! Spans recorded by the benchmark around its calls into each layer:
//! kept in memory during the traced pass, written out afterwards as
//! Chrome trace JSON, and summed into a per-name budget of self time.

use std::collections::BTreeMap;

use crate::json::quote;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Request (or recipe) the span belongs to.
    pub request: u64,
    /// A count taken at the same boundary (batch size, tokens); 0 if none.
    pub count: u64,
}

/// One thread's spans. Logs are merged after the threads join.
#[derive(Debug, Default)]
pub struct SpanLog(pub Vec<Span>);

impl SpanLog {
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
        count: u64,
    ) -> usize {
        self.0.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            count,
        });
        self.0.len() - 1
    }

    /// Append another thread's log, keeping its parent links valid.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.0.len();
        self.0.extend(other.0.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover. Children are clipped to the parent
    /// and overlapping children are counted once.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                let parent = &self.0[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.0
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self time summed by span name. A span that has children is an
    /// envelope: its own self time — what its children leave unexplained —
    /// goes to the `unattributed` row instead of a row of its own.
    pub fn budget(&self) -> Budget {
        let mut has_child = vec![false; self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut total_ns = 0;
        for (i, (s, self_ns)) in self.0.iter().zip(self.self_times_ns()).enumerate() {
            if s.parent.is_none() {
                total_ns += s.end_ns - s.start_ns;
            }
            let row = rows
                .entry(if has_child[i] { "unattributed" } else { s.name })
                .or_default();
            row.0 += self_ns;
            row.1 += 1;
        }
        rows.entry("unattributed").or_default();
        Budget { rows, total_ns }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, one track per request.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"count\":{}}}}}",
                quote(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.count,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Where the wall time of the traced requests went.
pub struct Budget {
    /// name → (self time, span count).
    pub rows: BTreeMap<&'static str, (u64, u64)>,
    /// Summed duration of the root spans.
    pub total_ns: u64,
}

impl Budget {
    pub fn unattributed_share(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.rows["unattributed"].0 as f64 / self.total_ns as f64
    }

    pub fn print(&self, workload: &str) {
        println!(
            "budget {workload}: self time per span name over {:.1} ms of requests",
            self.total_ns as f64 / 1e6
        );
        for (name, (ns, count)) in &self.rows {
            let share = if self.total_ns > 0 {
                *ns as f64 / self.total_ns as f64
            } else {
                0.0
            };
            println!(
                "budget {workload}: {name:<22} {:>10.3} ms {:>6.1}% n={count}",
                *ns as f64 / 1e6,
                share * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let mut log = SpanLog::default();
        let root = log.push("request", 0, 100, None, 1, 0);
        let a = log.push("a", 10, 40, Some(root), 1, 0);
        log.push("a.inner", 15, 25, Some(a), 1, 0);
        // b overlaps a by 10 and sticks out of the root by 20.
        log.push("b", 30, 120, Some(root), 1, 0);
        // c lies wholly inside what a and b already cover.
        log.push("c", 35, 38, Some(root), 1, 0);
        assert_eq!(log.self_times_ns(), vec![10, 20, 10, 90, 3]);

        // The root and `a` have children, so their self time is what
        // nothing explains; the leaves keep rows of their own.
        let budget = log.budget();
        assert_eq!(budget.total_ns, 100);
        assert_eq!(budget.rows["unattributed"], (30, 2));
        assert_eq!(budget.rows["a.inner"], (10, 1));
        assert_eq!(budget.rows["b"], (90, 1));
        assert!(!budget.rows.contains_key("a"));
        assert!((budget.unattributed_share() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut one = SpanLog::default();
        one.push("request", 0, 10, None, 1, 0);
        let mut two = SpanLog::default();
        let r = two.push("request", 0, 10, None, 2, 0);
        two.push("child", 2, 4, Some(r), 2, 0);
        one.merge(two);
        assert_eq!(one.0[2].parent, Some(1));
        assert_eq!(one.self_times_ns(), vec![10, 8, 2]);
    }

    #[test]
    fn chrome_export_is_a_json_array_of_complete_events() {
        let mut log = SpanLog::default();
        let r = log.push("request", 1_000, 5_000, None, 7, 0);
        log.push("step", 2_000, 3_000, Some(r), 7, 8);
        let parsed = crate::json::parse(&log.chrome_json()).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(events[1].get("dur").and_then(|v| v.as_f64()), Some(1.0));
        assert!(SpanLog::default()
            .budget()
            .rows
            .contains_key("unattributed"));
    }
}
