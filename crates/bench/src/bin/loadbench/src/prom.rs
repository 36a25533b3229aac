//! Reads the program's `/metrics` text and takes differences between two
//! readings, which is how the benchmark sees inside a layer without
//! adding anything to it.

use std::collections::BTreeMap;

/// One reading of `/metrics`: series (name plus label set, as printed) to
/// value. Histogram bucket lines are stored as per-bucket counts rather
/// than the cumulative counts on the wire: the program prints only
/// non-empty buckets, so cumulative values of two readings cannot be
/// subtracted line by line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut map = BTreeMap::new();
        // Bucket lines of one histogram are contiguous and ascending.
        let mut prev: Option<(String, f64)> = None;
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let Some(le_at) = series.find("le=\"").filter(|_| series.contains("_bucket{")) else {
                map.insert(series.to_string(), value);
                prev = None;
                continue;
            };
            let histogram = &series[..le_at];
            let below = match &prev {
                Some((h, cum)) if h == histogram => *cum,
                _ => 0.0,
            };
            map.insert(series.to_string(), value - below);
            prev = Some((histogram.to_string(), value));
        }
        Scrape(map)
    }

    /// This reading minus an earlier one; a series absent earlier counts
    /// from zero.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of a counter family, e.g. all
    /// `decode_kv_hits_total{model=…}` series but not the unlabeled one.
    pub fn sum_labeled(&self, family: &str) -> f64 {
        let prefix = format!("{family}{{");
        self.0
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Upper bound of the bucket holding the `q`-quantile observation of
    /// the unlabeled histogram `family`; 0 when it saw nothing.
    pub fn histogram_quantile(&self, family: &str, q: f64) -> f64 {
        let prefix = format!("{family}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(k, count)| {
                let le = k[prefix.len()..].trim_end_matches("\"}");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, *count))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = buckets.iter().map(|b| b.1).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut seen = 0.0;
        for (le, count) in buckets {
            seen += count;
            if seen >= rank {
                return le;
            }
        }
        0.0
    }

    /// Mean observation of the unlabeled histogram `family`.
    pub fn histogram_mean(&self, family: &str) -> f64 {
        let count = self.get(&format!("{family}_count"));
        if count > 0.0 {
            self.get(&format!("{family}_sum")) / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE decode_kv_hits_total counter
decode_kv_hits_total 10
decode_kv_hits_total{model=\"gpt-2-medium\"} 10
# TYPE q_ns histogram
q_ns_bucket{le=\"15\"} 2
q_ns_bucket{le=\"+Inf\"} 2
q_ns_sum 20
q_ns_count 2
q_ns_bucket{model=\"m\",le=\"15\"} 1
q_ns_bucket{model=\"m\",le=\"+Inf\"} 1
q_ns_sum{model=\"m\"} 9
q_ns_count{model=\"m\"} 1
";

    const AFTER: &str = "\
# TYPE decode_kv_hits_total counter
decode_kv_hits_total 25
decode_kv_hits_total{model=\"gpt-2-medium\"} 25
# TYPE new_total counter
new_total 3
# TYPE q_ns histogram
q_ns_bucket{le=\"7\"} 4
q_ns_bucket{le=\"15\"} 6
q_ns_bucket{le=\"63\"} 16
q_ns_bucket{le=\"+Inf\"} 16
q_ns_sum 500
q_ns_count 16
q_ns_bucket{model=\"m\",le=\"15\"} 1
q_ns_bucket{model=\"m\",le=\"+Inf\"} 1
q_ns_sum{model=\"m\"} 9
q_ns_count{model=\"m\"} 1
";

    #[test]
    fn plain_and_labeled_counters_subtract() {
        let d = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        assert_eq!(d.get("decode_kv_hits_total"), 15.0);
        assert_eq!(d.get("decode_kv_hits_total{model=\"gpt-2-medium\"}"), 15.0);
        assert_eq!(d.sum_labeled("decode_kv_hits_total"), 15.0);
        assert_eq!(d.get("new_total"), 3.0);
        assert_eq!(d.get("absent"), 0.0);
    }

    #[test]
    fn histogram_buckets_subtract_per_bucket() {
        let d = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        // 14 new observations: 4 in le=7, 0 new in le=15, 10 in le=63.
        assert_eq!(d.get("q_ns_bucket{le=\"7\"}"), 4.0);
        assert_eq!(d.get("q_ns_bucket{le=\"15\"}"), 0.0);
        assert_eq!(d.get("q_ns_bucket{le=\"63\"}"), 10.0);
        assert_eq!(d.get("q_ns_count"), 14.0);
        assert_eq!(d.histogram_quantile("q_ns", 0.25), 7.0);
        assert_eq!(d.histogram_quantile("q_ns", 0.5), 63.0);
        assert_eq!(d.histogram_quantile("q_ns", 0.95), 63.0);
        assert!((d.histogram_mean("q_ns") - 480.0 / 14.0).abs() < 1e-9);
        // The labeled twin saw nothing new and does not leak into the
        // unlabeled quantile.
        assert_eq!(d.get("q_ns_count{model=\"m\"}"), 0.0);
        assert_eq!(d.histogram_quantile("idle_ns", 0.5), 0.0);
    }
}
