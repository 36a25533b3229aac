//! The lock-free metrics registry.
//!
//! Three metric kinds, all safe to hammer from any thread:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`;
//! * [`Gauge`] — an `f64` (stored as bits in an `AtomicU64`) that can be
//!   set or adjusted;
//! * [`Histogram`] — 256 log-linear buckets of `AtomicU64` (16 exact
//!   buckets for values 0–15, then 4 linear sub-buckets per power of
//!   two), plus sum and count.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex once per
//! unique name and hands back an `Arc` handle; the *observation* path is
//! pure atomics. Hot call sites should cache the handle — the
//! [`static_counter!`](crate::static_counter),
//! [`static_gauge!`](crate::static_gauge) and
//! [`static_histogram!`](crate::static_histogram) macros do that with a
//! per-call-site `OnceLock`.
//!
//! Names follow Prometheus conventions and may carry a fixed label set
//! inline: `http_requests_total{class="2xx"}` registers an independent
//! series whose exposition groups under the `http_requests_total` family.
//! Keep label values low-cardinality and derived from registered routes /
//! status classes, never from request payloads.
//!
//! [`render_prometheus`] produces the text exposition format (served at
//! `GET /metrics`) in deterministic (sorted-name) order, in one pass into
//! one buffer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge (last-write-wins set, CAS-loop add).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjust the gauge by `d` (atomically, via compare-exchange).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets (see [`bucket_index`]).
const BUCKETS: usize = 256;

/// Map a sample to its log-linear bucket: values 0–15 get exact buckets;
/// above that, each power-of-two octave is split into 4 linear
/// sub-buckets (relative resolution ≤ 25% across the full `u64` range).
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= 4
    let sub = (v >> (msb - 2)) & 3;
    (16 + (msb - 4) * 4 + sub) as usize
}

/// Inclusive lower bound of bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx < 16 {
        return idx as u64;
    }
    let o = 4 + (idx - 16) as u64 / 4;
    let sub = (idx - 16) as u64 % 4;
    (1u64 << o) + sub * (1u64 << (o - 2))
}

/// Inclusive upper bound of bucket `idx`.
fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(idx + 1) - 1
    }
}

/// A log-linear-bucket histogram of `u64` samples (typically ns).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram {{ count: {}, sum: {} }}",
            self.count(),
            self.sum()
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples observed so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    match registry().lock() {
        Ok(g) => g,
        // A panic while holding the registry lock cannot corrupt the map
        // (all mutations are single inserts); keep serving metrics.
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn get_or_register(name: &str, make: impl FnOnce() -> Metric) -> Metric {
    let mut reg = lock_registry();
    if let Some(m) = reg.get(name) {
        return m.clone();
    }
    let m = make();
    reg.insert(name.to_string(), m.clone());
    m
}

/// Sanitize a display name into a Prometheus label value: lowercase
/// alphanumerics pass through, everything else collapses to `-` (runs
/// collapse to one, edges trimmed). `"GPT-2 medium [int8]"` becomes
/// `"gpt-2-medium-int8"`. Used to build inline-label twins like
/// `generate_latency_ns{model="distilgpt2"}` from model card names.
pub fn label_value(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Get or register the counter `name`. Panics if `name` is already
/// registered as a different metric kind (a programming error).
pub fn counter(name: &str) -> Arc<Counter> {
    match get_or_register(name, || Metric::Counter(Arc::new(Counter::default()))) {
        Metric::Counter(c) => c,
        // xlint: allow(transitive-panic-in-request-path): a kind mismatch is a compile-time-class programming error; any test touching the metric trips it immediately
        other => panic!("metric `{name}` already registered as {}", other.kind()),
    }
}

/// Get or register the gauge `name`. Panics on a kind mismatch.
pub fn gauge(name: &str) -> Arc<Gauge> {
    match get_or_register(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
        Metric::Gauge(g) => g,
        // xlint: allow(transitive-panic-in-request-path): a kind mismatch is a compile-time-class programming error; any test touching the metric trips it immediately
        other => panic!("metric `{name}` already registered as {}", other.kind()),
    }
}

/// Get or register the histogram `name`. Panics on a kind mismatch.
pub fn histogram(name: &str) -> Arc<Histogram> {
    match get_or_register(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
        Metric::Histogram(h) => h,
        // xlint: allow(transitive-panic-in-request-path): a kind mismatch is a compile-time-class programming error; any test touching the metric trips it immediately
        other => panic!("metric `{name}` already registered as {}", other.kind()),
    }
}

/// The metric *family* (name without the inline label set).
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Append the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Append `v` the way Prometheus expects floats: integral values below
/// 1e15 print bare (`-0.0` as `0`), everything else through `f64`'s
/// `Display` (`NaN`, `inf`, shortest round-trip digits).
fn push_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        let i = v as i64;
        if i < 0 {
            out.push('-');
        }
        push_u64(out, i.unsigned_abs());
    } else {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v}");
    }
}

/// Length of the last exposition, so the next one allocates once.
static LAST_RENDER_LEN: AtomicUsize = AtomicUsize::new(0);

/// Render the whole registry in the Prometheus text exposition format
/// (`text/plain; version=0.0.4`), families and series in deterministic
/// name order. Histograms emit cumulative `_bucket{le=...}` lines for
/// non-empty buckets plus `+Inf`, `_sum` and `_count`.
pub fn render_prometheus() -> String {
    let mut out = String::with_capacity(LAST_RENDER_LEN.load(Ordering::Relaxed));
    render_into(&mut out, &lock_registry());
    LAST_RENDER_LEN.store(out.len(), Ordering::Relaxed);
    out
}

/// Append the exposition of `reg` to `out`: one pass, `&str` pieces and
/// digits pushed straight into the buffer.
fn render_into(out: &mut String, reg: &BTreeMap<String, Metric>) {
    let mut last_family = "";
    for (name, m) in reg {
        let fam = family(name);
        if fam != last_family {
            out.push_str("# TYPE ");
            out.push_str(fam);
            out.push(' ');
            out.push_str(m.kind());
            out.push('\n');
            last_family = fam;
        }
        match m {
            Metric::Counter(c) => {
                out.push_str(name);
                out.push(' ');
                push_u64(out, c.get());
                out.push('\n');
            }
            Metric::Gauge(g) => {
                out.push_str(name);
                out.push(' ');
                push_f64(out, g.get());
                out.push('\n');
            }
            Metric::Histogram(h) => {
                // Inline labels from the series name must survive on every
                // emitted line: `le` merges into the existing label set on
                // bucket lines, `_sum`/`_count` carry the set verbatim.
                let labels = &name[fam.len()..];
                let (open, le) = if labels.is_empty() {
                    ("", "{le=\"")
                } else {
                    (&labels[..labels.len() - 1], ",le=\"")
                };
                let bucket_line = |out: &mut String| {
                    out.push_str(fam);
                    out.push_str("_bucket");
                    out.push_str(open);
                    out.push_str(le);
                };
                let mut cum = 0u64;
                for idx in 0..BUCKETS {
                    let c = h.buckets[idx].load(Ordering::Relaxed);
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    bucket_line(out);
                    push_u64(out, bucket_upper(idx));
                    out.push_str("\"} ");
                    push_u64(out, cum);
                    out.push('\n');
                }
                bucket_line(out);
                out.push_str("+Inf\"} ");
                push_u64(out, h.count());
                out.push('\n');
                for (suffix, v) in [("_sum", h.sum()), ("_count", h.count())] {
                    out.push_str(fam);
                    out.push_str(suffix);
                    out.push_str(labels);
                    out.push(' ');
                    push_u64(out, v);
                    out.push('\n');
                }
            }
        }
    }
}

/// The renderer `render_into` replaced, kept as its oracle: one
/// `format!` per line, `String` pieces per label set and value.
#[cfg(test)]
mod reference {
    use ratatouille_util::proptest::prelude::*;

    use super::*;

    /// Render `v` the way Prometheus expects floats (no exponent tricks
    /// needed at our magnitudes; integral values print bare).
    fn fmt_f64(v: f64) -> String {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }

    fn render(reg: &BTreeMap<String, Metric>) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, m) in reg.iter() {
            let fam = family(name);
            if fam != last_family {
                out.push_str(&format!("# TYPE {fam} {}\n", m.kind()));
                last_family = fam.to_string();
            }
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", fmt_f64(g.get())));
                }
                Metric::Histogram(h) => {
                    let labels = &name[fam.len()..];
                    let bucket_labels = |le: &str| {
                        if labels.is_empty() {
                            format!("{{le=\"{le}\"}}")
                        } else {
                            format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                        }
                    };
                    let mut cum = 0u64;
                    for idx in 0..BUCKETS {
                        let c = h.buckets[idx].load(Ordering::Relaxed);
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        out.push_str(&format!(
                            "{fam}_bucket{} {cum}\n",
                            bucket_labels(&bucket_upper(idx).to_string())
                        ));
                    }
                    out.push_str(&format!("{fam}_bucket{} {}\n", bucket_labels("+Inf"), h.count()));
                    out.push_str(&format!("{fam}_sum{labels} {}\n", h.sum()));
                    out.push_str(&format!("{fam}_count{labels} {}\n", h.count()));
                }
            }
        }
        out
    }

    /// Families that share prefixes, so a labeled series can sort after
    /// another family (`m_x` < `m{…}`) and its family's `# TYPE` repeats.
    const FAMILIES: [&str; 6] = ["m", "m_total", "m_x", "mm", "obs_latency_ns", "z"];
    const LABELS: [&str; 4] = [
        "",
        "{class=\"2xx\"}",
        "{model=\"gpt2\",dtype=\"int8\"}",
        "{route=\"GET /debug/requests/*\"}",
    ];
    const GAUGES: [f64; 22] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -2.2e-308,
        1e15 - 1.0,
        1e15,
        1e15 + 1.0,
        -(1e15 - 1.0),
        -1e15,
        -(1e15 + 1.0),
        -1.0,
        -42.0,
        i64::MIN as f64,
        1.5,
        -0.1,
        f64::MAX,
        f64::MIN_POSITIVE,
        1e21,
        123456.789,
    ];

    /// One registry entry: family, label set, kind, a selector, a raw
    /// value, and histogram samples as (shape, raw) pairs.
    type Entry = (usize, usize, u8, usize, u64, Vec<(u8, u64)>);

    fn sample(shape: u8, raw: u64) -> u64 {
        match shape {
            0 => raw % 16,
            1 => raw,
            2 => u64::MAX,
            _ => raw >> (raw % 64),
        }
    }

    /// A private registry from `entries`; an entry whose name is taken
    /// records into the metric already there, whatever its kind.
    fn registry_of(entries: &[Entry]) -> BTreeMap<String, Metric> {
        let mut reg = BTreeMap::new();
        for &(fam, labels, kind, pick, raw, ref samples) in entries {
            let name = format!("{}{}", FAMILIES[fam], LABELS[labels]);
            let m = reg.entry(name).or_insert_with(|| match kind {
                0 => Metric::Counter(Arc::default()),
                1 => Metric::Gauge(Arc::default()),
                _ => Metric::Histogram(Arc::default()),
            });
            match m {
                Metric::Counter(c) => c.add(match pick % 4 {
                    0 => raw,
                    1 => u64::MAX - raw % 16,
                    2 => raw % 100,
                    _ => 0,
                }),
                Metric::Gauge(g) => g.set(match pick % 3 {
                    0 => GAUGES[pick % GAUGES.len()],
                    1 => f64::from_bits(raw),
                    _ => -((raw % 1_000_000) as f64),
                }),
                Metric::Histogram(h) => {
                    for &(shape, raw) in samples {
                        h.observe(sample(shape, raw));
                    }
                }
            }
        }
        reg
    }

    fn entry() -> impl Strategy<Value = Entry> {
        (
            0..FAMILIES.len(),
            0..LABELS.len(),
            0u8..3,
            0..GAUGES.len() * 3,
            any::<u64>(),
            collection::vec((0u8..4, any::<u64>()), 0..24),
        )
    }

    fn render_new(reg: &BTreeMap<String, Metric>) -> String {
        let mut out = String::new();
        render_into(&mut out, reg);
        out
    }

    proptest! {
        cases = 256;

        #[test]
        fn render_into_matches_reference(entries in collection::vec(entry(), 0..16)) {
            let reg = registry_of(&entries);
            prop_assert_eq!(render_new(&reg), render(&reg));
        }
    }

    /// Every gauge edge value, `u64::MAX` counters and samples, and a
    /// labeled and an unlabeled histogram reaching bucket 255.
    #[test]
    fn edge_values_match_reference() {
        let mut reg = BTreeMap::new();
        for (i, &v) in GAUGES.iter().enumerate() {
            let g = Arc::new(Gauge::default());
            g.set(v);
            reg.insert(format!("g{i:02}"), Metric::Gauge(g));
        }
        let c = Arc::new(Counter::default());
        c.add(u64::MAX);
        reg.insert("c_total{class=\"5xx\"}".to_string(), Metric::Counter(c));
        for name in ["h", "h{model=\"gpt2\",dtype=\"int8\"}"] {
            let h = Arc::new(Histogram::default());
            for v in [0, 15, 16, 1 << 40, u64::MAX] {
                h.observe(v);
            }
            reg.insert(name.to_string(), Metric::Histogram(h));
        }
        let text = render_new(&reg);
        assert_eq!(text, render(&reg));
        for line in [
            "g00 NaN\n",
            "g01 inf\n",
            "g02 -inf\n",
            "g03 0\n",
            "g07 999999999999999\n",
            "g08 1000000000000000\n",
            "g12 -1000000000000001\n",
            "c_total{class=\"5xx\"} 18446744073709551615\n",
            "h_bucket{le=\"18446744073709551615\"} 5\n",
            "h_bucket{model=\"gpt2\",dtype=\"int8\",le=\"+Inf\"} 5\n",
        ] {
            assert!(text.contains(line), "no {line:?} in:\n{text}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Point-in-time view of a [`Histogram`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct HistogramSnapshot {
        count: u64,
        sum: u64,
        p50: u64,
        p90: u64,
        p99: u64,
    }

    impl Histogram {
        /// Quantile estimate: the upper bound of the bucket holding the
        /// `q`-th fraction of samples (0 when empty). Error is bounded by
        /// the bucket's ≤ 25% relative width.
        fn quantile(&self, q: f64) -> u64 {
            let counts: Vec<u64> = self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let total: u64 = counts.iter().sum();
            if total == 0 {
                return 0;
            }
            let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
            let mut cum = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return bucket_upper(idx);
                }
            }
            bucket_upper(BUCKETS - 1)
        }

        fn snapshot(&self) -> HistogramSnapshot {
            HistogramSnapshot {
                count: self.count(),
                sum: self.sum(),
                p50: self.quantile(0.50),
                p90: self.quantile(0.90),
                p99: self.quantile(0.99),
            }
        }
    }

    #[test]
    fn bucket_scheme_is_monotone_and_total() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            assert!(idx >= last, "bucket index must not decrease at v={v}");
            assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx), "v={v} idx={idx}");
            last = idx;
        }
        // boundaries: every bucket's upper + 1 == next bucket's lower
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(idx) + 1, bucket_lower(idx + 1), "idx={idx}");
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        // p50 of 1..=1000 is ~500; log-linear error bound is ≤ 25%
        assert!((375..=640).contains(&s.p50), "p50={}", s.p50);
        assert!(s.p99 >= 900, "p99={}", s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.p99), (0, 0, 0, 0));
    }

    #[test]
    fn registry_handles_are_shared_and_typed() {
        let c1 = counter("obs_test_shared_counter");
        let c2 = counter("obs_test_shared_counter");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        let g = gauge("obs_test_gauge");
        g.set(1.5);
        g.add(-0.5);
        assert!((g.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _ = counter("obs_test_kind_clash");
        let _ = gauge("obs_test_kind_clash");
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        counter("obs_test_render_b").add(7);
        gauge("obs_test_render_a").set(2.0);
        histogram("obs_test_render_h").observe(100);
        let text = render_prometheus();
        assert!(text.contains("# TYPE obs_test_render_a gauge"));
        assert!(text.contains("obs_test_render_a 2\n"));
        assert!(text.contains("# TYPE obs_test_render_b counter"));
        assert!(text.contains("obs_test_render_b 7\n"));
        assert!(text.contains("# TYPE obs_test_render_h histogram"));
        assert!(text.contains("obs_test_render_h_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("obs_test_render_h_sum 100"));
        assert!(text.contains("obs_test_render_h_count 1"));
        // sorted family order
        let a = text.find("obs_test_render_a").unwrap();
        let b = text.find("obs_test_render_b").unwrap();
        assert!(a < b);
    }

    #[test]
    fn labeled_series_group_under_one_family() {
        counter("obs_test_labeled_total{class=\"2xx\"}").inc();
        counter("obs_test_labeled_total{class=\"5xx\"}").add(2);
        let text = render_prometheus();
        assert_eq!(
            text.matches("# TYPE obs_test_labeled_total counter").count(),
            1
        );
        assert!(text.contains("obs_test_labeled_total{class=\"2xx\"} 1"));
        assert!(text.contains("obs_test_labeled_total{class=\"5xx\"} 2"));
    }

    #[test]
    fn labeled_histogram_keeps_labels_on_every_line() {
        histogram("obs_test_labeled_h{model=\"gpt2\",dtype=\"int8\"}").observe(17);
        let text = render_prometheus();
        assert_eq!(text.matches("# TYPE obs_test_labeled_h histogram").count(), 1);
        // bucket lines merge `le` into the existing label set…
        assert!(
            text.contains("obs_test_labeled_h_bucket{model=\"gpt2\",dtype=\"int8\",le=\"+Inf\"} 1"),
            "missing merged +Inf bucket in:\n{text}"
        );
        assert!(text.contains("obs_test_labeled_h_bucket{model=\"gpt2\",dtype=\"int8\",le=\""));
        // …and _sum/_count carry the label set verbatim
        assert!(text.contains("obs_test_labeled_h_sum{model=\"gpt2\",dtype=\"int8\"} 17"));
        assert!(text.contains("obs_test_labeled_h_count{model=\"gpt2\",dtype=\"int8\"} 1"));
        // an unlabeled histogram still renders bare le-only labels
        histogram("obs_test_unlabeled_h").observe(3);
        let text = render_prometheus();
        assert!(text.contains("obs_test_unlabeled_h_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("obs_test_unlabeled_h_sum 3"));
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let h = histogram("obs_test_concurrent_h");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
