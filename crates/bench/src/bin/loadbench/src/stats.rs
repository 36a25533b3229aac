//! Order statistics, the output digest, and the process's own resource
//! counters read from `/proc`.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile —
/// the rule for reporting a tail percentile at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v), 50.0)
}

/// FNV-1a over byte strings, fed in request order.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Nanoseconds on the benchmark's own monotonic clock.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Linux reports process times in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`).
const TICK_MS: f64 = 10.0;

/// utime + stime from a `/proc/<...>/stat` line, in milliseconds.
fn stat_cpu_ms(stat: &str) -> Option<f64> {
    // The command name may hold spaces; fields are counted after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_MS)
}

/// User + system CPU of the whole process so far (exited threads
/// included), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ms(&s))
        .unwrap_or(0.0)
}

/// CPU of the calling thread in milliseconds, at nanosecond resolution
/// where the kernel offers `schedstat`.
pub fn thread_cpu_ms() -> f64 {
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = s
            .split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse::<f64>().ok())
        {
            return ns / 1e6;
        }
    }
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_ms(&s))
        .unwrap_or(0.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident memory over a timed section: the kernel's high-water
/// mark, reset at the start where `/proc/self/clear_refs` allows it, and
/// otherwise the larger of the resident size at the start and at the end.
pub struct PeakRss {
    kernel_reset: bool,
    start_kb: f64,
}

impl PeakRss {
    pub fn start() -> PeakRss {
        let kernel_reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        PeakRss {
            kernel_reset,
            start_kb: status_kb("VmRSS:").unwrap_or(0.0),
        }
    }

    pub fn peak_mb(self) -> f64 {
        let kb = if self.kernel_reset {
            status_kb("VmHWM:").unwrap_or(0.0)
        } else {
            self.start_kb.max(status_kb("VmRSS:").unwrap_or(0.0))
        };
        kb / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(200, 95.0));
        assert!(!tail_supported(199, 95.0));
        assert!(!tail_supported(260, 99.0));
        assert!(tail_supported(1000, 99.0));
    }

    #[test]
    fn fnv_matches_reference_and_separates_fields() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c before the separator step.
        let mut h = Fnv::new();
        h.write(b"a");
        let expect = (0xaf63_dc4c_8601_ec8c_u64 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(h.finish(), expect);
        let (mut x, mut y) = (Fnv::new(), Fnv::new());
        x.write(b"ab");
        x.write(b"c");
        y.write(b"a");
        y.write(b"bc");
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn stat_line_with_spaces_in_command() {
        let line = "42 (load bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(stat_cpu_ms(line), Some(3000.0));
    }
}
