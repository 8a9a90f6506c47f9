//! Statistics and bookkeeping shared by every workload: percentiles,
//! fingerprints, `VmHWM` parsing, open-loop schedule lag, and the
//! attempted/failed tally behind `error_rate`.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even
/// count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The median of every full window of `window` consecutive samples,
/// and the median of those: a burst of interference from other tenants
/// of a shared host moves the windows it hits, not the result. With no
/// full window, the median of all samples.
pub fn windowed_median(values: &[f64], window: usize) -> f64 {
    let medians: Vec<f64> = values.chunks_exact(window).map(median).collect();
    if medians.is_empty() {
        median(values)
    } else {
        median(&medians)
    }
}

/// The tail latency the benchmark reports as a p99: the 99th
/// percentile when at least ten samples lie beyond it (1000 or more
/// samples), otherwise the highest percentile that still has ten
/// samples beyond it (the value with exactly ten larger samples), and
/// the maximum when there are fewer than eleven samples. NaN when
/// empty.
pub fn tail(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n >= 1000 {
        // Nearest rank: the smallest value with at least 99% of the
        // samples at or below it.
        return s[(0.99 * n as f64).ceil() as usize - 1];
    }
    if n >= 11 {
        s[n - 11]
    } else {
        s[n - 1]
    }
}

/// [`tail`] of every full window of `window` consecutive samples, and
/// the median of those: one burst of interference on a shared host
/// moves one window's tail, not the result. With no full window, the
/// tail of all samples.
pub fn windowed_tail(values: &[f64], window: usize) -> f64 {
    let tails: Vec<f64> = values.chunks_exact(window).map(tail).collect();
    if tails.is_empty() {
        tail(values)
    } else {
        median(&tails)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a: the fingerprint of a serialized result.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the bit patterns of `values` (exact, unlike any
/// decimal rendering).
pub fn fingerprint_f64s(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fingerprint(&bytes)
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (its `VmHWM:` line, in kB).
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(kb / 1024.0),
        Some(_) => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Lateness of an open-loop generator: how long after its scheduled
/// time each request actually went out.
#[derive(Debug, Default, Clone)]
pub struct ScheduleLag {
    lags_ms: Vec<f64>,
}

impl ScheduleLag {
    /// Records one send that was due at `scheduled` and went out at
    /// `sent` (both offsets from the same epoch). A send before its
    /// time counts as zero lag.
    pub fn record(&mut self, scheduled: Duration, sent: Duration) {
        self.lags_ms.push(sent.saturating_sub(scheduled).as_secs_f64() * 1e3);
    }

    /// Median lateness in ms (0 when nothing was sent).
    pub fn median_ms(&self) -> f64 {
        if self.lags_ms.is_empty() {
            0.0
        } else {
            median(&self.lags_ms)
        }
    }
}

/// Operations attempted and failed; a failure is a non-2xx status, a
/// socket error, or a failed correctness check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Deterministic SplitMix64 stream for the benchmark's own inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        let beyond = |v: &[f64], t: f64| v.iter().filter(|&&x| x > t).count();
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 by nearest rank is 990: ten samples lie above.
        assert_eq!(tail(&thousand), 990.0);
        assert_eq!(beyond(&thousand, 990.0), 10);
        // 100 samples: p99 would leave one sample beyond it, so the
        // rule falls back to the 90th percentile, ten samples below the top.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), 90.0);
        assert_eq!(beyond(&hundred, 90.0), 10);
        // Eleven samples: the smallest one has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), 1.0);
        // Too few samples for any percentile: the maximum.
        assert_eq!(tail(&[3.0, 9.0, 1.0]), 9.0);
        assert!(tail(&[]).is_nan());
    }

    #[test]
    fn windowed_tail_is_the_median_of_per_window_tails() {
        // Three windows of 1000; one has a burst of slow samples.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(tail(&v[..1000]), 989.0);
        assert_eq!(windowed_tail(&v, 1000), 989.0);
        assert_eq!(windowed_tail(&v[..500], 1000), tail(&v[..500]), "no full window");
    }

    #[test]
    fn windowed_median_is_the_median_of_per_window_medians() {
        // Seven windows of four; a burst slows windows 2..5.
        let mut v = Vec::new();
        for w in 0..7 {
            let slow = if (2..5).contains(&w) { 10.0 } else { 0.0 };
            v.extend([1.0, 2.0, 3.0, 4.0].map(|x| x + slow + w as f64 * 0.01));
        }
        // Window medians 2.5, 2.51, 12.52, 12.53, 12.54, 2.55, 2.56.
        assert!((windowed_median(&v, 4) - 2.56).abs() < 1e-9);
        assert_eq!(windowed_median(&[4.0, 1.0, 2.0], 4), 2.0, "no full window");
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn schedule_lag_counts_lateness_not_earliness() {
        let mut lag = ScheduleLag::default();
        let ms = Duration::from_millis;
        lag.record(ms(10), ms(12)); // 2 ms late
        lag.record(ms(20), ms(19)); // early: 0
        lag.record(ms(30), ms(35)); // 5 ms late
        assert!((lag.median_ms() - 2.0).abs() < 1e-9);
        lag.record(ms(0), ms(100));
        assert!((lag.median_ms() - 3.5).abs() < 1e-9);
        assert_eq!(ScheduleLag::default().median_ms(), 0.0);
    }

    #[test]
    fn vmhwm_is_parsed_from_proc_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(200.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t 10 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        // Published FNV-1a test vectors.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint(b"{\"x\":1}"), fingerprint(b"{\"x\":2}"));
        assert_eq!(fingerprint_f64s(&[1.0, -0.5]), fingerprint_f64s(&[1.0, -0.5]));
        // -0.0 and 0.0 compare equal but are different results.
        assert_ne!(fingerprint_f64s(&[0.0]), fingerprint_f64s(&[-0.0]));
    }

    #[test]
    fn tally_counts_failures_into_the_error_rate() {
        let mut t = Tally::default();
        assert!(t.check(true));
        assert!(!t.check(false));
        t.add(Tally { attempted: 2, failed: 0 });
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.error_rate(), 0.25);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
