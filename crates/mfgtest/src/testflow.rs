//! Production test: spec limits, pass/fail, and per-test fail
//! accounting — the bookkeeping behind both Fig. 11 (what shipped) and
//! Fig. 12 (which fails each test uniquely catches).

use serde::Serialize;

use crate::product::Device;

/// A production test program: one `(lo, hi)` limit pair per test.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TestFlow {
    limits: Vec<(f64, f64)>,
    /// Tests removed from the program (still measured by the generator,
    /// but not applied) — the cost-reduction action of Fig. 12.
    dropped: Vec<bool>,
}

impl TestFlow {
    /// Creates a flow applying every limit.
    pub fn new(limits: Vec<(f64, f64)>) -> Self {
        let n = limits.len();
        TestFlow { limits, dropped: vec![false; n] }
    }

    /// Number of tests in the program (dropped or not).
    pub fn n_tests(&self) -> usize {
        self.limits.len()
    }

    /// Marks a test as dropped from the program.
    ///
    /// # Panics
    ///
    /// Panics if `test` is out of range.
    pub fn drop_test(&mut self, test: usize) {
        assert!(test < self.limits.len(), "test index out of range");
        self.dropped[test] = true;
    }

    /// Whether a test is currently applied.
    pub fn is_applied(&self, test: usize) -> bool {
        !self.dropped[test]
    }

    /// The tests (indices) the device fails, ignoring dropped tests.
    pub fn failing_tests(&self, device: &Device) -> Vec<usize> {
        device
            .measurements
            .iter()
            .enumerate()
            .filter(|&(i, &v)| !self.dropped[i] && (v < self.limits[i].0 || v > self.limits[i].1))
            .map(|(i, _)| i)
            .collect()
    }

    /// The tests the device would fail if *every* test were applied
    /// (used to audit what a dropped test would have caught).
    pub fn failing_tests_full(&self, device: &Device) -> Vec<usize> {
        device
            .measurements
            .iter()
            .enumerate()
            .filter(|&(i, &v)| v < self.limits[i].0 || v > self.limits[i].1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the device passes the (possibly reduced) program.
    pub fn passes(&self, device: &Device) -> bool {
        self.failing_tests(device).is_empty()
    }

    /// Splits a population into (shipped, rejected) under this program.
    pub fn screen<'a>(&self, devices: &'a [Device]) -> (Vec<&'a Device>, Vec<&'a Device>) {
        let mut shipped = Vec::new();
        let mut rejected = Vec::new();
        for d in devices {
            if self.passes(d) {
                shipped.push(d);
            } else {
                rejected.push(d);
            }
        }
        (shipped, rejected)
    }

    /// Devices that fail `test` but pass every *other* applied test —
    /// the unique coverage of `test`. If this is empty on a large
    /// sample, data mining concludes the test is redundant (Fig. 12's
    /// reasonable-but-wrong inference).
    pub fn unique_catches<'a>(&self, devices: &'a [Device], test: usize) -> Vec<&'a Device> {
        devices
            .iter()
            .filter(|d| {
                let fails = self.failing_tests_full(d);
                fails.contains(&test) && fails.iter().all(|&f| f == test || self.dropped[f])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(measurements: Vec<f64>) -> Device {
        Device { id: 0, lot: 0, measurements, latent_defect: false, tail_mechanism: false }
    }

    fn flow() -> TestFlow {
        TestFlow::new(vec![(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)])
    }

    #[test]
    fn pass_fail_logic() {
        let f = flow();
        assert!(f.passes(&device(vec![5.0, 5.0, 5.0])));
        assert!(!f.passes(&device(vec![11.0, 5.0, 5.0])));
        assert_eq!(f.failing_tests(&device(vec![11.0, -1.0, 5.0])), vec![0, 1]);
    }

    #[test]
    fn dropped_test_no_longer_rejects() {
        let mut f = flow();
        let d = device(vec![11.0, 5.0, 5.0]);
        assert!(!f.passes(&d));
        f.drop_test(0);
        assert!(f.passes(&d));
        // but the audit view still sees it
        assert_eq!(f.failing_tests_full(&d), vec![0]);
    }

    #[test]
    fn unique_catches_finds_sole_coverage() {
        let f = flow();
        let only_t0 = device(vec![11.0, 5.0, 5.0]);
        let t0_and_t1 = device(vec![11.0, 11.0, 5.0]);
        let clean = device(vec![5.0, 5.0, 5.0]);
        let devices = vec![only_t0.clone(), t0_and_t1, clean];
        let unique = f.unique_catches(&devices, 0);
        assert_eq!(unique.len(), 1);
        assert_eq!(unique[0].measurements, only_t0.measurements);
    }

    #[test]
    fn screen_partitions_population() {
        let f = flow();
        let devices = vec![
            device(vec![5.0, 5.0, 5.0]),
            device(vec![11.0, 5.0, 5.0]),
            device(vec![5.0, 5.0, 5.0]),
        ];
        let (shipped, rejected) = f.screen(&devices);
        assert_eq!(shipped.len(), 2);
        assert_eq!(rejected.len(), 1);
    }
}
