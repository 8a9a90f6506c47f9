//! The product generative model: correlated parametric tests via a
//! factor structure, plus defect and tail mechanisms.

use edm_linalg::sample::standard_normal;
use edm_linalg::Matrix;
use rand::Rng;
use serde::Serialize;

/// One tested device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Device {
    /// Sequential device id (unique per generated stream).
    pub id: u64,
    /// Lot index (time order: lot 0 was manufactured first).
    pub lot: u32,
    /// Parametric measurements, one per test.
    pub measurements: Vec<f64>,
    /// Ground truth: carries the latent defect (field-fail mechanism).
    pub latent_defect: bool,
    /// Ground truth: affected by the rare tail mechanism (Fig. 12).
    pub tail_mechanism: bool,
}

/// The product's generative model.
///
/// Measurements follow `x = μ + L·f + σ·ε` with shared factors `f` —
/// the factor loadings `L` create the strong inter-test correlations
/// (the 0.97 of Fig. 12) that make single tests look redundant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProductModel {
    /// Test names (for reports).
    test_names: Vec<String>,
    /// Mean per test.
    mu: Vec<f64>,
    /// Factor loadings, `n_tests x n_factors`.
    loadings: Matrix,
    /// Per-test independent noise sigma.
    noise: Vec<f64>,
    /// Spec limits `(lo, hi)` per test.
    limits: Vec<(f64, f64)>,
    /// Per-lot drift added to every mean (slow process wander).
    drift_per_lot: Vec<f64>,
    /// Probability a device carries the latent defect.
    defect_rate: f64,
    /// Shift applied to measurements of a latent-defect device
    /// (chosen to stay within limits but off the correlation manifold).
    defect_shift: Vec<f64>,
    /// Optional rare tail mechanism: `(rate, per-test shift)`.
    tail: Option<(f64, Vec<f64>)>,
}

impl ProductModel {
    /// The reference automotive product: 8 parametric tests.
    ///
    /// * tests 0..3 share a strong factor — test 0 ("test_A") correlates
    ///   ≈ 0.97 with tests 1 and 2 ("test_1", "test_2"), the Fig. 12
    ///   setup;
    /// * tests 3..8 ("iddq", "vmin", "fmax", "leak_hi", "leak_lo") mix
    ///   two more factors;
    /// * the latent defect shifts `iddq`/`vmin`/`leak_hi` jointly by an
    ///   in-spec amount — invisible per-test, an outlier in the right
    ///   3-D subspace (Fig. 11).
    pub fn automotive() -> Self {
        let test_names: Vec<String> =
            ["test_A", "test_1", "test_2", "test_3", "iddq", "vmin", "fmax", "leak_hi"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let n = test_names.len();
        // Three factors: f0 drives the A/1/2/3 family, f1 the power
        // family, f2 speed.
        let loadings = Matrix::from_rows(&[
            vec![1.00, 0.00, 0.00], // test_A
            vec![0.98, 0.00, 0.00], // test_1
            vec![0.97, 0.05, 0.00], // test_2
            vec![0.80, 0.10, 0.00], // test_3
            vec![0.10, 0.90, 0.00], // iddq
            vec![0.00, 0.70, 0.30], // vmin
            vec![0.30, 0.50, 0.80], // fmax (speed rides on all three factors)
            vec![0.05, 0.85, 0.10], // leak_hi
        ]);
        let noise = vec![0.18, 0.18, 0.20, 0.40, 0.35, 0.45, 0.30, 0.40];
        let mu = vec![10.0, 20.0, 30.0, 40.0, 5.0, 0.75, 2.2, 1.0];
        // Limits at per-test guardbands: test_A is specified loosest in
        // its family (4.3 sigma) while tests 1/2 are tight (3.8 sigma),
        // so on healthy material every A-fail is also a 1/2-fail — the
        // premise of the Fig. 12 drop recommendation.
        let guard = [4.3, 3.8, 3.8, 4.0, 4.0, 4.0, 4.0, 4.0];
        let limits = (0..n)
            .map(|i| {
                let var: f64 = (0..3).map(|k| loadings[(i, k)] * loadings[(i, k)]).sum::<f64>()
                    + noise[i] * noise[i];
                let s = var.sqrt();
                (mu[i] - guard[i] * s, mu[i] + guard[i] * s)
            })
            .collect();
        ProductModel {
            test_names,
            mu,
            loadings,
            noise,
            limits,
            drift_per_lot: vec![0.01, 0.012, 0.008, 0.01, 0.004, 0.002, -0.003, 0.005],
            defect_rate: 5e-5,
            // Joint in-spec shift on iddq (+), vmin (+), leak_hi (-):
            // each ~2.5 sigma of the per-test noise, but in a direction
            // the factor structure never produces.
            defect_shift: vec![0.0, 0.0, 0.0, 0.0, 1.6, 1.4, 0.0, -1.5],
            tail: None,
        }
    }

    /// Enables the Fig. 12 tail mechanism: at `rate`, a device's
    /// `test_A` measurement shifts by `shift` (breaking the A↔1/2
    /// correlation) without moving any other test.
    pub fn with_tail_mechanism(mut self, rate: f64, shift: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        let mut v = vec![0.0; self.n_tests()];
        v[0] = shift;
        self.tail = Some((rate, v));
        self
    }

    /// Sets the latent-defect rate (builder-style).
    pub fn with_defect_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.defect_rate = rate;
        self
    }

    /// A sister product: same mechanisms and factor structure, shifted
    /// means and slightly different noise (the paper's Fig. 11 plot 3).
    pub fn sister_product(&self) -> ProductModel {
        let mut s = self.clone();
        for (i, m) in s.mu.iter_mut().enumerate() {
            *m += 0.3 + 0.05 * i as f64;
        }
        for n in &mut s.noise {
            *n *= 1.1;
        }
        // Limits move with the means (same guardbands as the parent).
        let guard = [4.3, 3.8, 3.8, 4.0, 4.0, 4.0, 4.0, 4.0];
        let n_tests = s.n_tests();
        s.limits = (0..n_tests)
            .map(|i| {
                let var: f64 = (0..s.loadings.cols())
                    .map(|k| s.loadings[(i, k)] * s.loadings[(i, k)])
                    .sum::<f64>()
                    + s.noise[i] * s.noise[i];
                let sd = var.sqrt();
                (s.mu[i] - guard[i] * sd, s.mu[i] + guard[i] * sd)
            })
            .collect();
        s
    }

    /// Number of parametric tests.
    pub fn n_tests(&self) -> usize {
        self.test_names.len()
    }

    /// Test names.
    pub fn test_names(&self) -> &[String] {
        &self.test_names
    }

    /// Spec limits per test.
    pub fn spec_limits(&self) -> &[(f64, f64)] {
        &self.limits
    }

    /// Index of a test by name.
    pub fn test_index(&self, name: &str) -> Option<usize> {
        self.test_names.iter().position(|n| n == name)
    }

    /// Generates one device in the given lot.
    pub fn generate_device<R: Rng + ?Sized>(&self, id: u64, lot: u32, rng: &mut R) -> Device {
        let k = self.loadings.cols();
        let f: Vec<f64> = (0..k).map(|_| standard_normal(rng)).collect();
        let mut m = Vec::with_capacity(self.n_tests());
        for i in 0..self.n_tests() {
            let mut v = self.mu[i] + self.drift_per_lot[i] * lot as f64;
            for (kk, &fk) in f.iter().enumerate() {
                v += self.loadings[(i, kk)] * fk;
            }
            v += self.noise[i] * standard_normal(rng);
            m.push(v);
        }
        let latent_defect = rng.gen::<f64>() < self.defect_rate;
        if latent_defect {
            for (v, &d) in m.iter_mut().zip(&self.defect_shift) {
                *v += d;
            }
        }
        let mut tail_mechanism = false;
        if let Some((rate, shift)) = &self.tail {
            if rng.gen::<f64>() < *rate {
                tail_mechanism = true;
                for (v, &d) in m.iter_mut().zip(shift) {
                    *v += d;
                }
            }
        }
        Device { id, lot, measurements: m, latent_defect, tail_mechanism }
    }

    /// Generates a lot of `n` devices with sequential ids starting at
    /// `lot as u64 * 1_000_000`.
    pub fn generate_lot<R: Rng + ?Sized>(&self, lot: u32, n: usize, rng: &mut R) -> Vec<Device> {
        let base = lot as u64 * 1_000_000;
        (0..n).map(|i| self.generate_device(base + i as u64, lot, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_linalg::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matrix_of(devices: &[Device]) -> Matrix {
        Matrix::from_rows(&devices.iter().map(|d| d.measurements.clone()).collect::<Vec<_>>())
    }

    #[test]
    fn test_a_correlates_strongly_with_tests_1_and_2() {
        let p = ProductModel::automotive();
        let mut rng = StdRng::seed_from_u64(1);
        let lot = p.generate_lot(0, 5000, &mut rng);
        let x = matrix_of(&lot);
        let corr = stats::correlation_matrix(&x);
        assert!(corr[(0, 1)] > 0.95, "A-1 corr {}", corr[(0, 1)]);
        assert!(corr[(0, 2)] > 0.94, "A-2 corr {}", corr[(0, 2)]);
        // the power family is NOT strongly correlated with the A family
        assert!(corr[(0, 4)].abs() < 0.3, "A-iddq corr {}", corr[(0, 4)]);
    }

    #[test]
    fn latent_defect_devices_stay_in_spec() {
        let p = ProductModel::automotive().with_defect_rate(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let lot = p.generate_lot(0, 200, &mut rng);
        let limits = p.spec_limits();
        let mut in_spec = 0;
        for d in &lot {
            assert!(d.latent_defect);
            if d.measurements.iter().zip(limits).all(|(&v, &(lo, hi))| v >= lo && v <= hi) {
                in_spec += 1;
            }
        }
        // The defect is designed to be invisible to single-test limits.
        assert!(in_spec as f64 / lot.len() as f64 > 0.8, "{in_spec}/200 in spec");
    }

    #[test]
    fn tail_mechanism_breaks_only_test_a() {
        let p = ProductModel::automotive().with_tail_mechanism(1.0, 3.0);
        let q = ProductModel::automotive();
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let with_tail = p.generate_device(0, 0, &mut rng1);
        let without = q.generate_device(0, 0, &mut rng2);
        assert!(with_tail.tail_mechanism);
        assert!((with_tail.measurements[0] - without.measurements[0] - 3.0).abs() < 1e-9);
        for i in 1..p.n_tests() {
            assert!((with_tail.measurements[i] - without.measurements[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn drift_moves_lot_means() {
        let p = ProductModel::automotive();
        let mut rng = StdRng::seed_from_u64(4);
        let early = p.generate_lot(0, 3000, &mut rng);
        let late = p.generate_lot(50, 3000, &mut rng);
        let mean0_early =
            edm_linalg::mean(&early.iter().map(|d| d.measurements[0]).collect::<Vec<_>>());
        let mean0_late =
            edm_linalg::mean(&late.iter().map(|d| d.measurements[0]).collect::<Vec<_>>());
        assert!((mean0_late - mean0_early - 0.5).abs() < 0.1);
    }

    #[test]
    fn sister_product_is_shifted_but_same_structure() {
        let p = ProductModel::automotive();
        let s = p.sister_product();
        let mut rng = StdRng::seed_from_u64(5);
        let lot = s.generate_lot(0, 4000, &mut rng);
        let x = matrix_of(&lot);
        let corr = stats::correlation_matrix(&x);
        assert!(corr[(0, 1)] > 0.9, "sister keeps the A-1 correlation");
        let means = stats::column_means(&x);
        assert!(means[0] > 10.2, "sister means shifted, got {}", means[0]);
    }

    #[test]
    fn ids_are_unique_within_and_across_lots() {
        let p = ProductModel::automotive();
        let mut rng = StdRng::seed_from_u64(6);
        let a = p.generate_lot(0, 100, &mut rng);
        let b = p.generate_lot(1, 100, &mut rng);
        let mut ids: Vec<u64> = a.iter().chain(&b).map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
