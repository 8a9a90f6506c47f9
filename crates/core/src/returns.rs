//! Customer-return screening (paper Fig. 11, refs \[16\]\[32\]).
//!
//! With a handful of returns against hundreds of thousands of passing
//! parts, this is not a classification problem (paper §2.4): the flow
//! instead (1) *selects* a small test subspace in which the known
//! returns stand out — ranking tests by how outlying the returns are,
//! then de-correlating — and (2) builds an outlier model of the passing
//! population in that subspace. The model is then applied forward in
//! time (a return manufactured months later) and sideways (a sister
//! product a year later), reproducing the three plots of Fig. 11.
//!
//! Scores are computed on robust z-scores (median/MAD per population),
//! which is what lets one model transfer across drifted lots and a
//! mean-shifted sister product.

use edm_linalg::stats;
use edm_mfgtest::product::{Device, ProductModel};
use edm_mfgtest::returns::FieldModel;
use edm_mfgtest::testflow::TestFlow;
use edm_novelty::{MahalanobisDetector, NoveltyDetector, NoveltyError};
use rand::Rng;
use serde::Serialize;

/// Configuration of the return-screening experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReturnScreeningConfig {
    /// Devices per lot.
    pub lot_size: usize,
    /// Lots in the baseline production window.
    pub n_lots: u32,
    /// Latent defect rate (scaled up from automotive ppm so a laptop-
    /// sized population contains a few returns).
    pub defect_rate: f64,
    /// Tests selected for the outlier space (the paper shows 3-D).
    pub n_selected: usize,
    /// Outlier threshold quantile on the passing population.
    pub threshold_quantile: f64,
}

impl Default for ReturnScreeningConfig {
    fn default() -> Self {
        ReturnScreeningConfig {
            lot_size: 5_000,
            n_lots: 10,
            defect_rate: 4e-4,
            n_selected: 3,
            threshold_quantile: 0.999,
        }
    }
}

/// A trained return screen: selected tests + outlier model on robust
/// z-scores.
#[derive(Debug, Clone, Serialize)]
pub struct ReturnScreen {
    /// Indices of the selected tests.
    pub selected_tests: Vec<usize>,
    /// Names of the selected tests.
    pub selected_names: Vec<String>,
    detector: MahalanobisDetector,
    threshold: f64,
}

impl ReturnScreen {
    /// Robust z-scores of a device in the selected subspace, given the
    /// population's per-test medians and MADs.
    fn project(&self, device: &Device, center: &[f64], spread: &[f64]) -> Vec<f64> {
        self.selected_tests
            .iter()
            .enumerate()
            .map(|(k, &t)| (device.measurements[t] - center[k]) / spread[k].max(1e-12))
            .collect()
    }

    /// Outlier score of a device against a reference population
    /// (higher = more outlying).
    pub fn score(&self, device: &Device, population: &[&Device]) -> f64 {
        let (center, spread) = robust_stats(population, &self.selected_tests);
        self.detector.score(&self.project(device, &center, &spread))
    }

    /// Scores a whole population at once (shared robust statistics).
    pub fn score_population(&self, population: &[&Device]) -> Vec<f64> {
        let (center, spread) = robust_stats(population, &self.selected_tests);
        population.iter().map(|d| self.detector.score(&self.project(d, &center, &spread))).collect()
    }

    /// Whether a device would be screened out as a suspected latent
    /// defect.
    pub fn flags(&self, device: &Device, population: &[&Device]) -> bool {
        self.score(device, population) > self.threshold
    }

    /// The calibrated score threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

fn robust_stats(population: &[&Device], tests: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut center = Vec::with_capacity(tests.len());
    let mut spread = Vec::with_capacity(tests.len());
    for &t in tests {
        let col: Vec<f64> = population.iter().map(|d| d.measurements[t]).collect();
        center.push(stats::median(&col).unwrap_or(0.0));
        spread.push(stats::mad(&col).unwrap_or(1.0).max(1e-9));
    }
    (center, spread)
}

/// Result of the three-plot Fig. 11 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ReturnScreeningResult {
    /// Returns observed in the baseline window.
    pub n_baseline_returns: usize,
    /// Baseline returns' score percentile vs the passing population
    /// (plot 1: the return is an extreme outlier).
    pub baseline_return_percentiles: Vec<f64>,
    /// Later-production returns caught by the model (plot 2).
    pub later_caught: usize,
    /// Later-production returns total.
    pub later_total: usize,
    /// Sister-product returns caught (plot 3).
    pub sister_caught: usize,
    /// Sister-product returns total.
    pub sister_total: usize,
    /// Overkill: fraction of healthy shipped devices the screen would
    /// reject.
    pub overkill_rate: f64,
    /// The trained screen.
    pub screen: ReturnScreen,
}

/// Ranks tests by how outlying the known returns are (mean |robust z|
/// of the returns per test), then de-correlates on the passing
/// population and keeps the top `n_selected`.
pub fn select_test_space(
    passing: &[&Device],
    returns: &[&Device],
    n_tests: usize,
    n_selected: usize,
) -> Vec<usize> {
    let all: Vec<usize> = (0..n_tests).collect();
    let (center, spread) = robust_stats(passing, &all);
    let mut scored: Vec<(usize, f64)> = (0..n_tests)
        .map(|t| {
            let z: f64 = returns
                .iter()
                .map(|d| ((d.measurements[t] - center[t]) / spread[t]).abs())
                .sum::<f64>()
                / returns.len().max(1) as f64;
            (t, z)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    // De-correlate: drop tests correlated > 0.9 with an already-kept one.
    let mut kept: Vec<usize> = Vec::new();
    for (t, _) in scored {
        let col_t: Vec<f64> = passing.iter().map(|d| d.measurements[t]).collect();
        let redundant = kept.iter().any(|&k| {
            let col_k: Vec<f64> = passing.iter().map(|d| d.measurements[k]).collect();
            stats::pearson(&col_t, &col_k).abs() > 0.9
        });
        if !redundant {
            kept.push(t);
            if kept.len() == n_selected {
                break;
            }
        }
    }
    kept
}

/// Runs the full Fig. 11 experiment.
///
/// # Errors
///
/// Returns an error if the baseline window produced no returns (raise
/// `defect_rate` or the population size) or detector fitting fails.
pub fn run<R: Rng + ?Sized>(
    config: &ReturnScreeningConfig,
    rng: &mut R,
) -> Result<ReturnScreeningResult, NoveltyError> {
    let _span = edm_trace::span("core.returns.run");
    let product = ProductModel::automotive().with_defect_rate(config.defect_rate);
    let flow = TestFlow::new(product.spec_limits().to_vec());
    let field = FieldModel::default();

    // Baseline production window.
    let mut devices = Vec::new();
    for lot in 0..config.n_lots {
        devices.extend(product.generate_lot(lot, config.lot_size, rng));
    }
    let (shipped, _) = flow.screen(&devices);
    let (returns, survivors) = field.field_exposure(&shipped, rng);
    if returns.is_empty() {
        return Err(NoveltyError::InvalidInput(
            "baseline window produced no customer returns; raise defect_rate".into(),
        ));
    }

    // Select the test space where the returns stand out.
    let selected = select_test_space(&survivors, &returns, product.n_tests(), config.n_selected);
    let selected_names: Vec<String> =
        selected.iter().map(|&t| product.test_names()[t].clone()).collect();

    // Outlier model on robust z-scores of the passing population.
    let all_idx: Vec<usize> = selected.clone();
    let (center, spread) = robust_stats(&survivors, &all_idx);
    let z_pop: Vec<Vec<f64>> = survivors
        .iter()
        .map(|d| {
            all_idx
                .iter()
                .enumerate()
                .map(|(k, &t)| (d.measurements[t] - center[k]) / spread[k].max(1e-12))
                .collect()
        })
        .collect();
    let detector = MahalanobisDetector::fit(&z_pop, config.threshold_quantile)?;
    let threshold = detector.threshold();
    let screen = ReturnScreen { selected_tests: selected, selected_names, detector, threshold };

    // Plot 1: percentile of each baseline return among survivors.
    let survivor_scores = screen.score_population(&survivors);
    let mut sorted_scores = survivor_scores.clone();
    sorted_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let percentile = |s: f64| -> f64 {
        let below = sorted_scores.partition_point(|&v| v < s);
        below as f64 / sorted_scores.len().max(1) as f64
    };
    let baseline_return_percentiles: Vec<f64> =
        returns.iter().map(|d| percentile(screen.score(d, &survivors))).collect();

    // Plot 2: a later production window (months later = more drift).
    let mut later_devices = Vec::new();
    for lot in config.n_lots..(config.n_lots + 4) {
        later_devices.extend(product.generate_lot(lot + 20, config.lot_size, rng));
    }
    let (later_shipped, _) = flow.screen(&later_devices);
    let (later_returns, later_survivors) = field.field_exposure(&later_shipped, rng);
    let later_caught = later_returns.iter().filter(|d| screen.flags(d, &later_survivors)).count();

    // Plot 3: the sister product a year later.
    let sister = product.sister_product();
    let sister_flow = TestFlow::new(sister.spec_limits().to_vec());
    let mut sister_devices = Vec::new();
    for lot in 0..4 {
        sister_devices.extend(sister.generate_lot(lot + 50, config.lot_size, rng));
    }
    let (sister_shipped, _) = sister_flow.screen(&sister_devices);
    let (sister_returns, sister_survivors) = field.field_exposure(&sister_shipped, rng);
    let sister_caught =
        sister_returns.iter().filter(|d| screen.flags(d, &sister_survivors)).count();

    // Overkill on the healthy later population.
    let later_scores = screen.score_population(&later_survivors);
    let overkill = later_scores.iter().filter(|&&s| s > screen.threshold()).count() as f64
        / later_scores.len().max(1) as f64;

    Ok(ReturnScreeningResult {
        n_baseline_returns: returns.len(),
        baseline_return_percentiles,
        later_caught,
        later_total: later_returns.len(),
        sister_caught,
        sister_total: sister_returns.len(),
        overkill_rate: overkill,
        screen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn returns_are_extreme_outliers_and_model_transfers() {
        let mut rng = StdRng::seed_from_u64(101);
        let config = ReturnScreeningConfig {
            lot_size: 2_000,
            n_lots: 8,
            defect_rate: 2e-3,
            ..Default::default()
        };
        let result = run(&config, &mut rng).unwrap();
        assert!(result.n_baseline_returns >= 3);
        // Plot 1: returns sit at the extreme tail of the population.
        for &p in &result.baseline_return_percentiles {
            assert!(p > 0.95, "return percentile {p} not extreme");
        }
        // Plot 2: the model catches most later returns.
        assert!(
            result.later_caught * 3 >= result.later_total * 2,
            "later: {}/{}",
            result.later_caught,
            result.later_total
        );
        // Plot 3: and transfers to the sister product.
        assert!(
            result.sister_caught * 2 >= result.sister_total,
            "sister: {}/{}",
            result.sister_caught,
            result.sister_total
        );
        // Overkill stays small.
        assert!(result.overkill_rate < 0.02, "overkill {}", result.overkill_rate);
        // The screen selected the defect-bearing tests.
        assert!(
            result.screen.selected_names.iter().any(|n| n == "iddq" || n == "vmin"),
            "selected {:?}",
            result.screen.selected_names
        );
    }

    #[test]
    fn no_returns_is_an_error() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ReturnScreeningConfig {
            lot_size: 100,
            n_lots: 1,
            defect_rate: 0.0,
            ..Default::default()
        };
        assert!(run(&config, &mut rng).is_err());
    }
}
