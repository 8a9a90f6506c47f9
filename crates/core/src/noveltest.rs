//! Novel test selection (paper Fig. 6/7, refs \[14\]\[27\]).
//!
//! The constrained-random generator emits a stream of tests; most of
//! them exercise behaviour the simulator has already seen. The flow
//! inserts a one-class SVM between the randomizer and the simulator:
//! tests that look *familiar* — under a normalized spectrum kernel on
//! the instruction stream — are filtered out, and only novel tests are
//! simulated. The paper's result: the same maximum coverage with ~5 %
//! of the simulations.
//!
//! Per the paper, the learner never sees a feature vector: the kernel
//! module (instruction-class n-grams) *is* the domain knowledge.

use edm_kernels::{SpectrumKernel, SpectrumProfile};
use edm_linalg::Matrix;
use edm_svm::{solve_one_class, OneClassParams, SvmError};
use edm_verif::coverage::CoverageMap;
use edm_verif::lsu::LsuSimulator;
use edm_verif::program::Program;
use edm_verif::template::TestTemplate;
use rand::Rng;
use serde::Serialize;

/// Configuration of the novelty-selection flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NovelSelectionConfig {
    /// Tests drawn from the randomizer.
    pub n_tests: usize,
    /// Spectrum-kernel gram size (n-gram length).
    pub ngram: usize,
    /// One-class SVM ν.
    pub nu: f64,
    /// Tests accepted unconditionally before the model starts filtering.
    pub warmup: usize,
    /// Retrain the model after this many new acceptances.
    pub retrain_every: usize,
    /// Novelty margin: accept when the decision value is below this
    /// (0.0 = strict support boundary; small positive = keep slightly
    /// familiar tests too).
    pub margin: f64,
    /// Spectrum-kernel length weighting (> 1 emphasizes long shared
    /// instruction runs, which is what makes rare dependency bursts —
    /// e.g. deep store chains — look novel).
    pub length_weight: f64,
}

impl Default for NovelSelectionConfig {
    fn default() -> Self {
        NovelSelectionConfig {
            n_tests: 2000,
            ngram: 3,
            nu: 0.3,
            warmup: 12,
            retrain_every: 8,
            margin: 0.0,
            length_weight: 2.0,
        }
    }
}

/// One point of a coverage-vs-cost curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CurvePoint {
    /// Tests simulated so far.
    pub simulated: usize,
    /// Coverage points hit so far.
    pub covered: usize,
    /// Simulated cycles spent so far.
    pub cycles: u64,
}

/// Result of running baseline and filtered flows on the same stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NovelSelectionResult {
    /// Baseline (simulate everything) curve.
    pub baseline: Vec<CurvePoint>,
    /// Novelty-filtered curve.
    pub filtered: Vec<CurvePoint>,
    /// Maximum coverage reached by the baseline.
    pub max_coverage: usize,
    /// Tests the baseline needed to first reach `max_coverage`.
    pub baseline_tests_to_max: usize,
    /// Tests the filtered flow *simulated* to reach `max_coverage`
    /// (`None` if it never did).
    pub filtered_tests_to_max: Option<usize>,
    /// Cycles the baseline spent reaching max coverage.
    pub baseline_cycles_to_max: u64,
    /// Cycles the filtered flow spent reaching max coverage.
    pub filtered_cycles_to_max: Option<u64>,
}

impl NovelSelectionResult {
    /// Fraction of baseline simulation cost saved at equal coverage
    /// (the Fig. 7 "95 % saving"); `None` if the filtered flow fell
    /// short of max coverage.
    pub fn simulation_saving(&self) -> Option<f64> {
        let filtered = self.filtered_cycles_to_max? as f64;
        let baseline = self.baseline_cycles_to_max.max(1) as f64;
        Some(1.0 - filtered / baseline)
    }
}

/// The incremental one-class novelty filter over token sequences.
///
/// Maintains the accepted set, its Gram matrix, and the trained α/ρ;
/// exposed so other flows (and the benches) can reuse it directly.
pub struct NoveltyFilter {
    kernel: SpectrumKernel,
    accepted: Vec<SpectrumProfile>,
    gram: Matrix,
    alpha: Vec<f64>,
    rho: f64,
    params: OneClassParams,
    stale: usize,
    retrain_every: usize,
}

impl NoveltyFilter {
    /// Creates an empty filter with flat gram weighting.
    pub fn new(ngram: usize, nu: f64, retrain_every: usize) -> Self {
        Self::weighted(ngram, 1.0, nu, retrain_every)
    }

    /// Creates an empty filter with length-weighted grams.
    pub fn weighted(ngram: usize, length_weight: f64, nu: f64, retrain_every: usize) -> Self {
        NoveltyFilter {
            kernel: SpectrumKernel::weighted(ngram, length_weight),
            accepted: Vec::new(),
            gram: Matrix::zeros(0, 0),
            alpha: Vec::new(),
            rho: 0.0,
            params: OneClassParams::default().with_nu(nu),
            stale: 0,
            retrain_every: retrain_every.max(1),
        }
    }

    /// Number of accepted (training) sequences.
    pub fn n_accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Decision value for a candidate: negative = novel.
    ///
    /// Scores against the most recent trained model (acceptances since
    /// the last retrain participate in the kernel but not in α).
    pub fn decision(&self, tokens: &[u8]) -> f64 {
        if self.alpha.is_empty() {
            return -1.0; // nothing learned: everything is novel
        }
        let profile = SpectrumProfile::build(tokens, &self.kernel);
        let mut acc = 0.0;
        for (p, &a) in self.accepted[..self.alpha.len()].iter().zip(&self.alpha) {
            if a != 0.0 {
                acc += a * profile.cosine(p);
            }
        }
        acc - self.rho
    }

    /// Accepts a sequence into the model; retrains when due.
    ///
    /// # Errors
    ///
    /// Propagates SMO errors from retraining.
    pub fn accept(&mut self, tokens: Vec<u8>) -> Result<(), SvmError> {
        let profile = SpectrumProfile::build(&tokens, &self.kernel);
        // Grow the Gram matrix by one row/column.
        let n = self.accepted.len();
        let mut g = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                g[(i, j)] = self.gram[(i, j)];
            }
        }
        for (i, item) in self.accepted.iter().enumerate() {
            let v = profile.cosine(item);
            g[(i, n)] = v;
            g[(n, i)] = v;
        }
        g[(n, n)] = profile.cosine(&profile);
        self.gram = g;
        self.accepted.push(profile);
        self.stale += 1;
        if self.stale >= self.retrain_every || self.alpha.is_empty() {
            self.retrain()?;
        }
        Ok(())
    }

    fn retrain(&mut self) -> Result<(), SvmError> {
        let (alpha, rho, _) = solve_one_class(&self.gram, &self.params)?;
        self.alpha = alpha;
        self.rho = rho;
        self.stale = 0;
        Ok(())
    }
}

/// Runs the Fig. 7 experiment: one shared random test stream, consumed
/// by (a) the baseline that simulates everything and (b) the filtered
/// flow that only simulates tests the novelty model accepts.
///
/// # Errors
///
/// Propagates SVM training failures from the filter.
pub fn run<R: Rng + ?Sized>(
    template: &TestTemplate,
    simulator: &LsuSimulator,
    config: &NovelSelectionConfig,
    rng: &mut R,
) -> Result<NovelSelectionResult, SvmError> {
    let _span = edm_trace::span("core.noveltest.run");
    let tests: Vec<_> = (0..config.n_tests).map(|_| template.generate(rng)).collect();
    run_stream(&tests, simulator, config)
}

/// Runs the experiment on a pre-generated stream (e.g. one drawn from a
/// [`edm_verif::template::MixtureTemplate`]).
///
/// # Errors
///
/// Propagates SVM training failures from the filter.
pub fn run_stream(
    tests: &[Program],
    simulator: &LsuSimulator,
    config: &NovelSelectionConfig,
) -> Result<NovelSelectionResult, SvmError> {
    let _span = edm_trace::span("core.noveltest.run_stream");
    let outcomes: Vec<_> = tests.iter().map(|t| simulator.simulate(t)).collect();

    // Baseline: simulate in stream order.
    let mut baseline = Vec::with_capacity(tests.len());
    let mut cov = CoverageMap::new();
    let mut cycles = 0u64;
    for (i, out) in outcomes.iter().enumerate() {
        cov.merge(&out.coverage);
        cycles += out.cycles;
        baseline.push(CurvePoint { simulated: i + 1, covered: cov.n_covered(), cycles });
    }
    let max_coverage = cov.n_covered();
    let first_max = baseline
        .iter()
        .position(|p| p.covered == max_coverage)
        .expect("baseline reaches its own max");
    let baseline_tests_to_max = first_max + 1;
    let baseline_cycles_to_max = baseline[first_max].cycles;

    // Filtered flow: only accepted tests get "simulated" (cost charged).
    let mut filter = NoveltyFilter::weighted(
        config.ngram,
        config.length_weight,
        config.nu,
        config.retrain_every,
    );
    let mut filtered = Vec::new();
    let mut fcov = CoverageMap::new();
    let mut fcycles = 0u64;
    let mut simulated = 0usize;
    for (test, out) in tests.iter().zip(&outcomes) {
        let tokens = test.tokens();
        let accept =
            filter.n_accepted() < config.warmup || filter.decision(&tokens) < config.margin;
        if !accept {
            continue;
        }
        filter.accept(tokens)?;
        simulated += 1;
        fcov.merge(&out.coverage);
        fcycles += out.cycles;
        filtered.push(CurvePoint { simulated, covered: fcov.n_covered(), cycles: fcycles });
    }
    let filtered_to_max = filtered.iter().find(|p| p.covered >= max_coverage);
    Ok(NovelSelectionResult {
        baseline,
        filtered: filtered.clone(),
        max_coverage,
        baseline_tests_to_max,
        filtered_tests_to_max: filtered_to_max.map(|p| p.simulated),
        baseline_cycles_to_max,
        filtered_cycles_to_max: filtered_to_max.map(|p| p.cycles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn filter_scores_duplicates_as_familiar() {
        let mut f = NoveltyFilter::new(2, 0.3, 4);
        let a = vec![1u8, 2, 3, 4, 5, 6, 1, 2, 3, 4];
        let b = vec![9u8, 9, 8, 8, 7, 7, 9, 9, 8, 8];
        for _ in 0..6 {
            f.accept(a.clone()).unwrap();
            f.accept(b.clone()).unwrap();
        }
        // a and b are inside the support; an unseen alphabet is novel.
        assert!(f.decision(&a) >= 0.0, "duplicate of training data is familiar");
        let novel = vec![100u8, 101, 102, 103, 100, 101, 102, 103, 100, 101];
        assert!(f.decision(&novel) < 0.0, "unseen program is novel");
    }

    #[test]
    fn empty_filter_calls_everything_novel() {
        let f = NoveltyFilter::new(3, 0.2, 5);
        assert!(f.decision(&[1, 2, 3]) < 0.0);
    }

    #[test]
    fn flow_reaches_baseline_coverage_with_fewer_simulations() {
        let template = TestTemplate::default();
        let sim = LsuSimulator::default_config();
        let mut rng = StdRng::seed_from_u64(0);
        let config = NovelSelectionConfig { n_tests: 300, ..Default::default() };
        let result = run(&template, &sim, &config, &mut rng).unwrap();
        assert!(result.max_coverage >= 2);
        let reached = result.filtered_tests_to_max.expect("filtered flow reaches max");
        assert!(
            reached <= result.baseline_tests_to_max,
            "filtered needed {reached}, baseline {}",
            result.baseline_tests_to_max
        );
    }

    #[test]
    fn curves_are_monotone() {
        let template = TestTemplate::default();
        let sim = LsuSimulator::default_config();
        let mut rng = StdRng::seed_from_u64(7);
        let config = NovelSelectionConfig { n_tests: 150, ..Default::default() };
        let result = run(&template, &sim, &config, &mut rng).unwrap();
        for curve in [&result.baseline, &result.filtered] {
            for w in curve.windows(2) {
                assert!(w[1].covered >= w[0].covered);
                assert!(w[1].cycles >= w[0].cycles);
            }
        }
    }
}
