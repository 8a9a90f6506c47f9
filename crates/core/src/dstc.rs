//! Design-silicon timing correlation diagnosis (paper Fig. 10,
//! refs \[29\]\[31\]).
//!
//! Silicon path delays are plotted against signoff predictions; two
//! clusters appear — paths the silicon runs *fast* and paths it runs
//! *slow* relative to prediction. CN2-SD rule learning over named path
//! features then explains the slow cluster. In the paper the recovered
//! rule was "many layer-4-5 and layer-5-6 vias ⇒ slow", later confirmed
//! as a metal-5 via issue; here the silicon model injects exactly that
//! effect, so rule recovery can be scored against ground truth.

use edm_cluster::kmeans::kmeans;
use edm_learn::rules::cn2sd::{learn_rules, Cn2SdParams};
use edm_learn::rules::Rule;
use edm_learn::LearnError;
use edm_timing::path::{PathGenerator, TimingPath};
use edm_timing::silicon::SiliconModel;
use edm_timing::sta::Timer;
use rand::Rng;
use serde::Serialize;

/// Configuration of the DSTC experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DstcConfig {
    /// Paths in the analyzed design block.
    pub n_paths: usize,
    /// CN2-SD parameters for explaining the slow cluster.
    pub rule_params: Cn2SdParams,
}

impl Default for DstcConfig {
    fn default() -> Self {
        DstcConfig {
            n_paths: 600,
            rule_params: Cn2SdParams {
                max_rules: 3,
                max_conditions: 2,
                n_thresholds: 10,
                ..Default::default()
            },
        }
    }
}

/// One path's entry in the correlation plot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PathPoint {
    /// Path id.
    pub id: usize,
    /// Signoff-predicted delay, ps.
    pub predicted: f64,
    /// Measured silicon delay, ps.
    pub measured: f64,
    /// Cluster assignment (0 = fast-ish, 1 = slow).
    pub cluster: usize,
}

/// Result of the DSTC diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DstcResult {
    /// All analyzed paths with cluster labels.
    pub points: Vec<PathPoint>,
    /// Mean mismatch (measured − predicted) of the fast cluster, ps.
    pub fast_cluster_mismatch: f64,
    /// Mean mismatch of the slow cluster, ps.
    pub slow_cluster_mismatch: f64,
    /// Learned rules (rendered with feature names).
    pub rules: Vec<String>,
    /// The raw learned rules, for programmatic inspection.
    pub raw_rules: Vec<Rule>,
    /// Names of features appearing in the learned rules.
    pub implicated_features: Vec<String>,
}

impl DstcResult {
    /// Whether the diagnosis implicates a given feature (e.g. `"via45"`).
    pub fn implicates(&self, feature: &str) -> bool {
        self.implicated_features.iter().any(|f| f == feature)
    }
}

/// Runs the Fig. 10 flow: measure, cluster in mismatch space, rule-learn
/// the slow cluster over path features.
///
/// # Errors
///
/// Propagates clustering and rule-learning failures.
pub fn run<R: Rng + ?Sized>(
    generator: &PathGenerator,
    timer: &Timer,
    silicon: &SiliconModel,
    config: &DstcConfig,
    rng: &mut R,
) -> Result<DstcResult, LearnError> {
    let _span = edm_trace::span("core.dstc.run");
    let paths: Vec<TimingPath> = generator.generate_population(config.n_paths, rng);
    let predicted: Vec<f64> = paths.iter().map(|p| timer.path_delay(p)).collect();
    let measured: Vec<f64> = paths.iter().map(|p| silicon.measure(p, rng)).collect();

    // Cluster on relative mismatch — the quantity whose bimodality the
    // engineer sees in the scatter plot.
    let rel_mismatch: Vec<Vec<f64>> =
        predicted.iter().zip(&measured).map(|(&p, &m)| vec![(m - p) / p.max(1.0)]).collect();
    let clustering =
        kmeans(&rel_mismatch, 2, 200, rng).map_err(|e| LearnError::InvalidInput(e.to_string()))?;
    // Identify which cluster is the slow one.
    let mean_of = |c: usize| -> f64 {
        let vals: Vec<f64> = clustering
            .labels
            .iter()
            .zip(&predicted)
            .zip(&measured)
            .filter(|((&l, _), _)| l == c)
            .map(|((_, &p), &m)| m - p)
            .collect();
        edm_linalg::mean(&vals)
    };
    let (m0, m1) = (mean_of(0), mean_of(1));
    let slow_cluster = if m1 >= m0 { 1 } else { 0 };
    let (fast_mismatch, slow_mismatch) = if slow_cluster == 1 { (m0, m1) } else { (m1, m0) };

    let points: Vec<PathPoint> = paths
        .iter()
        .zip(&predicted)
        .zip(&measured)
        .zip(&clustering.labels)
        .map(|(((path, &p), &m), &l)| PathPoint {
            id: path.id,
            predicted: p,
            measured: m,
            cluster: usize::from(l == slow_cluster),
        })
        .collect();

    // Rule-learn the slow cluster over named path features.
    let n_layers = timer.interconnect.n_layers();
    let features: Vec<Vec<f64>> = paths.iter().map(|p| p.features(n_layers)).collect();
    let labels: Vec<i32> = points.iter().map(|pt| pt.cluster as i32).collect();
    let names = TimingPath::feature_names(n_layers);
    let raw_rules = learn_rules(&features, &labels, 1, config.rule_params)?;
    let rules: Vec<String> = raw_rules.iter().map(|r| r.display_with(&names)).collect();
    let mut implicated: Vec<String> = raw_rules
        .iter()
        .flat_map(|r| r.conditions.iter().map(|c| names[c.feature].clone()))
        .collect();
    implicated.sort();
    implicated.dedup();

    Ok(DstcResult {
        points,
        fast_cluster_mismatch: fast_mismatch,
        slow_cluster_mismatch: slow_mismatch,
        rules,
        raw_rules,
        implicated_features: implicated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_timing::silicon::SystematicEffect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn injected_silicon() -> SiliconModel {
        SiliconModel::default()
            .with_effect(SystematicEffect::ViaResistance { lower_layer: 4, extra_ps: 7.0 })
            .with_effect(SystematicEffect::ViaResistance { lower_layer: 5, extra_ps: 7.0 })
    }

    #[test]
    fn recovers_the_injected_via_story() {
        let mut rng = StdRng::seed_from_u64(17);
        let result = run(
            &PathGenerator::default(),
            &Timer::default(),
            &injected_silicon(),
            &DstcConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(
            result.slow_cluster_mismatch > result.fast_cluster_mismatch + 5.0,
            "clusters should separate: fast {} slow {}",
            result.fast_cluster_mismatch,
            result.slow_cluster_mismatch
        );
        assert!(!result.rules.is_empty(), "diagnosis should produce rules");
        assert!(
            result.implicates("via45") || result.implicates("via56"),
            "rules should implicate the injected vias, got {:?}",
            result.rules
        );
    }

    #[test]
    fn clean_silicon_produces_small_cluster_gap() {
        let mut rng = StdRng::seed_from_u64(18);
        let result = run(
            &PathGenerator::default(),
            &Timer::default(),
            &SiliconModel::default(),
            &DstcConfig::default(),
            &mut rng,
        )
        .unwrap();
        // Without a systematic effect, the two "clusters" are just noise
        // halves; the separation is a tiny fraction of typical delay.
        let gap = result.slow_cluster_mismatch - result.fast_cluster_mismatch;
        assert!(gap < 45.0, "noise-only gap was {gap} ps");
    }

    #[test]
    fn cluster_labels_cover_population() {
        let mut rng = StdRng::seed_from_u64(19);
        let config = DstcConfig { n_paths: 100, ..Default::default() };
        let result = run(
            &PathGenerator::default(),
            &Timer::default(),
            &injected_silicon(),
            &config,
            &mut rng,
        )
        .unwrap();
        assert_eq!(result.points.len(), 100);
        assert!(result.points.iter().any(|p| p.cluster == 0));
        assert!(result.points.iter().any(|p| p.cluster == 1));
    }
}
