//! Fig. 10 — diagnosing unexpected timing paths: paths from one design
//! block split into fast-vs-slow clusters against prediction, and rule
//! learning uncovers "many layer-4-5 and layer-5-6 vias ⇒ slow" — the
//! injected (and, in the paper, silicon-confirmed) metal-5 root cause.

use crate::Report;
use edm_core::dstc::{self, DstcConfig};
use edm_timing::path::PathGenerator;
use edm_timing::silicon::{SiliconModel, SystematicEffect};
use edm_timing::sta::Timer;

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 10: design-silicon timing correlation diagnosis");
    let silicon = SiliconModel::default()
        .with_effect(SystematicEffect::ViaResistance { lower_layer: 4, extra_ps: 7.0 })
        .with_effect(SystematicEffect::ViaResistance { lower_layer: 5, extra_ps: 7.0 });
    let config = DstcConfig { n_paths: 1200, ..Default::default() };
    let mut rng = crate::rng(10, s);
    let result =
        dstc::run(&PathGenerator::default(), &Timer::default(), &silicon, &config, &mut rng)
            .expect("flow runs");

    let n_slow = result.points.iter().filter(|p| p.cluster == 1).count();
    let n_fast = result.points.iter().filter(|p| p.cluster == 0).count();
    outln!(r, "paths analyzed: {}", result.points.len());
    let (fast_ps, slow_ps) = (result.fast_cluster_mismatch, result.slow_cluster_mismatch);
    outln!(r, "fast cluster: {n_fast} paths, mean mismatch {fast_ps:+.1} ps");
    outln!(r, "slow cluster: {n_slow} paths, mean mismatch {slow_ps:+.1} ps");
    outln!(r, "\nscatter sample (predicted ps -> measured ps, cluster):");
    for p in result.points.iter().step_by(151) {
        let side = if p.cluster == 1 { "slow" } else { "fast" };
        outln!(r, "  {:>7.1} -> {:>7.1}   {side}", p.predicted, p.measured);
    }
    outln!(r, "\nlearned rules explaining the slow cluster:");
    for rule in &result.rules {
        outln!(r, "  {rule}");
    }

    let gap = slow_ps - fast_ps;
    let names = edm_timing::path::TimingPath::feature_names(6);
    let primary_is_via = result.raw_rules.first().is_some_and(|rule| {
        rule.conditions.iter().any(|c| {
            names[c.feature].starts_with("via4") || names[c.feature].starts_with("via5")
        })
    });
    r.claim(&format!("two clusters separate clearly (gap {gap:.1} ps)"), gap > 10.0);
    r.claim(
        "the rule implicates the layer-4-5 / 5-6 vias (the injected root cause)",
        result.implicates("via45") || result.implicates("via56"),
    );
    r.claim(
        "the rule does NOT implicate an innocent feature as its primary condition",
        primary_is_via,
    );
}
