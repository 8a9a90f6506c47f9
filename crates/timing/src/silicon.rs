//! The silicon delay model: what paths *actually* do on the tester.
//!
//! Starts from the same physics as the timer, then applies injectable
//! systematic effects (unknown to the timer) plus global and random
//! variation. The injected effect is the experiment's ground truth: the
//! DSTC flow must rediscover it from data.

use rand::Rng;
use serde::Serialize;

use crate::library::InterconnectParams;
use crate::path::TimingPath;
use crate::sta::Timer;

/// A systematic silicon effect the signoff timer does not know about.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SystematicEffect {
    /// Every via between `lower_layer` and `lower_layer + 1` is
    /// resistive: adds `extra_ps` per via. (The paper's confirmed metal-5
    /// root cause is two of these: lower layers 4 and 5.)
    ViaResistance {
        /// Lower layer of the affected via pair.
        lower_layer: u8,
        /// Added delay per via, ps.
        extra_ps: f64,
    },
    /// Wires on `layer` are slower/faster than modeled by `factor`.
    LayerRcShift {
        /// Affected metal layer (1-based).
        layer: u8,
        /// Multiplier on that layer's wire delay (1.0 = nominal).
        factor: f64,
    },
    /// All cell delays scale by `factor` (global process shift).
    CellSpeedShift {
        /// Multiplier on every cell delay.
        factor: f64,
    },
}

/// The silicon model: nominal physics + systematic effects + variation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SiliconModel {
    /// True interconnect parameters (same nominal values as the timer).
    pub interconnect: InterconnectParams,
    /// Injected systematic effects.
    pub effects: Vec<SystematicEffect>,
    /// Relative sigma of multiplicative random variation per path.
    pub random_sigma: f64,
}

impl Default for SiliconModel {
    fn default() -> Self {
        SiliconModel {
            interconnect: InterconnectParams::default(),
            effects: Vec::new(),
            random_sigma: 0.02,
        }
    }
}

impl SiliconModel {
    /// Adds a systematic effect (builder-style).
    pub fn with_effect(mut self, effect: SystematicEffect) -> Self {
        self.effects.push(effect);
        self
    }

    /// Sets the random-variation sigma (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_random_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        self.random_sigma = sigma;
        self
    }

    /// The deterministic (noise-free) silicon delay of a path.
    pub fn systematic_delay(&self, path: &TimingPath) -> f64 {
        let n_layers = self.interconnect.n_layers();
        let mut cell_factor = 1.0;
        let mut layer_factors = vec![1.0; n_layers as usize];
        let mut via_extra = vec![0.0; (n_layers - 1) as usize];
        for e in &self.effects {
            match *e {
                SystematicEffect::ViaResistance { lower_layer, extra_ps } => {
                    if lower_layer >= 1 && lower_layer < n_layers {
                        via_extra[(lower_layer - 1) as usize] += extra_ps;
                    }
                }
                SystematicEffect::LayerRcShift { layer, factor } => {
                    if layer >= 1 && layer <= n_layers {
                        layer_factors[(layer - 1) as usize] *= factor;
                    }
                }
                SystematicEffect::CellSpeedShift { factor } => cell_factor *= factor,
            }
        }
        let mut delay = 0.0;
        for stage in &path.stages {
            delay += stage.cell.nominal_delay_ps() * cell_factor;
            delay += stage.length_um
                * self.interconnect.wire_ps_per_um(stage.layer)
                * layer_factors[(stage.layer - 1) as usize];
        }
        for (i, &count) in path.via_counts(n_layers).iter().enumerate() {
            delay += count as f64 * (self.interconnect.via_ps + via_extra[i]);
        }
        delay
    }

    /// One silicon measurement: systematic delay times a lognormal-ish
    /// random factor.
    pub fn measure<R: Rng + ?Sized>(&self, path: &TimingPath, rng: &mut R) -> f64 {
        let noise = 1.0 + self.random_sigma * edm_linalg::sample::standard_normal(rng);
        self.systematic_delay(path) * noise.max(0.5)
    }

    /// Measures a population (one die).
    pub fn measure_population<R: Rng + ?Sized>(
        &self,
        paths: &[TimingPath],
        rng: &mut R,
    ) -> Vec<f64> {
        paths.iter().map(|p| self.measure(p, rng)).collect()
    }
}

/// Convenience: predicted-vs-measured pairs for a population.
pub fn correlate<R: Rng + ?Sized>(
    timer: &Timer,
    silicon: &SiliconModel,
    paths: &[TimingPath],
    rng: &mut R,
) -> Vec<(f64, f64)> {
    paths.iter().map(|p| (timer.path_delay(p), silicon.measure(p, rng))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellKind;
    use crate::path::{PathGenerator, Stage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn via_heavy_path() -> TimingPath {
        TimingPath {
            id: 0,
            stages: vec![
                Stage { cell: CellKind::Inv, layer: 6, length_um: 10.0 },
                Stage { cell: CellKind::Inv, layer: 1, length_um: 10.0 },
                Stage { cell: CellKind::Inv, layer: 6, length_um: 10.0 },
            ],
        }
    }

    fn low_path() -> TimingPath {
        TimingPath {
            id: 1,
            stages: vec![
                Stage { cell: CellKind::Inv, layer: 1, length_um: 10.0 },
                Stage { cell: CellKind::Inv, layer: 2, length_um: 10.0 },
                Stage { cell: CellKind::Inv, layer: 1, length_um: 10.0 },
            ],
        }
    }

    #[test]
    fn no_effects_matches_timer() {
        let silicon = SiliconModel::default();
        let timer = Timer::default();
        let p = via_heavy_path();
        assert!((silicon.systematic_delay(&p) - timer.path_delay(&p)).abs() < 1e-9);
    }

    #[test]
    fn via_resistance_hits_only_affected_paths() {
        let silicon = SiliconModel::default()
            .with_effect(SystematicEffect::ViaResistance { lower_layer: 4, extra_ps: 6.0 })
            .with_effect(SystematicEffect::ViaResistance { lower_layer: 5, extra_ps: 6.0 });
        let timer = Timer::default();
        let heavy = via_heavy_path(); // 3 crossings of 4-5 and 5-6 each
        let light = low_path(); // none
        let heavy_mismatch = silicon.systematic_delay(&heavy) - timer.path_delay(&heavy);
        let light_mismatch = silicon.systematic_delay(&light) - timer.path_delay(&light);
        assert!((light_mismatch).abs() < 1e-9);
        // 3 via45 + 3 via56 crossings × 6 ps = 36 ps
        assert!((heavy_mismatch - 36.0).abs() < 1e-9, "got {heavy_mismatch}");
    }

    #[test]
    fn layer_rc_shift_scales_wire_only() {
        let silicon = SiliconModel::default()
            .with_effect(SystematicEffect::LayerRcShift { layer: 1, factor: 2.0 });
        let p = low_path(); // 20 um on M1 at 1.8 ps/um -> +36 ps
        let timer = Timer::default();
        let mismatch = silicon.systematic_delay(&p) - timer.path_delay(&p);
        assert!((mismatch - 36.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_noise_has_requested_scale() {
        let silicon = SiliconModel::default().with_random_sigma(0.05);
        let p = via_heavy_path();
        let mut rng = StdRng::seed_from_u64(4);
        let base = silicon.systematic_delay(&p);
        let samples: Vec<f64> = (0..4000).map(|_| silicon.measure(&p, &mut rng) / base).collect();
        assert!((edm_linalg::mean(&samples) - 1.0).abs() < 0.01);
        assert!((edm_linalg::variance(&samples).sqrt() - 0.05).abs() < 0.01);
    }

    #[test]
    fn correlate_pairs_have_positive_correlation() {
        let g = PathGenerator::default();
        let mut rng = StdRng::seed_from_u64(6);
        let pop = g.generate_population(200, &mut rng);
        let pairs = correlate(&Timer::default(), &SiliconModel::default(), &pop, &mut rng);
        let pred: Vec<f64> = pairs.iter().map(|&(p, _)| p).collect();
        let meas: Vec<f64> = pairs.iter().map(|&(_, m)| m).collect();
        assert!(edm_linalg::stats::pearson(&pred, &meas) > 0.95);
    }
}
