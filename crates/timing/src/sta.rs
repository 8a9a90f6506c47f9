//! The signoff timer: nominal static timing analysis over a path.
//!
//! Deliberately ignorant of silicon reality — its model is exactly the
//! cell library plus nominal interconnect parameters, so any systematic
//! silicon effect (resistive vias, layer RC shift) shows up as
//! *unexplained* design-silicon mismatch, which is the raw signal of the
//! Fig. 10 diagnosis.

use serde::Serialize;

use crate::library::InterconnectParams;
use crate::path::TimingPath;

/// The static timing analyzer.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Timer {
    /// Interconnect parameters assumed by the timer.
    pub interconnect: InterconnectParams,
}

impl Timer {
    /// Predicted path delay in ps: Σ cell delays + Σ wire delay +
    /// Σ via delay.
    pub fn path_delay(&self, path: &TimingPath) -> f64 {
        let mut delay = 0.0;
        for stage in &path.stages {
            delay += stage.cell.nominal_delay_ps();
            delay += stage.length_um * self.interconnect.wire_ps_per_um(stage.layer);
        }
        let n_vias: usize = path.via_counts(self.interconnect.n_layers()).iter().sum();
        delay += n_vias as f64 * self.interconnect.via_ps;
        delay
    }

    /// Predicted delays for a population.
    pub fn analyze_population(&self, paths: &[TimingPath]) -> Vec<f64> {
        paths.iter().map(|p| self.path_delay(p)).collect()
    }

    /// The `n` slowest paths by predicted delay — the timer's "critical
    /// path report" (paths *not* in this report yet slow on silicon are
    /// the Fig. 10 surprises).
    pub fn critical_paths<'a>(&self, paths: &'a [TimingPath], n: usize) -> Vec<&'a TimingPath> {
        let mut ranked: Vec<(&TimingPath, f64)> =
            paths.iter().map(|p| (p, self.path_delay(p))).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite delays"));
        ranked.into_iter().take(n).map(|(p, _)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellKind;
    use crate::path::{PathGenerator, Stage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn delay_is_additive_over_stages() {
        let one = TimingPath {
            id: 0,
            stages: vec![Stage { cell: CellKind::Inv, layer: 1, length_um: 10.0 }],
        };
        let two = TimingPath {
            id: 1,
            stages: vec![
                Stage { cell: CellKind::Inv, layer: 1, length_um: 10.0 },
                Stage { cell: CellKind::Inv, layer: 1, length_um: 10.0 },
            ],
        };
        let t = Timer::default();
        // Second stage adds the same cell+wire (no extra vias: both M1).
        let d1 = t.path_delay(&one);
        let d2 = t.path_delay(&two);
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_delay() {
        let p = TimingPath {
            id: 0,
            stages: vec![Stage { cell: CellKind::Buf, layer: 2, length_um: 20.0 }],
        };
        let t = Timer::default();
        // BUF 18 + 20 um * 1.5 ps/um + 1 via (1->2) * 2 ps = 50 ps.
        assert!((t.path_delay(&p) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn upper_layer_wire_is_faster() {
        let mk = |layer| TimingPath {
            id: 0,
            stages: vec![Stage { cell: CellKind::Inv, layer, length_um: 50.0 }],
        };
        let t = Timer::default();
        // M6 wire is faster even after paying 5 stacked vias.
        assert!(t.path_delay(&mk(6)) < t.path_delay(&mk(1)));
    }

    #[test]
    fn critical_report_is_sorted_prefix() {
        let g = PathGenerator::default();
        let mut rng = StdRng::seed_from_u64(5);
        let pop = g.generate_population(100, &mut rng);
        let t = Timer::default();
        let top = t.critical_paths(&pop, 10);
        assert_eq!(top.len(), 10);
        let worst_in_top = top.iter().map(|p| t.path_delay(p)).fold(f64::INFINITY, f64::min);
        for p in &pop {
            if !top.iter().any(|q| q.id == p.id) {
                assert!(t.path_delay(p) <= worst_in_top + 1e-9);
            }
        }
    }
}
