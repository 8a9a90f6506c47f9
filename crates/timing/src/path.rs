//! Timing paths: alternating cells and routed wire segments with
//! stacked vias at layer transitions, plus named feature extraction for
//! rule learning.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

use crate::library::CellKind;

/// One stage of a path: a driving cell and the wire it drives.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Stage {
    /// The driving cell.
    pub cell: CellKind,
    /// Metal layer of the stage's wire (1-based).
    pub layer: u8,
    /// Routed length in µm.
    pub length_um: f64,
}

/// A timing path: an ordered list of stages. Vias are implied by layer
/// transitions between consecutive stages (a route from M2 to M5
/// contributes vias 2-3, 3-4, 4-5).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimingPath {
    /// Path id (unique within a generated population).
    pub id: usize,
    /// The stages, launch to capture.
    pub stages: Vec<Stage>,
}

impl TimingPath {
    /// Number of stages (logic depth).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Via count per layer pair `(l, l+1)`, indexed by `l - 1`.
    ///
    /// Stage transitions contribute a stacked via for every layer
    /// crossed; the first stage starts at layer 1 (cell pins).
    pub fn via_counts(&self, n_layers: u8) -> Vec<usize> {
        let mut counts = vec![0usize; (n_layers - 1) as usize];
        let mut current = 1u8;
        for stage in &self.stages {
            let (lo, hi) = if current <= stage.layer {
                (current, stage.layer)
            } else {
                (stage.layer, current)
            };
            for l in lo..hi {
                counts[(l - 1) as usize] += 1;
            }
            // After driving the wire, the signal returns to layer 1 pins
            // only when the next stage is on a different layer; we track
            // the wire layer as the current position.
            current = stage.layer;
        }
        counts
    }

    /// Total wirelength per layer (µm), indexed by `layer - 1`.
    pub fn wirelength_per_layer(&self, n_layers: u8) -> Vec<f64> {
        let mut lens = vec![0.0; n_layers as usize];
        for s in &self.stages {
            lens[(s.layer - 1) as usize] += s.length_um;
        }
        lens
    }

    /// Count of each cell kind, in [`CellKind::ALL`] order.
    pub fn cell_counts(&self) -> Vec<usize> {
        CellKind::ALL.iter().map(|&k| self.stages.iter().filter(|s| s.cell == k).count()).collect()
    }

    /// Named features for rule learning: logic depth, per-cell counts,
    /// per-layer wirelength, per-pair via counts, total wirelength.
    pub fn features(&self, n_layers: u8) -> Vec<f64> {
        let mut f = vec![self.depth() as f64];
        f.extend(self.cell_counts().into_iter().map(|c| c as f64));
        let wl = self.wirelength_per_layer(n_layers);
        f.extend(wl.iter().copied());
        f.extend(self.via_counts(n_layers).into_iter().map(|c| c as f64));
        f.push(wl.iter().sum());
        f
    }

    /// Names for [`TimingPath::features`], in order.
    pub fn feature_names(n_layers: u8) -> Vec<String> {
        let mut names = vec!["depth".to_string()];
        names.extend(CellKind::ALL.iter().map(|k| format!("n_{}", k.name().to_lowercase())));
        names.extend((1..=n_layers).map(|l| format!("wl_m{l}")));
        names.extend((1..n_layers).map(|l| format!("via{l}{}", l + 1)));
        names.push("wl_total".to_string());
        names
    }
}

/// Random path generator for one design block.
///
/// `upper_layer_bias` is the probability that a long wire escapes to the
/// upper layers (M4–M6) through a stacked via — the mechanism that gives
/// some paths many 4-5/5-6 vias and others none, exactly the contrast
/// the Fig. 10 diagnosis keys on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PathGenerator {
    /// Stage count range.
    pub depth_range: (usize, usize),
    /// Wire length range per stage, µm.
    pub length_range: (f64, f64),
    /// Probability a stage routes on the upper layers.
    pub upper_layer_bias: f64,
    /// Number of metal layers.
    pub n_layers: u8,
}

impl Default for PathGenerator {
    fn default() -> Self {
        PathGenerator {
            depth_range: (6, 22),
            length_range: (5.0, 80.0),
            upper_layer_bias: 0.35,
            n_layers: 6,
        }
    }
}

impl PathGenerator {
    /// Generates one path with a fresh id.
    pub fn generate_with_id<R: Rng + ?Sized>(&self, id: usize, rng: &mut R) -> TimingPath {
        let depth = rng.gen_range(self.depth_range.0..=self.depth_range.1);
        let mut stages = Vec::with_capacity(depth);
        for _ in 0..depth {
            let cell = *CellKind::ALL.choose(rng).expect("non-empty library");
            let length_um = rng.gen_range(self.length_range.0..self.length_range.1);
            // Long wires want upper layers; short hops stay low.
            let layer = if rng.gen::<f64>() < self.upper_layer_bias {
                rng.gen_range(4..=self.n_layers)
            } else {
                rng.gen_range(1..=3.min(self.n_layers))
            };
            stages.push(Stage { cell, layer, length_um });
        }
        TimingPath { id, stages }
    }

    /// Generates one path with id 0 (convenience for doctests).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> TimingPath {
        self.generate_with_id(0, rng)
    }

    /// Generates a population of `n` paths with sequential ids.
    pub fn generate_population<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<TimingPath> {
        (0..n).map(|id| self.generate_with_id(id, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_stage_path() -> TimingPath {
        TimingPath {
            id: 7,
            stages: vec![
                Stage { cell: CellKind::Inv, layer: 2, length_um: 10.0 },
                Stage { cell: CellKind::Nand2, layer: 5, length_um: 40.0 },
            ],
        }
    }

    #[test]
    fn via_counts_follow_layer_transitions() {
        let p = two_stage_path();
        // start at 1 -> 2: via12; 2 -> 5: via23, via34, via45
        let v = p.via_counts(6);
        assert_eq!(v, vec![1, 1, 1, 1, 0]);
    }

    #[test]
    fn wirelength_accumulates_per_layer() {
        let p = two_stage_path();
        let wl = p.wirelength_per_layer(6);
        assert_eq!(wl[1], 10.0);
        assert_eq!(wl[4], 40.0);
        assert_eq!(wl[0], 0.0);
    }

    #[test]
    fn features_match_names() {
        let p = two_stage_path();
        assert_eq!(p.features(6).len(), TimingPath::feature_names(6).len());
        let names = TimingPath::feature_names(6);
        let f = p.features(6);
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("depth"), 2.0);
        assert_eq!(get("n_inv"), 1.0);
        assert_eq!(get("via45"), 1.0);
        assert_eq!(get("wl_total"), 50.0);
    }

    #[test]
    fn generator_respects_ranges() {
        let g = PathGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        for p in g.generate_population(50, &mut rng) {
            assert!(p.depth() >= 6 && p.depth() <= 22);
            for s in &p.stages {
                assert!(s.length_um >= 5.0 && s.length_um < 80.0);
                assert!(s.layer >= 1 && s.layer <= 6);
            }
        }
    }

    #[test]
    fn population_has_via45_contrast() {
        // Some paths have many 4-5 vias, some none — the raw material of
        // the Fig. 10 clusters.
        let g = PathGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        let pop = g.generate_population(200, &mut rng);
        let via45: Vec<usize> = pop.iter().map(|p| p.via_counts(6)[3]).collect();
        assert!(via45.contains(&0));
        assert!(via45.iter().any(|&c| c >= 5));
    }

    #[test]
    fn ids_are_sequential() {
        let g = PathGenerator::default();
        let mut rng = StdRng::seed_from_u64(3);
        let pop = g.generate_population(5, &mut rng);
        let ids: Vec<usize> = pop.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
