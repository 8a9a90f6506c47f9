//! Wafer maps and spatial failure patterns.
//!
//! The paper's ref \[32\] ("A Pattern Mining Framework for Inter-Wafer
//! Abnormality Analysis") works on wafer-level structure: failures are
//! not i.i.d. across a wafer but cluster into signatures — edge rings
//! (etch/anneal gradients), center spots (CMP), scratches (handling).
//! This module provides a die-grid wafer map, signature injection, and
//! the per-wafer summaries that pattern mining consumes.

use rand::Rng;
use serde::Serialize;

/// Result of testing one die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DieResult {
    /// Die passed all tests.
    Pass,
    /// Die failed (bin code 1..).
    Fail(u8),
    /// Position outside the circular wafer.
    OffWafer,
}

/// A spatial failure signature that can be stamped onto a wafer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SpatialSignature {
    /// Elevated failure rate in an outer annulus (fraction of radius).
    EdgeRing {
        /// Inner radius of the ring as a fraction of the wafer radius.
        inner: f64,
        /// Failure probability inside the ring.
        fail_prob: f64,
    },
    /// Elevated failure rate inside a central disc.
    CenterSpot {
        /// Radius of the spot as a fraction of the wafer radius.
        radius: f64,
        /// Failure probability inside the spot.
        fail_prob: f64,
    },
    /// A straight scratch across the wafer at the given angle through
    /// the center, one die wide.
    Scratch {
        /// Angle in radians.
        angle: f64,
        /// Failure probability on the scratch line.
        fail_prob: f64,
    },
}

/// A square die grid clipped to a circular wafer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WaferMap {
    /// Grid edge in dies.
    n: usize,
    dies: Vec<DieResult>,
}

impl WaferMap {
    /// Creates an all-pass wafer of `n × n` grid positions (dies outside
    /// the inscribed circle are [`DieResult::OffWafer`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "wafer grid needs at least 3x3 dies");
        let mut dies = vec![DieResult::Pass; n * n];
        for r in 0..n {
            for c in 0..n {
                if Self::radius_of(n, r, c) > 1.0 {
                    dies[r * n + c] = DieResult::OffWafer;
                }
            }
        }
        WaferMap { n, dies }
    }

    fn radius_of(n: usize, row: usize, col: usize) -> f64 {
        let half = (n as f64 - 1.0) / 2.0;
        let dr = row as f64 - half;
        let dc = col as f64 - half;
        (dr * dr + dc * dc).sqrt() / half.max(1.0)
    }

    /// Grid edge in dies.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The die at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn die(&self, row: usize, col: usize) -> DieResult {
        assert!(row < self.n && col < self.n, "die index out of bounds");
        self.dies[row * self.n + col]
    }

    /// Number of on-wafer dies.
    pub fn n_dies(&self) -> usize {
        self.dies.iter().filter(|d| **d != DieResult::OffWafer).count()
    }

    /// Number of failing dies.
    pub fn n_fails(&self) -> usize {
        self.dies.iter().filter(|d| matches!(d, DieResult::Fail(_))).count()
    }

    /// Yield = passing / on-wafer dies.
    pub fn yield_fraction(&self) -> f64 {
        let on = self.n_dies().max(1);
        (on - self.n_fails()) as f64 / on as f64
    }

    /// Applies baseline random defectivity: each passing die fails with
    /// probability `rate` (bin 1).
    pub fn with_random_defects<R: Rng + ?Sized>(mut self, rate: f64, rng: &mut R) -> Self {
        for d in &mut self.dies {
            if *d == DieResult::Pass && rng.gen::<f64>() < rate {
                *d = DieResult::Fail(1);
            }
        }
        self
    }

    /// Stamps a spatial signature (bin 2 = edge, 3 = center, 4 = scratch).
    pub fn with_signature<R: Rng + ?Sized>(mut self, sig: SpatialSignature, rng: &mut R) -> Self {
        let n = self.n;
        for r in 0..n {
            for c in 0..n {
                if self.dies[r * n + c] != DieResult::Pass {
                    continue;
                }
                let rad = Self::radius_of(n, r, c);
                let (hit, bin, p) = match sig {
                    SpatialSignature::EdgeRing { inner, fail_prob } => (rad >= inner, 2, fail_prob),
                    SpatialSignature::CenterSpot { radius, fail_prob } => {
                        (rad <= radius, 3, fail_prob)
                    }
                    SpatialSignature::Scratch { angle, fail_prob } => {
                        let half = (n as f64 - 1.0) / 2.0;
                        let dr = r as f64 - half;
                        let dc = c as f64 - half;
                        // distance from the line through the center
                        let dist = (dc * angle.sin() - dr * angle.cos()).abs();
                        (dist < 0.6, 4, fail_prob)
                    }
                };
                if hit && rng.gen::<f64>() < p {
                    self.dies[r * n + c] = DieResult::Fail(bin);
                }
            }
        }
        self
    }

    /// Spatial summary features for inter-wafer mining:
    /// `[yield, edge_fail_rate, center_fail_rate, line_collinearity]`.
    ///
    /// `line_collinearity` is the fraction of failing dies lying within
    /// one die of the best-fit line through the failure centroid —
    /// near 1 for scratches, lower for diffuse patterns.
    pub fn spatial_features(&self) -> Vec<f64> {
        let n = self.n;
        let mut edge_fail = 0usize;
        let mut edge_total = 0usize;
        let mut center_fail = 0usize;
        let mut center_total = 0usize;
        let mut fails: Vec<(f64, f64)> = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let d = self.dies[r * n + c];
                if d == DieResult::OffWafer {
                    continue;
                }
                let rad = Self::radius_of(n, r, c);
                let failed = matches!(d, DieResult::Fail(_));
                if rad >= 0.8 {
                    edge_total += 1;
                    if failed {
                        edge_fail += 1;
                    }
                } else if rad <= 0.35 {
                    center_total += 1;
                    if failed {
                        center_fail += 1;
                    }
                }
                if failed {
                    fails.push((r as f64, c as f64));
                }
            }
        }
        // Collinearity via the principal axis of the failure scatter.
        let collinearity = if fails.len() >= 3 {
            let mr = fails.iter().map(|f| f.0).sum::<f64>() / fails.len() as f64;
            let mc = fails.iter().map(|f| f.1).sum::<f64>() / fails.len() as f64;
            let (mut srr, mut scc, mut src) = (0.0, 0.0, 0.0);
            for &(r, c) in &fails {
                srr += (r - mr) * (r - mr);
                scc += (c - mc) * (c - mc);
                src += (r - mr) * (c - mc);
            }
            // principal direction of the 2x2 scatter
            let theta = 0.5 * (2.0 * src).atan2(srr - scc);
            let (dir_r, dir_c) = (theta.cos(), theta.sin());
            let near = fails
                .iter()
                .filter(|&&(r, c)| {
                    let dist = ((c - mc) * dir_r - (r - mr) * dir_c).abs();
                    dist <= 1.0
                })
                .count();
            near as f64 / fails.len() as f64
        } else {
            0.0
        };
        vec![
            self.yield_fraction(),
            edge_fail as f64 / edge_total.max(1) as f64,
            center_fail as f64 / center_total.max(1) as f64,
            collinearity,
        ]
    }

    /// Names for [`WaferMap::spatial_features`].
    pub fn spatial_feature_names() -> Vec<String> {
        ["yield", "edge_fail_rate", "center_fail_rate", "line_collinearity"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// The set of distinct fail bins present (for association mining:
    /// one transaction per wafer).
    pub fn fail_bins(&self) -> Vec<u32> {
        let mut bins: Vec<u32> = self
            .dies
            .iter()
            .filter_map(|d| match d {
                DieResult::Fail(b) => Some(*b as u32),
                _ => None,
            })
            .collect();
        bins.sort_unstable();
        bins.dedup();
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_wafer_is_circular_and_clean() {
        let w = WaferMap::new(15);
        assert_eq!(w.die(7, 7), DieResult::Pass); // center
        assert_eq!(w.die(0, 0), DieResult::OffWafer); // corner
        assert_eq!(w.n_fails(), 0);
        assert_eq!(w.yield_fraction(), 1.0);
        // circle of radius (n-1)/2 dies: area ≈ π·7²/15² of the grid
        let expected = std::f64::consts::PI * 7.0 * 7.0 / (15.0 * 15.0);
        let frac = w.n_dies() as f64 / (15.0 * 15.0);
        assert!((frac - expected).abs() < 0.08, "{frac} vs {expected}");
    }

    #[test]
    fn edge_ring_fails_concentrate_at_edge() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = WaferMap::new(21)
            .with_signature(SpatialSignature::EdgeRing { inner: 0.85, fail_prob: 0.9 }, &mut rng);
        let f = w.spatial_features();
        let names = WaferMap::spatial_feature_names();
        let get = |n: &str| f[names.iter().position(|x| x == n).unwrap()];
        assert!(get("edge_fail_rate") > 0.3, "edge rate {}", get("edge_fail_rate"));
        assert!(get("center_fail_rate") < 0.05);
        assert_eq!(w.fail_bins(), vec![2]);
    }

    #[test]
    fn center_spot_is_the_mirror_case() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = WaferMap::new(21)
            .with_signature(SpatialSignature::CenterSpot { radius: 0.3, fail_prob: 0.9 }, &mut rng);
        let f = w.spatial_features();
        assert!(f[2] > 0.3, "center rate {}", f[2]);
        assert!(f[1] < 0.05, "edge rate {}", f[1]);
    }

    #[test]
    fn scratch_is_collinear() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = WaferMap::new(25)
            .with_signature(SpatialSignature::Scratch { angle: 0.7, fail_prob: 1.0 }, &mut rng);
        let f = w.spatial_features();
        assert!(f[3] > 0.9, "collinearity {}", f[3]);
        // random defects are not collinear
        let mut rng = StdRng::seed_from_u64(4);
        let noisy = WaferMap::new(25).with_random_defects(0.1, &mut rng);
        assert!(noisy.spatial_features()[3] < 0.7);
    }

    #[test]
    fn yield_accounts_only_on_wafer_dies() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = WaferMap::new(15).with_random_defects(0.2, &mut rng);
        let expected = 1.0 - w.n_fails() as f64 / w.n_dies() as f64;
        assert!((w.yield_fraction() - expected).abs() < 1e-12);
    }
}
