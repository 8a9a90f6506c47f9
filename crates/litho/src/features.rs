//! Feature extraction for the fast variability predictor.
//!
//! The paper's layout work (\[13\]) represented a clip by density
//! histograms and compared clips with the histogram-intersection kernel.
//! [`density_histogram`] reproduces that: slide a window over the
//! rasterized clip, collect local pattern densities, histogram them.
//! Two clips with similar local-density *distributions* image similarly
//! under a low-pass optical system — which is exactly why the HI kernel
//! works here.

use serde::Serialize;

use crate::layout::LayoutClip;
use crate::raster::rasterize;

/// Parameters for [`density_histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HistogramSpec {
    /// Raster resolution (pixels per clip edge).
    pub grid_n: usize,
    /// Sliding-window edge in pixels.
    pub window: usize,
    /// Number of histogram bins over density `[0, 1]`.
    pub bins: usize,
}

impl Default for HistogramSpec {
    fn default() -> Self {
        HistogramSpec { grid_n: 64, window: 8, bins: 16 }
    }
}

/// Computes the local-density histogram of a clip, normalized to sum
/// to 1 (so histogram-intersection self-similarity is 1).
///
/// # Panics
///
/// Panics if `window` is zero, larger than `grid_n`, or `bins == 0`.
pub fn density_histogram(clip: &LayoutClip, spec: &HistogramSpec) -> Vec<f64> {
    assert!(spec.window > 0 && spec.window <= spec.grid_n, "bad window size");
    assert!(spec.bins > 0, "need at least one bin");
    let grid = rasterize(clip, spec.grid_n);
    let n = spec.grid_n;
    let w = spec.window;
    // Summed-area table for O(1) window sums.
    let mut sat = vec![0.0; (n + 1) * (n + 1)];
    for r in 0..n {
        for c in 0..n {
            sat[(r + 1) * (n + 1) + c + 1] =
                grid.get(r, c) + sat[r * (n + 1) + c + 1] + sat[(r + 1) * (n + 1) + c]
                    - sat[r * (n + 1) + c];
        }
    }
    let window_area = (w * w) as f64;
    let mut hist = vec![0.0; spec.bins];
    let step = (w / 2).max(1); // half-overlapping windows
    let mut count = 0.0;
    let mut r = 0;
    while r + w <= n {
        let mut c = 0;
        while c + w <= n {
            let sum = sat[(r + w) * (n + 1) + c + w]
                - sat[r * (n + 1) + c + w]
                - sat[(r + w) * (n + 1) + c]
                + sat[r * (n + 1) + c];
            let density = (sum / window_area).clamp(0.0, 1.0);
            let bin = ((density * spec.bins as f64) as usize).min(spec.bins - 1);
            hist[bin] += 1.0;
            count += 1.0;
            c += step;
        }
        r += step;
    }
    if count > 0.0 {
        for h in &mut hist {
            *h /= count;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::layout::{ClipStyle, LayoutGenerator};
    use edm_kernels::{HistogramIntersectionKernel, Kernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn histogram_sums_to_one() {
        let clip = LayoutClip::new(1024, vec![Rect::new(0, 0, 512, 1024)]);
        let h = density_histogram(&clip, &HistogramSpec::default());
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_clip_mass_in_zero_bin() {
        let clip = LayoutClip::new(1024, vec![]);
        let h = density_histogram(&clip, &HistogramSpec::default());
        assert!((h[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_clip_mass_in_top_bin() {
        let clip = LayoutClip::new(1024, vec![Rect::new(0, 0, 1024, 1024)]);
        let h = density_histogram(&clip, &HistogramSpec::default());
        assert!((h.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hi_kernel_self_similarity_is_one() {
        let g = LayoutGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        let clip = g.generate(ClipStyle::ContactArray, &mut rng);
        let h = density_histogram(&clip, &HistogramSpec::default());
        let k = HistogramIntersectionKernel::new();
        assert!((k.eval(&h, &h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_style_clips_more_similar_than_cross_style() {
        let g = LayoutGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        let spec = HistogramSpec::default();
        let k = HistogramIntersectionKernel::new();
        // Average over many draws to avoid single-sample flukes.
        let mut same = 0.0;
        let mut cross = 0.0;
        let n = 40;
        for _ in 0..n {
            let a = density_histogram(&g.generate(ClipStyle::LinesAndSpaces, &mut rng), &spec);
            let b = density_histogram(&g.generate(ClipStyle::LinesAndSpaces, &mut rng), &spec);
            let c = density_histogram(&g.generate(ClipStyle::ContactArray, &mut rng), &spec);
            same += k.eval(&a, &b);
            cross += k.eval(&a, &c);
        }
        assert!(same > cross, "same-style {same} vs cross-style {cross}");
    }
}
