//! Aerial-image simulation: separable Gaussian point-spread convolution
//! with dose/defocus process corners.
//!
//! The point-spread width models λ/NA blur; defocus widens it, dose
//! scales the delivered intensity. The Gaussian-incoherent approximation
//! keeps the qualitative optics the variability labels depend on
//! (proximity between dense features, contrast loss on small isolated
//! ones) at a fraction of a Hopkins model's cost.

use serde::Serialize;

use crate::raster::Grid;

/// Optical model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OpticsModel {
    /// Nominal point-spread sigma in nm (≈ 0.4 λ/NA).
    pub sigma_nm: f64,
    /// Extra sigma added (in quadrature) per 100 nm of defocus.
    pub defocus_blur_nm: f64,
}

impl Default for OpticsModel {
    fn default() -> Self {
        // 193 nm immersion-ish: λ/NA ≈ 143 nm → σ ≈ 57 nm.
        OpticsModel { sigma_nm: 55.0, defocus_blur_nm: 30.0 }
    }
}

/// One exposure condition in the process window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProcessCorner {
    /// Dose multiplier (1.0 = nominal).
    pub dose: f64,
    /// Defocus in units of 100 nm (0.0 = best focus).
    pub defocus: f64,
}

impl ProcessCorner {
    /// The nominal condition.
    pub fn nominal() -> Self {
        ProcessCorner { dose: 1.0, defocus: 0.0 }
    }
}

impl OpticsModel {
    /// Effective blur sigma at a corner (defocus adds in quadrature).
    pub fn sigma_at(&self, corner: &ProcessCorner) -> f64 {
        let d = corner.defocus * self.defocus_blur_nm;
        (self.sigma_nm * self.sigma_nm + d * d).sqrt()
    }

    /// Computes the aerial image of a rasterized mask at a process
    /// corner.
    ///
    /// # Panics
    ///
    /// Panics if the blur sigma is not positive (bad model parameters).
    pub fn aerial_image(&self, mask: &Grid, corner: &ProcessCorner) -> Grid {
        let sigma_px = self.sigma_at(corner) / mask.pixel_nm() as f64;
        assert!(sigma_px > 0.0, "blur sigma must be positive");
        let kernel = gaussian_kernel(sigma_px);
        let blurred = convolve_separable(mask, &kernel);
        // Dose scales intensity.
        let n = blurred.n();
        let mut out = Grid::zeros(n, blurred.pixel_nm());
        for r in 0..n {
            for c in 0..n {
                out.set(r, c, blurred.get(r, c) * corner.dose);
            }
        }
        out
    }
}

/// A normalized 1-D Gaussian kernel truncated at ±3σ.
fn gaussian_kernel(sigma_px: f64) -> Vec<f64> {
    let radius = (3.0 * sigma_px).ceil() as usize;
    let mut k = Vec::with_capacity(2 * radius + 1);
    for i in 0..=(2 * radius) {
        let x = i as f64 - radius as f64;
        k.push((-0.5 * (x / sigma_px) * (x / sigma_px)).exp());
    }
    let total: f64 = k.iter().sum();
    for v in &mut k {
        *v /= total;
    }
    k
}

/// Separable 2-D convolution with edge clamping (replicate-border),
/// which models geometry continuing beyond the clip window.
fn convolve_separable(grid: &Grid, kernel: &[f64]) -> Grid {
    let n = grid.n();
    let radius = kernel.len() / 2;
    let mut tmp = Grid::zeros(n, grid.pixel_nm());
    // Horizontal pass.
    for r in 0..n {
        for c in 0..n {
            let mut acc = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                let cc = (c + i).saturating_sub(radius).min(n - 1);
                acc += kv * grid.get(r, cc);
            }
            tmp.set(r, c, acc);
        }
    }
    // Vertical pass.
    let mut out = Grid::zeros(n, grid.pixel_nm());
    for r in 0..n {
        for c in 0..n {
            let mut acc = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                let rr = (r + i).saturating_sub(radius).min(n - 1);
                acc += kv * tmp.get(rr, c);
            }
            out.set(r, c, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::layout::LayoutClip;
    use crate::raster::rasterize;

    fn half_plane() -> Grid {
        let clip = LayoutClip::new(1024, vec![Rect::new(0, 0, 512, 1024)]);
        rasterize(&clip, 64)
    }

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(2.5);
        assert!((k.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn blur_preserves_mean_intensity() {
        let mask = half_plane();
        let img = OpticsModel::default().aerial_image(&mask, &ProcessCorner::nominal());
        assert!((img.mean() - mask.mean()).abs() < 0.02);
    }

    #[test]
    fn edge_becomes_smooth_ramp() {
        let mask = half_plane();
        let img = OpticsModel::default().aerial_image(&mask, &ProcessCorner::nominal());
        let mid = img.n() / 2;
        // Intensity decreases monotonically across the mask edge.
        let row = mid;
        let profile: Vec<f64> = (20..44).map(|c| img.get(row, c)).collect();
        for w in profile.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        // At the geometric edge the intensity is ≈ 0.5 (half the plane).
        assert!((img.get(row, 31) - 0.5).abs() < 0.1);
    }

    #[test]
    fn defocus_reduces_edge_slope() {
        let mask = half_plane();
        let model = OpticsModel::default();
        let focused = model.aerial_image(&mask, &ProcessCorner::nominal());
        let defocused = model.aerial_image(&mask, &ProcessCorner { dose: 1.0, defocus: 3.0 });
        let slope = |img: &Grid| {
            let r = img.n() / 2;
            (img.get(r, 28) - img.get(r, 36)).abs()
        };
        assert!(slope(&defocused) < slope(&focused));
    }

    #[test]
    fn dose_scales_intensity() {
        let mask = half_plane();
        let model = OpticsModel::default();
        let nominal = model.aerial_image(&mask, &ProcessCorner::nominal());
        let hot = model.aerial_image(&mask, &ProcessCorner { dose: 1.2, defocus: 0.0 });
        assert!((hot.get(10, 10) - 1.2 * nominal.get(10, 10)).abs() < 1e-9);
    }
}
