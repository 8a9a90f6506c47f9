//! Rasterization of layout clips onto a pixel grid.

use serde::Serialize;

use crate::layout::LayoutClip;

/// A square pixel grid of `f64` intensities/coverages in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Grid {
    n: usize,
    /// Pixel edge in nm.
    pixel_nm: i32,
    data: Vec<f64>,
}

impl Grid {
    /// Creates an `n × n` zero grid.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `pixel_nm <= 0`.
    pub fn zeros(n: usize, pixel_nm: i32) -> Self {
        assert!(n > 0, "grid needs at least one pixel");
        assert!(pixel_nm > 0, "pixel size must be positive");
        Grid { n, pixel_nm, data: vec![0.0; n * n] }
    }

    /// Grid edge length in pixels.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pixel edge in nm.
    pub fn pixel_nm(&self) -> i32 {
        self.pixel_nm
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "pixel index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        assert!(row < self.n && col < self.n, "pixel index out of bounds");
        self.data[row * self.n + col] = v;
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        edm_linalg::mean(&self.data)
    }

    /// Maximum pixel value.
    pub fn max(&self) -> f64 {
        self.data.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
    }
}

/// Rasterizes a clip onto an `n × n` grid with exact area weighting:
/// each pixel holds the fraction of its area covered by drawn geometry.
///
/// # Panics
///
/// Panics if the clip size is not divisible by `n`.
pub fn rasterize(clip: &LayoutClip, n: usize) -> Grid {
    assert!(
        (clip.size() as usize).is_multiple_of(n),
        "grid size {n} must divide clip size {}",
        clip.size()
    );
    let pixel = clip.size() / n as i32;
    let mut grid = Grid::zeros(n, pixel);
    let pixel_area = (pixel as i64 * pixel as i64) as f64;
    for r in clip.rects() {
        // Pixel range touched by this rectangle.
        let c0 = (r.x0 / pixel).max(0) as usize;
        let c1 = (((r.x1 + pixel - 1) / pixel) as usize).min(n);
        let r0 = (r.y0 / pixel).max(0) as usize;
        let r1 = (((r.y1 + pixel - 1) / pixel) as usize).min(n);
        for row in r0..r1 {
            let py0 = row as i32 * pixel;
            let py1 = py0 + pixel;
            let overlap_y = (r.y1.min(py1) - r.y0.max(py0)).max(0) as f64;
            for col in c0..c1 {
                let px0 = col as i32 * pixel;
                let px1 = px0 + pixel;
                let overlap_x = (r.x1.min(px1) - r.x0.max(px0)).max(0) as f64;
                let add = overlap_x * overlap_y / pixel_area;
                let v = (grid.get(row, col) + add).min(1.0);
                grid.set(row, col, v);
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    #[test]
    fn full_coverage_pixel_is_one() {
        let clip = LayoutClip::new(64, vec![Rect::new(0, 0, 32, 32)]);
        let g = rasterize(&clip, 4); // 16 nm pixels
        assert_eq!(g.get(0, 0), 1.0);
        assert_eq!(g.get(1, 1), 1.0);
        assert_eq!(g.get(2, 2), 0.0);
    }

    #[test]
    fn partial_coverage_is_fractional() {
        // Rect covers left half of pixel (0,0).
        let clip = LayoutClip::new(64, vec![Rect::new(0, 0, 8, 16)]);
        let g = rasterize(&clip, 4);
        assert!((g.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn total_mass_conserved() {
        let clip = LayoutClip::new(128, vec![Rect::new(3, 5, 77, 40), Rect::new(90, 90, 120, 128)]);
        let g = rasterize(&clip, 16);
        let mass: f64 =
            g.as_slice().iter().sum::<f64>() * (g.pixel_nm() as f64 * g.pixel_nm() as f64);
        let drawn: i64 = clip.rects().iter().map(Rect::area).sum();
        assert!((mass - drawn as f64).abs() < 1e-6);
    }

    #[test]
    fn density_matches_grid_mean() {
        let clip = LayoutClip::new(256, vec![Rect::new(0, 0, 128, 256)]);
        let g = rasterize(&clip, 32);
        assert!((g.mean() - clip.density()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_grid_rejected() {
        let clip = LayoutClip::new(100, vec![]);
        let _ = rasterize(&clip, 3);
    }
}
