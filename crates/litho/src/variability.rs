//! Process-window variability analysis — the "golden lithography
//! simulation" that labels training data in the paper's Fig. 8 flow.
//!
//! The printed pattern is a threshold resist model applied to the aerial
//! image. Variability is measured by printing the clip at the corners of
//! a dose/focus process window and counting pixels whose printed state
//! flips anywhere in the window, normalized by the printed contour
//! length. Clips whose score exceeds a threshold are *bad* (hotspot-
//! prone): their geometry prints differently depending on where in the
//! window the exposure lands.

use serde::Serialize;

use crate::layout::LayoutClip;
use crate::optics::{OpticsModel, ProcessCorner};
use crate::raster::{rasterize, Grid};

/// Golden label for a clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum VariabilityLabel {
    /// Prints stably across the process window.
    Good,
    /// High print variability (hotspot-prone).
    Bad,
}

/// Result of analyzing one clip.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariabilityReport {
    /// Combined variability score: (window flips + nominal fidelity
    /// error) per contour pixel.
    pub score: f64,
    /// Thresholded label.
    pub label: VariabilityLabel,
    /// Number of pixels whose printed state flips across the window.
    pub flipped_pixels: usize,
    /// Number of pixels where the nominal print disagrees with the
    /// drawn geometry (catches sub-resolution collapse).
    pub fidelity_error_pixels: usize,
    /// Number of printed-contour pixels at nominal.
    pub contour_pixels: usize,
}

/// The golden analyzer: optics + resist threshold + process window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariabilityAnalyzer {
    /// Optical model.
    pub optics: OpticsModel,
    /// Resist print threshold on aerial intensity.
    pub resist_threshold: f64,
    /// Raster resolution (pixels per clip edge).
    pub grid_n: usize,
    /// Process-window corners evaluated against nominal.
    pub corners: Vec<ProcessCorner>,
    /// Score above which a clip is labeled [`VariabilityLabel::Bad`].
    pub bad_threshold: f64,
}

impl Default for VariabilityAnalyzer {
    fn default() -> Self {
        VariabilityAnalyzer {
            optics: OpticsModel::default(),
            // Threshold at 50 %: a straight edge prints exactly on the
            // drawn contour and its 50 %-point is defocus-invariant, so
            // stable geometry really scores near zero.
            resist_threshold: 0.5,
            grid_n: 64,
            corners: vec![
                ProcessCorner { dose: 0.96, defocus: 0.0 },
                ProcessCorner { dose: 1.04, defocus: 0.0 },
                ProcessCorner { dose: 0.98, defocus: 1.0 },
                ProcessCorner { dose: 1.02, defocus: 1.0 },
            ],
            bad_threshold: 1.2,
        }
    }
}

impl VariabilityAnalyzer {
    /// Prints the clip at a corner: `true` pixels receive enough
    /// intensity to clear the resist threshold.
    pub fn print_at(&self, clip: &LayoutClip, corner: &ProcessCorner) -> Vec<bool> {
        let mask = rasterize(clip, self.grid_n);
        let img = self.optics.aerial_image(&mask, corner);
        img.as_slice().iter().map(|&v| v >= self.resist_threshold).collect()
    }

    /// Runs the full process-window analysis on one clip.
    ///
    /// This is the *slow* golden reference the Fig. 9 model replaces:
    /// one blur per corner, versus one histogram per clip for the model.
    pub fn analyze(&self, clip: &LayoutClip) -> VariabilityReport {
        let mask = rasterize(clip, self.grid_n);
        let nominal_img = self.optics.aerial_image(&mask, &ProcessCorner::nominal());
        let nominal: Vec<bool> =
            nominal_img.as_slice().iter().map(|&v| v >= self.resist_threshold).collect();
        let mut flipped = vec![false; nominal.len()];
        for corner in &self.corners {
            let printed = self.print_at(clip, corner);
            for (f, (&a, &b)) in flipped.iter_mut().zip(nominal.iter().zip(&printed)) {
                *f |= a != b;
            }
        }
        // Fidelity: compare the nominal print with the drawn geometry.
        let intended: Vec<bool> = mask.as_slice().iter().map(|&v| v >= 0.5).collect();
        let fidelity_error_pixels =
            intended.iter().zip(&nominal).filter(|&(&i, &p)| i != p).count();
        // Normalize by the drawn contour length so the score reads as
        // "EPE-like pixels of trouble per edge pixel".
        let contour =
            contour_pixels(&intended, self.grid_n).max(contour_pixels(&nominal, self.grid_n));
        let flipped_pixels = flipped.iter().filter(|&&f| f).count();
        let contour_pixels = contour.max(1);
        let score = (flipped_pixels + fidelity_error_pixels) as f64 / contour_pixels as f64;
        let label =
            if score > self.bad_threshold { VariabilityLabel::Bad } else { VariabilityLabel::Good };
        VariabilityReport { score, label, flipped_pixels, fidelity_error_pixels, contour_pixels }
    }

    /// The aerial image at nominal (diagnostic / visualization helper).
    pub fn nominal_image(&self, clip: &LayoutClip) -> Grid {
        let mask = rasterize(clip, self.grid_n);
        self.optics.aerial_image(&mask, &ProcessCorner::nominal())
    }
}

/// Counts printed pixels with at least one unprinted 4-neighbor.
fn contour_pixels(printed: &[bool], n: usize) -> usize {
    let mut count = 0;
    for r in 0..n {
        for c in 0..n {
            if !printed[r * n + c] {
                continue;
            }
            let boundary = (r > 0 && !printed[(r - 1) * n + c])
                || (r + 1 < n && !printed[(r + 1) * n + c])
                || (c > 0 && !printed[r * n + c - 1])
                || (c + 1 < n && !printed[r * n + c + 1]);
            if boundary {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::layout::{ClipStyle, LayoutGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wide_pattern_prints_and_is_stable() {
        // One fat line, far above resolution: prints, and barely varies.
        let clip = LayoutClip::new(1024, vec![Rect::new(256, 0, 768, 1024)]);
        let a = VariabilityAnalyzer::default();
        let printed = a.print_at(&clip, &ProcessCorner::nominal());
        assert!(printed.iter().any(|&p| p), "fat line must print");
        let report = a.analyze(&clip);
        assert_eq!(report.label, VariabilityLabel::Good, "score {}", report.score);
    }

    #[test]
    fn aggressive_pitch_is_more_variable_than_relaxed() {
        let a = VariabilityAnalyzer::default();
        let tight = {
            // 48 nm lines at 96 nm pitch — at the resolution limit.
            let mut rects = Vec::new();
            let mut x = 0;
            while x < 1024 {
                rects.push(Rect::new(x, 0, x + 48, 1024));
                x += 96;
            }
            LayoutClip::new(1024, rects)
        };
        let relaxed = {
            let mut rects = Vec::new();
            let mut x = 0;
            while x < 1024 {
                rects.push(Rect::new(x, 0, x + 160, 1024));
                x += 320;
            }
            LayoutClip::new(1024, rects)
        };
        let tight_score = a.analyze(&tight).score;
        let relaxed_score = a.analyze(&relaxed).score;
        assert!(
            tight_score > relaxed_score,
            "tight {tight_score} should vary more than relaxed {relaxed_score}"
        );
    }

    #[test]
    fn empty_clip_has_zero_score() {
        let clip = LayoutClip::new(1024, vec![]);
        let report = VariabilityAnalyzer::default().analyze(&clip);
        assert_eq!(report.flipped_pixels, 0);
        assert_eq!(report.label, VariabilityLabel::Good);
    }

    #[test]
    fn generated_population_contains_both_labels() {
        let g = LayoutGenerator::default();
        let a = VariabilityAnalyzer::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut good = 0;
        let mut bad = 0;
        for _ in 0..40 {
            let (_, clip) = g.generate_random(&mut rng);
            match a.analyze(&clip).label {
                VariabilityLabel::Good => good += 1,
                VariabilityLabel::Bad => bad += 1,
            }
        }
        assert!(good > 0, "population should contain good clips");
        assert!(bad > 0, "population should contain bad clips");
    }

    #[test]
    fn contour_count_of_square_block() {
        // 4x4 printed block inside 8x8 grid: boundary = 12 pixels.
        let n = 8;
        let mut printed = vec![false; n * n];
        for r in 2..6 {
            for c in 2..6 {
                printed[r * n + c] = true;
            }
        }
        assert_eq!(contour_pixels(&printed, n), 12);
    }

    #[test]
    fn line_end_gaps_are_hotspot_prone() {
        // Line-end gaps (a classic hotspot family) score well above a
        // stable wide straight line.
        let g = LayoutGenerator::default();
        let a = VariabilityAnalyzer::default();
        let mut rng = StdRng::seed_from_u64(21);
        let wide = LayoutClip::new(1024, vec![Rect::new(256, 0, 768, 1024)]);
        let wide_score = a.analyze(&wide).score;
        let mut gap_scores = Vec::new();
        for _ in 0..15 {
            gap_scores.push(a.analyze(&g.generate(ClipStyle::LineEndGap, &mut rng)).score);
        }
        let mean_gap = edm_linalg::mean(&gap_scores);
        assert!(
            mean_gap > 2.0 * wide_score,
            "line-end gaps {mean_gap:.3} should vary much more than a wide line {wide_score:.3}"
        );
    }
}
