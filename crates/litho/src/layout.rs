//! Layout clips and parametrized pattern generators.
//!
//! The generator produces the pattern families lithographers actually
//! fight: line/space gratings (with pitch pushing resolution), contact
//! arrays, random logic-like rectangles, dense-to-isolated transitions,
//! and line-end gaps. Hotspot propensity comes from the same physics the
//! aerial-image model captures — tight pitches, small isolated features,
//! and abrupt density transitions.

use rand::Rng;
use serde::Serialize;

use crate::geometry::Rect;

/// A square layout window holding Manhattan polygons (as rectangles).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LayoutClip {
    /// Window edge length in nm.
    size: i32,
    rects: Vec<Rect>,
}

impl LayoutClip {
    /// Creates a clip; rectangles are clipped to the window and empty
    /// ones dropped.
    ///
    /// # Panics
    ///
    /// Panics if `size <= 0`.
    pub fn new(size: i32, rects: Vec<Rect>) -> Self {
        assert!(size > 0, "clip size must be positive");
        let window = Rect::new(0, 0, size, size);
        let rects = rects
            .into_iter()
            .filter_map(|r| r.clipped(&window))
            .filter(|r| !r.is_empty())
            .collect();
        LayoutClip { size, rects }
    }

    /// Window edge length in nm.
    pub fn size(&self) -> i32 {
        self.size
    }

    /// The rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Total drawn area (overlaps double-counted; generators avoid
    /// overlaps) over window area.
    pub fn density(&self) -> f64 {
        let drawn: i64 = self.rects.iter().map(Rect::area).sum();
        drawn as f64 / (self.size as i64 * self.size as i64) as f64
    }
}

/// The pattern families the generator can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ClipStyle {
    /// Parallel lines at a random (possibly aggressive) pitch.
    LinesAndSpaces,
    /// A grid of small square contacts.
    ContactArray,
    /// Random non-overlapping logic-like rectangles.
    RandomLogic,
    /// A dense grating on one side, an isolated line on the other.
    DenseIso,
    /// Two collinear lines separated by a small line-end gap.
    LineEndGap,
}

impl ClipStyle {
    /// All styles.
    pub const ALL: [ClipStyle; 5] = [
        ClipStyle::LinesAndSpaces,
        ClipStyle::ContactArray,
        ClipStyle::RandomLogic,
        ClipStyle::DenseIso,
        ClipStyle::LineEndGap,
    ];
}

/// Parametrized random clip generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LayoutGenerator {
    /// Window edge length in nm.
    pub clip_size: i32,
    /// Minimum feature size (critical dimension) in nm.
    pub min_feature: i32,
    /// Maximum feature size in nm.
    pub max_feature: i32,
}

impl Default for LayoutGenerator {
    fn default() -> Self {
        LayoutGenerator { clip_size: 1024, min_feature: 64, max_feature: 192 }
    }
}

impl LayoutGenerator {
    /// Generates one clip of the given style.
    pub fn generate<R: Rng + ?Sized>(&self, style: ClipStyle, rng: &mut R) -> LayoutClip {
        let s = self.clip_size;
        let mut rects = Vec::new();
        match style {
            ClipStyle::LinesAndSpaces => {
                let line = rng.gen_range(self.min_feature..=self.max_feature);
                let space = rng.gen_range(self.min_feature..=self.max_feature);
                let pitch = line + space;
                let vertical: bool = rng.gen();
                let mut pos = rng.gen_range(0..pitch);
                while pos < s {
                    if vertical {
                        rects.push(Rect::new(pos, 0, pos + line, s));
                    } else {
                        rects.push(Rect::new(0, pos, s, pos + line));
                    }
                    pos += pitch;
                }
            }
            ClipStyle::ContactArray => {
                let side = rng.gen_range(self.min_feature..=self.min_feature * 2);
                let pitch = side + rng.gen_range(self.min_feature..=self.max_feature);
                let jitter = rng.gen_range(0..pitch);
                let mut y = jitter;
                while y + side <= s {
                    let mut x = jitter;
                    while x + side <= s {
                        rects.push(Rect::new(x, y, x + side, y + side));
                        x += pitch;
                    }
                    y += pitch;
                }
            }
            ClipStyle::RandomLogic => {
                let n = rng.gen_range(6..20);
                for _ in 0..n {
                    let w = rng.gen_range(self.min_feature..=self.max_feature * 2);
                    let h = rng.gen_range(self.min_feature..=self.max_feature * 2);
                    let x = rng.gen_range(0..(s - w).max(1));
                    let y = rng.gen_range(0..(s - h).max(1));
                    let cand = Rect::new(x, y, x + w, y + h);
                    if !rects.iter().any(|r: &Rect| r.intersects(&cand)) {
                        rects.push(cand);
                    }
                }
            }
            ClipStyle::DenseIso => {
                // Dense grating on the left half…
                let line = rng.gen_range(self.min_feature..=self.min_feature * 2);
                let pitch = 2 * line;
                let mut x = 0;
                while x + line < s / 2 {
                    rects.push(Rect::new(x, 0, x + line, s));
                    x += pitch;
                }
                // …one isolated line on the right.
                let iso_x = rng.gen_range(3 * s / 4..s - line);
                rects.push(Rect::new(iso_x, 0, iso_x + line, s));
            }
            ClipStyle::LineEndGap => {
                let line = rng.gen_range(self.min_feature..=self.max_feature);
                let gap = rng.gen_range(self.min_feature / 2..=self.max_feature);
                let y = rng.gen_range(s / 4..3 * s / 4);
                let split = rng.gen_range(s / 3..2 * s / 3);
                rects.push(Rect::new(0, y, split - gap / 2, y + line));
                rects.push(Rect::new(split + gap / 2, y, s, y + line));
                // context lines above and below
                let pitch = 2 * line + gap;
                if y >= pitch {
                    rects.push(Rect::new(0, y - pitch, s, y - pitch + line));
                }
                if y + pitch + line < s {
                    rects.push(Rect::new(0, y + pitch, s, y + pitch + line));
                }
            }
        }
        LayoutClip::new(s, rects)
    }

    /// Generates a clip of a uniformly random style.
    pub fn generate_random<R: Rng + ?Sized>(&self, rng: &mut R) -> (ClipStyle, LayoutClip) {
        let style = ClipStyle::ALL[rng.gen_range(0..ClipStyle::ALL.len())];
        (style, self.generate(style, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clip_clips_to_window() {
        let c =
            LayoutClip::new(100, vec![Rect::new(-50, 0, 50, 200), Rect::new(500, 500, 600, 600)]);
        assert_eq!(c.rects().len(), 1);
        assert_eq!(c.rects()[0], Rect::new(0, 0, 50, 100));
    }

    #[test]
    fn all_styles_generate_nonempty_clips() {
        let g = LayoutGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        for style in ClipStyle::ALL {
            let c = g.generate(style, &mut rng);
            assert!(!c.rects().is_empty(), "{style:?} produced an empty clip");
            assert!(c.density() > 0.0 && c.density() < 1.0, "{style:?} density {}", c.density());
        }
    }

    #[test]
    fn random_logic_rects_do_not_overlap() {
        let g = LayoutGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        let c = g.generate(ClipStyle::RandomLogic, &mut rng);
        for i in 0..c.rects().len() {
            for j in (i + 1)..c.rects().len() {
                assert!(!c.rects()[i].intersects(&c.rects()[j]));
            }
        }
    }

    #[test]
    fn lines_and_spaces_covers_full_height_or_width() {
        let g = LayoutGenerator::default();
        let mut rng = StdRng::seed_from_u64(3);
        let c = g.generate(ClipStyle::LinesAndSpaces, &mut rng);
        let full = c.rects().iter().all(|r| r.height() == c.size() || r.width() == c.size());
        assert!(full);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = LayoutGenerator::default();
        let a = g.generate(ClipStyle::ContactArray, &mut StdRng::seed_from_u64(9));
        let b = g.generate(ClipStyle::ContactArray, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
