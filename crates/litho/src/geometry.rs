//! Manhattan geometry: axis-aligned rectangles in integer nanometres.

use serde::Serialize;

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)` in nanometres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i32,
    /// Bottom edge (inclusive).
    pub y0: i32,
    /// Right edge (exclusive).
    pub x1: i32,
    /// Top edge (exclusive).
    pub y1: i32,
}

impl Rect {
    /// Creates a rectangle; coordinates are normalized so `x0 <= x1`,
    /// `y0 <= y1`.
    pub fn new(x0: i32, y0: i32, x1: i32, y1: i32) -> Self {
        Rect { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// Width in nm.
    pub fn width(&self) -> i32 {
        self.x1 - self.x0
    }

    /// Height in nm.
    pub fn height(&self) -> i32 {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i64 {
        self.width() as i64 * self.height() as i64
    }

    /// Whether the rectangle encloses zero area.
    pub fn is_empty(&self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// Whether two rectangles overlap (shared boundary does not count).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// The overlap region, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// Clips this rectangle to a window, if anything remains.
    pub fn clipped(&self, window: &Rect) -> Option<Rect> {
        self.intersection(window)
    }

    /// Translates by `(dx, dy)`.
    pub fn translated(&self, dx: i32, dy: i32) -> Rect {
        Rect { x0: self.x0 + dx, y0: self.y0 + dy, x1: self.x1 + dx, y1: self.y1 + dy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_dimensions() {
        let r = Rect::new(10, 20, 0, 0);
        assert_eq!((r.x0, r.y0, r.x1, r.y1), (0, 0, 10, 20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 20);
        assert_eq!(r.area(), 200);
        assert!(!r.is_empty());
        assert!(Rect::new(5, 5, 5, 9).is_empty());
    }

    #[test]
    fn intersection_logic() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        let c = Rect::new(10, 0, 20, 10); // touches a at x = 10
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(5, 5, 10, 10));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn clip_to_window() {
        let w = Rect::new(0, 0, 100, 100);
        let inside = Rect::new(10, 10, 20, 20);
        let spanning = Rect::new(-50, 50, 50, 150);
        let outside = Rect::new(200, 200, 300, 300);
        assert_eq!(inside.clipped(&w), Some(inside));
        assert_eq!(spanning.clipped(&w), Some(Rect::new(0, 50, 50, 100)));
        assert_eq!(outside.clipped(&w), None);
    }

    #[test]
    fn translation() {
        let r = Rect::new(0, 0, 4, 4).translated(10, -2);
        assert_eq!(r, Rect::new(10, -2, 14, 2));
    }
}
