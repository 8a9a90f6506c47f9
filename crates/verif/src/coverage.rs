//! Coverage points of the load-store unit — the `A0..A7` of the paper's
//! Table 1.
//!
//! Each point is a microarchitectural event; the substrate is tuned so
//! that `A0`/`A1` are common under any template while `A2..A7` require
//! specific operand/dependency distributions — exactly the structure the
//! template-refinement experiment needs.

use serde::Serialize;
use std::fmt;

/// Number of coverage points.
pub const NUM_POINTS: usize = 8;

/// A load-store-unit coverage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CoveragePoint {
    /// A0 — cache hit.
    CacheHit,
    /// A1 — cache miss (fill from memory).
    CacheMiss,
    /// A2 — load fully forwarded from the store buffer.
    StoreForward,
    /// A3 — dirty line evicted by a conflicting fill.
    DirtyEviction,
    /// A4 — access crossing a cache-line boundary.
    UnalignedCross,
    /// A5 — store buffer filled to capacity.
    StoreBufferFull,
    /// A6 — load overlapping a buffered store of a different footprint
    /// (partial forward, forces a drain).
    PartialForward,
    /// A7 — a miss issued within two instructions of another miss
    /// (miss-under-miss window).
    MissBurst,
}

impl CoveragePoint {
    /// All points in `A0..A7` order.
    pub const ALL: [CoveragePoint; NUM_POINTS] = [
        CoveragePoint::CacheHit,
        CoveragePoint::CacheMiss,
        CoveragePoint::StoreForward,
        CoveragePoint::DirtyEviction,
        CoveragePoint::UnalignedCross,
        CoveragePoint::StoreBufferFull,
        CoveragePoint::PartialForward,
        CoveragePoint::MissBurst,
    ];

    /// Index `0..8` (the `k` of `Ak`).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&p| p == self).expect("point is in ALL")
    }

    /// The paper-style short name `A0..A7`.
    pub fn short_name(self) -> String {
        format!("A{}", self.index())
    }
}

impl fmt::Display for CoveragePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let long = match self {
            CoveragePoint::CacheHit => "cache_hit",
            CoveragePoint::CacheMiss => "cache_miss",
            CoveragePoint::StoreForward => "store_forward",
            CoveragePoint::DirtyEviction => "dirty_eviction",
            CoveragePoint::UnalignedCross => "unaligned_cross",
            CoveragePoint::StoreBufferFull => "store_buffer_full",
            CoveragePoint::PartialForward => "partial_forward",
            CoveragePoint::MissBurst => "miss_burst",
        };
        write!(f, "{} ({long})", self.short_name())
    }
}

/// Hit counts per coverage point (the "# of cycles the coverage point
/// was hit" of Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CoverageMap {
    counts: [u64; NUM_POINTS],
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one hit.
    pub fn record(&mut self, point: CoveragePoint) {
        self.counts[point.index()] += 1;
    }

    /// Hit count for a point.
    pub fn count(&self, point: CoveragePoint) -> u64 {
        self.counts[point.index()]
    }

    /// Whether a point has been hit at least once.
    pub fn covered(&self, point: CoveragePoint) -> bool {
        self.count(point) > 0
    }

    /// Number of distinct points hit.
    pub fn n_covered(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Total hits across all points.
    pub fn total_hits(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulates another map into this one.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Whether `other` hits any point this map has not hit — the novelty
    /// criterion "does this test add coverage".
    pub fn would_gain(&self, other: &CoverageMap) -> bool {
        self.counts.iter().zip(&other.counts).any(|(&mine, &theirs)| mine == 0 && theirs > 0)
    }

    /// Counts in `A0..A7` order.
    pub fn as_row(&self) -> [u64; NUM_POINTS] {
        self.counts
    }
}

impl fmt::Display for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "A{i}={c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_order() {
        for (i, p) in CoveragePoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.short_name(), format!("A{i}"));
        }
    }

    #[test]
    fn record_and_merge() {
        let mut a = CoverageMap::new();
        a.record(CoveragePoint::CacheHit);
        a.record(CoveragePoint::CacheHit);
        a.record(CoveragePoint::MissBurst);
        assert_eq!(a.count(CoveragePoint::CacheHit), 2);
        assert_eq!(a.n_covered(), 2);
        assert_eq!(a.total_hits(), 3);

        let mut b = CoverageMap::new();
        b.record(CoveragePoint::CacheHit);
        b.record(CoveragePoint::StoreForward);
        a.merge(&b);
        assert_eq!(a.count(CoveragePoint::CacheHit), 3);
        assert!(a.covered(CoveragePoint::StoreForward));
        assert_eq!(a.n_covered(), 3);
    }

    #[test]
    fn would_gain_detects_new_points_only() {
        let mut seen = CoverageMap::new();
        seen.record(CoveragePoint::CacheHit);
        let mut same = CoverageMap::new();
        same.record(CoveragePoint::CacheHit);
        same.record(CoveragePoint::CacheHit);
        assert!(!seen.would_gain(&same));
        let mut fresh = CoverageMap::new();
        fresh.record(CoveragePoint::DirtyEviction);
        assert!(seen.would_gain(&fresh));
    }

    #[test]
    fn display_is_compact() {
        let mut m = CoverageMap::new();
        m.record(CoveragePoint::CacheMiss);
        let s = m.to_string();
        assert!(s.starts_with("A0=0 A1=1"));
    }
}
