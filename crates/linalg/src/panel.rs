//! Feature-major lane panels: samples packed so that one lane group's
//! feature column is one contiguous load.

use std::ops::Range;

use crate::vector::{
    product, reduce_lanes, sq_diff, DIST_MISMATCH, DOT_MISMATCH, MIN_SUM_MISMATCH,
};
use crate::LANES;

/// Equal-width samples stored in groups of [`LANES`], feature-major
/// inside a group: feature `f` of samples `8g..8g + 8` are the eight
/// consecutive values `group(g)[f]`.
///
/// The `*_lanes` reductions ([`dot_lanes`](crate::dot_lanes) and its
/// siblings) gather each lane's feature from eight separate rows. A
/// panel serves the same reductions from one load per feature, with
/// the same per-lane arithmetic ([`LanePanel::dot_into`],
/// [`LanePanel::sq_dist_into`], [`LanePanel::min_sum_into`]), so every
/// value is still bitwise the serial [`dot`](crate::dot) /
/// [`sq_dist`](crate::sq_dist) / [`min_sum`](crate::min_sum) of the
/// two samples. A trailing partial group is padded with zeros that no
/// output ever reads.
///
/// [`LanePanel::swap_indices`] renumbers samples in place, so a panel
/// can follow a solver's view order instead of being rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePanel {
    len: usize,
    dim: usize,
    /// `groups × dim` feature columns of [`LANES`] samples each.
    cols: Vec<[f64; LANES]>,
}

impl LanePanel {
    /// Packs `rows` in order, or `None` when they differ in length
    /// (scoring them is then a per-pair length error, which the caller
    /// reports where it would without a panel). An empty panel has
    /// width 0.
    pub fn new(rows: &[&[f64]]) -> Option<Self> {
        let dim = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != dim) {
            return None;
        }
        let mut cols = vec![[0.0; LANES]; rows.len().div_ceil(LANES) * dim];
        for (group, samples) in cols.chunks_exact_mut(dim.max(1)).zip(rows.chunks(LANES)) {
            for (l, sample) in samples.iter().enumerate() {
                for (col, &v) in group.iter_mut().zip(*sample) {
                    col[l] = v;
                }
            }
        }
        Some(LanePanel { len: rows.len(), dim, cols })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the panel holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Features per sample.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature `f` of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `f >= self.dim()`.
    pub fn get(&self, i: usize, f: usize) -> f64 {
        assert!(i < self.len && f < self.dim, "({i}, {f}) out of bounds");
        self.cols[self.at(i, f)][i % LANES]
    }

    /// Index into `cols` of feature `f` of sample `i`'s group.
    fn at(&self, i: usize, f: usize) -> usize {
        i / LANES * self.dim + f
    }

    /// Renumbers samples by the swaps `(a, b)`, in order: afterwards
    /// the panel is the one packed from the correspondingly permuted
    /// rows. Costs `dim` element swaps per swap.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.len()`.
    pub fn swap_indices(&mut self, swaps: &[(usize, usize)]) {
        for &(a, b) in swaps {
            assert!(a < self.len && b < self.len, "swap ({a}, {b}) out of bounds");
            if a == b {
                continue;
            }
            let (la, lb) = (a % LANES, b % LANES);
            for f in 0..self.dim {
                let (pa, pb) = (self.at(a, f), self.at(b, f));
                let v = self.cols[pa][la];
                self.cols[pa][la] = self.cols[pb][lb];
                self.cols[pb][lb] = v;
            }
        }
    }

    /// `out[t] = finish(dot(a, sample(cols.start + t)))`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols.len()`, `cols.end > self.len()`,
    /// or, for a non-empty range, `a.len() != self.dim()` (with
    /// [`dot`](crate::dot)'s message).
    pub fn dot_into(
        &self,
        a: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
        finish: impl Fn(f64) -> f64,
    ) {
        self.score(a, cols, out, DOT_MISMATCH, product, finish);
    }

    /// `out[t] = finish(sq_dist(a, sample(cols.start + t)))`.
    ///
    /// # Panics
    ///
    /// As [`LanePanel::dot_into`], with [`sq_dist`](crate::sq_dist)'s
    /// message.
    pub fn sq_dist_into(
        &self,
        a: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
        finish: impl Fn(f64) -> f64,
    ) {
        self.score(a, cols, out, DIST_MISMATCH, sq_diff, finish);
    }

    /// `out[t] = finish(min_sum(a, sample(cols.start + t)))`.
    ///
    /// # Panics
    ///
    /// As [`LanePanel::dot_into`], with [`min_sum`](crate::min_sum)'s
    /// message.
    pub fn min_sum_into(
        &self,
        a: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
        finish: impl Fn(f64) -> f64,
    ) {
        self.score(a, cols, out, MIN_SUM_MISMATCH, f64::min, finish);
    }

    /// Reduces `a` against every lane group the range touches and
    /// writes the lanes inside the range. A range that starts or ends
    /// inside a group still reduces the whole group; the other lanes
    /// are dropped.
    #[inline(always)]
    fn score(
        &self,
        a: &[f64],
        cols: Range<usize>,
        out: &mut [f64],
        mismatch: &str,
        term: impl Fn(f64, f64) -> f64,
        finish: impl Fn(f64) -> f64,
    ) {
        assert_eq!(cols.len(), out.len(), "one output slot per sample");
        assert!(cols.end <= self.len, "range {cols:?} out of bounds for {} samples", self.len);
        if cols.is_empty() {
            return;
        }
        let dim = self.dim;
        assert_eq!(a.len(), dim, "{mismatch}");
        let mut out = out.iter_mut();
        let mut t = cols.start;
        while t < cols.end {
            let g = t / LANES;
            let (lo, hi) = (t - g * LANES, (cols.end - g * LANES).min(LANES));
            let group = &self.cols[g * dim..][..dim];
            let acc = reduce_lanes(a, |f| group[f], &term);
            // The group's lanes lead the zip, so it stops before taking
            // an output slot the next group fills.
            for (&v, o) in acc[lo..hi].iter().zip(&mut out) {
                *o = finish(v);
            }
            t = g * LANES + hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dot, min_sum, sq_dist};

    fn rows(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| (0..d).map(|f| ((i * 7 + f * 3) as f64 * 0.37).sin()).collect()).collect()
    }

    fn refs(rows: &[Vec<f64>]) -> Vec<&[f64]> {
        rows.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn ranges_score_bitwise_per_pair() {
        let data = rows(21, 5);
        let panel = LanePanel::new(&refs(&data)).unwrap();
        let a = [0.5, -1.25, 0.0, 2.0, -0.0];
        for (s, e) in [(0, 21), (3, 5), (7, 17), (16, 21), (9, 9)] {
            let mut out = vec![0.0; e - s];
            panel.sq_dist_into(&a, s..e, &mut out, |v| v);
            let want: Vec<u64> = data[s..e].iter().map(|b| sq_dist(&a, b).to_bits()).collect();
            assert_eq!(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
            panel.dot_into(&a, s..e, &mut out, |v| v);
            let want: Vec<u64> = data[s..e].iter().map(|b| dot(&a, b).to_bits()).collect();
            assert_eq!(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
            panel.min_sum_into(&a, s..e, &mut out, |v| v);
            let want: Vec<u64> = data[s..e].iter().map(|b| min_sum(&a, b).to_bits()).collect();
            assert_eq!(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn ragged_rows_do_not_pack() {
        assert!(LanePanel::new(&[&[1.0, 2.0], &[1.0]]).is_none());
        let empty = LanePanel::new(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 0);
    }

    #[test]
    fn swaps_match_a_repacked_panel() {
        let mut data = rows(19, 3);
        let mut panel = LanePanel::new(&refs(&data)).unwrap();
        let swaps = [(0, 18), (5, 5), (9, 2), (17, 8)];
        panel.swap_indices(&swaps);
        for &(a, b) in &swaps {
            data.swap(a, b);
        }
        assert_eq!(panel, LanePanel::new(&refs(&data)).unwrap());
        assert_eq!(panel.get(0, 2).to_bits(), data[0][2].to_bits());
    }

    #[test]
    #[should_panic(expected = "distance length mismatch")]
    fn width_mismatch_panics_like_the_serial_form() {
        let data = rows(4, 3);
        let panel = LanePanel::new(&refs(&data)).unwrap();
        panel.sq_dist_into(&[1.0, 2.0], 0..4, &mut [0.0; 4], |v| v);
    }
}
