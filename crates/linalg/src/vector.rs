//! Free functions on `&[f64]` vectors.
//!
//! These are deliberately plain functions rather than a wrapper type:
//! every crate in the workspace stores samples as `Vec<f64>` rows, and the
//! learners want to call straight into the arithmetic.

/// Dot product `⟨a, b⟩`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(&x, &y)| product(x, y)).sum()
}

/// [`dot`] of `a` with each of [`LANES`] vectors: `out[l]` is bitwise
/// `dot(a, bs[l])`.
///
/// # Panics
///
/// Panics if any `bs[l]` differs in length from `a`.
pub fn dot_lanes(a: &[f64], bs: &[&[f64]; LANES]) -> [f64; LANES] {
    reduce_lanes(a, bs, "dot product length mismatch", product)
}

/// Sum of elements.
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        sum(a) / a.len() as f64
    }
}

/// Unbiased sample variance (divides by `n - 1`); `0.0` when `n < 2`.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Euclidean norm `‖a‖₂`.
pub fn l2_norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Manhattan norm `‖a‖₁`.
pub fn l1_norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Max norm `‖a‖∞`.
pub fn linf_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Element-wise difference `a - b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "vector subtraction length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scales a vector by `s`.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Returns `a / ‖a‖₂`, or a copy of `a` when its norm is (near) zero.
pub fn normalize(a: &[f64]) -> Vec<f64> {
    let n = l2_norm(a);
    if n < 1e-300 {
        a.to_vec()
    } else {
        scale(a, 1.0 / n)
    }
}

/// Squared Euclidean distance `‖a - b‖₂²`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(&x, &y)| sq_diff(x, y)).sum()
}

/// [`sq_dist`] from `a` to each of [`LANES`] vectors: `out[l]` is
/// bitwise `sq_dist(a, bs[l])`.
///
/// # Panics
///
/// Panics if any `bs[l]` differs in length from `a`.
pub fn sq_dist_lanes(a: &[f64], bs: &[&[f64]; LANES]) -> [f64; LANES] {
    reduce_lanes(a, bs, "distance length mismatch", sq_diff)
}

/// Sum of element-wise minima `Σᵢ min(aᵢ, bᵢ)` — the intersection of
/// two histograms.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn min_sum(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "min-sum length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x.min(y)).sum()
}

/// [`min_sum`] of `a` with each of [`LANES`] vectors: `out[l]` is
/// bitwise `min_sum(a, bs[l])`.
///
/// # Panics
///
/// Panics if any `bs[l]` differs in length from `a`.
pub fn min_sum_lanes(a: &[f64], bs: &[&[f64]; LANES]) -> [f64; LANES] {
    reduce_lanes(a, bs, "min-sum length mismatch", f64::min)
}

/// How many reductions the `*_lanes` functions keep in flight.
///
/// A lone reduction is one chain of dependent adds, each waiting out
/// the adder's latency. Eight chains in one loop overlap those waits
/// and compile to packed arithmetic; for RBF at 32 features, four
/// lanes gained less than eight and sixteen no more.
pub const LANES: usize = 8;

fn product(x: f64, y: f64) -> f64 {
    x * y
}

fn sq_diff(x: f64, y: f64) -> f64 {
    (x - y) * (x - y)
}

/// `out[l] = Σᵢ term(a[i], bs[l][i])` for every lane at once. Each lane
/// adds its terms in index order starting from `-0.0`, exactly as the
/// serial `.sum()` does, so every lane is bitwise its serial twin; only
/// the interleaving of independent lanes differs.
#[inline(always)]
fn reduce_lanes(
    a: &[f64],
    bs: &[&[f64]; LANES],
    mismatch: &str,
    term: impl Fn(f64, f64) -> f64,
) -> [f64; LANES] {
    let n = a.len();
    for b in bs {
        assert_eq!(n, b.len(), "{mismatch}");
    }
    // Plain indexing over checked lengths: the bounds checks fold
    // away and the lanes compile to packed arithmetic, one
    // independent add chain per lane.
    let mut acc = [-0.0; LANES];
    for i in 0..n {
        let x = a[i];
        for l in 0..LANES {
            acc[l] += term(x, bs[l][i]);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l1_norm(&[3.0, -4.0]), 7.0);
        assert_eq!(linf_norm(&[3.0, -4.0]), 4.0);
    }

    #[test]
    fn mean_variance_basics() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert!((variance(&v) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_has_unit_norm() {
        let n = normalize(&[3.0, 4.0]);
        assert!((l2_norm(&n) - 1.0).abs() < 1e-15);
        // zero vector passes through unchanged
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn lanes_are_bitwise_their_serial_twins() {
        let a = [0.25, -1.5, 0.0, 3.0, -0.0];
        let rows: Vec<Vec<f64>> =
            (0..LANES).map(|l| a.iter().map(|x| x * (l as f64 - 3.5) - 0.0).collect()).collect();
        let bs: [&[f64]; LANES] = std::array::from_fn(|l| rows[l].as_slice());
        let bits = |v: [f64; LANES]| v.map(f64::to_bits);
        assert_eq!(bits(sq_dist_lanes(&a, &bs)), bits(bs.map(|b| sq_dist(&a, b))));
        assert_eq!(bits(dot_lanes(&a, &bs)), bits(bs.map(|b| dot(&a, b))));
        assert_eq!(bits(min_sum_lanes(&a, &bs)), bits(bs.map(|b| min_sum(&a, b))));
        // Empty vectors: every lane is the serial sum's `-0.0` start.
        let empty: [&[f64]; LANES] = [&[]; LANES];
        assert_eq!(bits(dot_lanes(&[], &empty)), [dot(&[], &[]).to_bits(); LANES]);
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    #[should_panic(expected = "distance length mismatch")]
    fn lanes_reject_mismatched_widths() {
        let mut bs: [&[f64]; LANES] = [&[1.0, 2.0]; LANES];
        bs[5] = &[1.0];
        let _ = sq_dist_lanes(&[0.0, 0.0], &bs);
    }

    #[test]
    fn sq_dist_matches_norm_of_difference() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.0, -2.0, 5.0];
        let d = sub(&a, &b);
        assert!((sq_dist(&a, &b) - dot(&d, &d)).abs() < 1e-12);
    }
}
