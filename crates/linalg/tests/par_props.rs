//! Property tests pinning the determinism guarantee of the parallel
//! matrix kernels: `mat_mul`, `gram` (AᵀA), and `transpose` must be
//! **bitwise** identical to their serial reference loops, for any input.
//!
//! `edm-par` forks only when the work left on the calling thread is
//! estimated to outweigh a fork, so the small proptest shapes mostly
//! run on the caller. `large_shapes_fork_and_stay_bitwise_serial`
//! uses products big enough (milliseconds per band, with two workers)
//! that the forked path runs under the default `parallel` feature.

use edm_linalg::Matrix;
use proptest::prelude::*;

/// Deterministic SplitMix64 fill so `(seed, dims)` fully describes a
/// case; every `zero_every`-th element is exactly 0.0 to exercise the
/// zero-skip branches.
fn fill(seed: u64, len: usize, zero_every: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
            }
        })
        .collect()
}

fn matrix(seed: u64, rows: usize, cols: usize, zero_every: usize) -> Matrix {
    let data = fill(seed, rows * cols, zero_every);
    Matrix::from_rows(&data.chunks(cols).map(<[f64]>::to_vec).collect::<Vec<_>>())
}

fn bits(m: &Matrix) -> Vec<u64> {
    (0..m.rows()).flat_map(|i| m.row(i).iter().map(|v| v.to_bits())).collect()
}

/// Serial i-k-j product with the same zero-skip as the implementation.
fn mat_mul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

/// Serial AᵀA: upper triangle in ascending sample order (with the same
/// zero-skip), then mirrored.
fn gram_serial(a: &Matrix) -> Matrix {
    let c = a.cols();
    let mut g = Matrix::zeros(c, c);
    for i in 0..c {
        for r in 0..a.rows() {
            let ri = a[(r, i)];
            if ri == 0.0 {
                continue;
            }
            for j in i..c {
                g[(i, j)] += ri * a[(r, j)];
            }
        }
    }
    for i in 1..c {
        for j in 0..i {
            g[(i, j)] = g[(j, i)];
        }
    }
    g
}

fn transpose_serial(a: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            t[(c, r)] = a[(r, c)];
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_mat_mul_is_bitwise_serial(
        seed in 0u64..1_000_000,
        rows in 64usize..80,
        inner in 1usize..24,
        cols in 64usize..80,
    ) {
        let a = matrix(seed, rows, inner, 3);
        let b = matrix(seed ^ 0xABCD, inner, cols, 5);
        prop_assert_eq!(bits(&a.mat_mul(&b)), bits(&mat_mul_serial(&a, &b)));
    }

    #[test]
    fn parallel_gram_is_bitwise_serial(
        seed in 0u64..1_000_000,
        rows in 1usize..40,
        cols in 64usize..80,
    ) {
        let a = matrix(seed, rows, cols, 4);
        prop_assert_eq!(bits(&a.gram()), bits(&gram_serial(&a)));
    }

    #[test]
    fn parallel_transpose_is_bitwise_serial(
        seed in 0u64..1_000_000,
        rows in 64usize..80,
        cols in 64usize..80,
    ) {
        let a = matrix(seed, rows, cols, 7);
        prop_assert_eq!(bits(&a.transpose()), bits(&transpose_serial(&a)));
    }

    #[test]
    fn tiled_kernels_handle_ragged_shapes(
        seed in 0u64..1_000_000,
        rows in 1usize..72,
        cols in 1usize..72,
    ) {
        // Small and awkward dims: below the default tile, not a
        // multiple of it, single row/column. These stay on the calling
        // thread, but still go through the blocked loops.
        let a = matrix(seed, rows, cols, 3);
        let b = matrix(seed ^ 0xF00D, cols, rows, 5);
        prop_assert_eq!(bits(&a.mat_mul(&b)), bits(&mat_mul_serial(&a, &b)));
        prop_assert_eq!(bits(&a.gram()), bits(&gram_serial(&a)));
        prop_assert_eq!(bits(&a.transpose()), bits(&transpose_serial(&a)));
    }
}

/// The exact boundary cases named in the blocked-compute contract:
/// dims below one tile, one past a tile boundary, not a multiple of
/// either block dimension, and the degenerate d = 1.
#[test]
fn tiled_kernels_cover_tile_boundary_shapes() {
    // (rows, cols) pairs straddling the default 64×128 BlockSpec.
    let shapes = [(1, 1), (1, 130), (63, 64), (64, 65), (65, 127), (128, 129), (129, 1), (200, 3)];
    for (seed, &(rows, cols)) in shapes.iter().enumerate() {
        let a = matrix(seed as u64 * 31 + 7, rows, cols, 4);
        let b = matrix(seed as u64 * 37 + 11, cols, rows, 6);
        assert_eq!(bits(&a.mat_mul(&b)), bits(&mat_mul_serial(&a, &b)), "mat_mul {rows}x{cols}");
        assert_eq!(bits(&a.gram()), bits(&gram_serial(&a)), "gram {rows}x{cols}");
        assert_eq!(bits(&a.transpose()), bits(&transpose_serial(&a)), "transpose {rows}x{cols}");
    }
}

/// Shapes whose bands each cost far more than a fork, so `mat_mul` and
/// `gram` split their bands over two workers.
#[test]
fn large_shapes_fork_and_stay_bitwise_serial() {
    std::env::set_var("EDM_NUM_THREADS", "2");
    let a = matrix(0x1A2B, 256, 96, 3);
    let b = matrix(0x3C4D, 96, 256, 5);
    assert_eq!(bits(&a.mat_mul(&b)), bits(&mat_mul_serial(&a, &b)), "mat_mul 256x96x256");
    let c = matrix(0x5E6F, 96, 256, 4);
    assert_eq!(bits(&c.gram()), bits(&gram_serial(&c)), "gram 96x256");
    assert_eq!(bits(&b.transpose()), bits(&transpose_serial(&b)), "transpose 96x256");
}

/// `mirror_upper_to_lower` copies each strict-upper cell onto its
/// transpose and touches nothing else, at sizes below one band and
/// across many (each band is about 64 Ki lower cells, so n = 1100
/// splits into several bands that two workers share).
#[test]
fn mirror_is_a_bitwise_copy_of_the_upper_triangle() {
    std::env::set_var("EDM_NUM_THREADS", "2");
    for n in [0, 1, 2, 63, 64, 65, 130, 1100] {
        let m = Matrix::from_vec(n, n, fill(0x41 + n as u64, n * n, 6));
        let mut mirrored = m.clone();
        mirrored.mirror_upper_to_lower();
        for i in 0..n {
            for j in 0..n {
                let want = if j < i { m[(j, i)] } else { m[(i, j)] };
                assert_eq!(mirrored[(i, j)].to_bits(), want.to_bits(), "n = {n}, ({i}, {j})");
            }
        }
    }
}
