//! Environment-sweep tests for the blocked matrix kernels: results
//! must be **bitwise** invariant under every `EDM_BLOCK` tile shape
//! and every `EDM_NUM_THREADS` worker count. Blocking only reorders
//! *which* output cells are touched when — never the summation order
//! within a cell — so any tile geometry and any thread count must
//! reproduce the serial reference exactly.
//!
//! Environment variables are process-global, so each sweep lives in a
//! single `#[test]` that sets and restores its variable itself (the
//! same discipline as `env_thread_override_parsing` in `edm-par`).
//! This file is its own integration-test binary, i.e. its own process:
//! the sweeps here cannot leak into the other linalg test binaries.

use edm_linalg::Matrix;

/// Deterministic SplitMix64 fill; every `zero_every`-th element is
/// exactly 0.0 to exercise the zero-skip branches.
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

/// Runs all three kernels on shapes that straddle the given tile
/// geometry and asserts bitwise agreement with the serial references.
fn assert_all_kernels_serial(tag: &str) {
    let shapes = [(1usize, 1usize), (7, 70), (63, 64), (66, 129), (130, 5), (96, 96)];
    for (seed, &(rows, cols)) in shapes.iter().enumerate() {
        let a = matrix(seed as u64 * 101 + 13, rows, cols, 3);
        let b = matrix(seed as u64 * 103 + 17, cols, rows, 5);
        assert_eq!(
            bits(&a.mat_mul(&b)),
            bits(&mat_mul_serial(&a, &b)),
            "mat_mul {rows}x{cols} under {tag}"
        );
        assert_eq!(bits(&a.gram()), bits(&gram_serial(&a)), "gram {rows}x{cols} under {tag}");
        assert_eq!(
            bits(&a.transpose()),
            bits(&transpose_serial(&a)),
            "transpose {rows}x{cols} under {tag}"
        );
    }
}

/// One sequential sweep over `EDM_BLOCK` tile geometries, including
/// degenerate 1×1 tiles, tiles larger than every matrix, non-square
/// tiles in both accepted spellings, and the unset default.
#[test]
fn block_env_sweep_is_bitwise_invariant() {
    for spec in ["1", "1x1", "3x5", "8,16", "64x128", "200x200", "512"] {
        std::env::set_var("EDM_BLOCK", spec);
        assert_all_kernels_serial(&format!("EDM_BLOCK={spec}"));
    }
    std::env::remove_var("EDM_BLOCK");
    assert_all_kernels_serial("EDM_BLOCK unset");
}

/// One sequential sweep over worker counts 1..=8: whether or not the
/// fork gate splits the bands at a given width, the result must
/// reproduce the serial references bitwise (band ownership is
/// disjoint; nothing is ever re-summed).
#[test]
fn thread_env_sweep_is_bitwise_invariant() {
    for threads in 1..=8 {
        std::env::set_var("EDM_NUM_THREADS", threads.to_string());
        assert_all_kernels_serial(&format!("EDM_NUM_THREADS={threads}"));
    }
    std::env::remove_var("EDM_NUM_THREADS");
}
