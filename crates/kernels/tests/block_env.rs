//! `gram_matrix` must be bitwise invariant under every `EDM_BLOCK`
//! tile shape, including bands taller than a column tile (whose lower
//! rows own no cells of the panels left of their diagonal). Its own
//! test binary with one test, because the environment is
//! process-global.

use edm_kernels::{gram_matrix, Kernel, RbfKernel};

fn points(n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

#[test]
fn gram_matrix_is_bitwise_invariant_under_every_block_shape() {
    let pts = points(150, 4);
    let k = RbfKernel::new(0.8);
    let n = pts.len();
    // The builder evaluates the upper triangle `k(x_i, x_j)`, i <= j,
    // and mirrors it.
    let want: Vec<u64> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i.min(j), i.max(j))))
        .map(|(i, j)| k.eval(&pts[i], &pts[j]).to_bits())
        .collect();
    for spec in ["1x1", "3x5", "64x16", "100x7", "512", "8,16", "64x128"] {
        std::env::set_var("EDM_BLOCK", spec);
        let g = gram_matrix(&k, &pts);
        let got: Vec<u64> = (0..n).flat_map(|i| g.row(i).iter().map(|v| v.to_bits())).collect();
        assert_eq!(got, want, "EDM_BLOCK={spec}");
    }
    std::env::remove_var("EDM_BLOCK");
}
