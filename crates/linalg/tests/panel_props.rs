//! A `LanePanel` renumbered by any sequence of `swap_indices` calls is
//! the panel packed from the correspondingly permuted rows, value for
//! value (bits included), for any sample count and width.

use edm_linalg::{sq_dist, LanePanel};
use proptest::prelude::*;

/// Deterministic rows in `[-1, 1)`, with a signed zero or a NaN now and
/// then, so bit-level equality is what is checked.
fn rows(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| match next() {
                    z if z % 11 == 0 => -0.0,
                    z if z % 13 == 0 => f64::NAN,
                    z => (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0,
                })
                .collect()
        })
        .collect()
}

fn pack(rows: &[Vec<f64>]) -> LanePanel {
    LanePanel::new(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>()).expect("equal widths")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn swapped_panel_is_the_repacked_permutation(
        seed in 0u64..1_000_000,
        n in 1usize..40,
        d in 0usize..6,
        ends in proptest::collection::vec(0usize..1_000_000, 0..60),
        batches in 1usize..4,
    ) {
        let mut data = rows(seed, n, d);
        let mut panel = pack(&data);
        let swaps: Vec<(usize, usize)> = ends.chunks_exact(2).map(|p| (p[0] % n, p[1] % n)).collect();
        // The same swaps applied in one call or split over several.
        for part in swaps.chunks(swaps.len().div_ceil(batches).max(1)) {
            panel.swap_indices(part);
        }
        for &(a, b) in &swaps {
            data.swap(a, b);
        }
        let repacked = pack(&data);
        prop_assert_eq!((panel.len(), panel.dim()), (repacked.len(), repacked.dim()));
        for (i, row) in data.iter().enumerate() {
            for (f, v) in row.iter().enumerate() {
                prop_assert_eq!(panel.get(i, f).to_bits(), v.to_bits(), "({}, {})", i, f);
                prop_assert_eq!(repacked.get(i, f).to_bits(), v.to_bits());
            }
        }
        // And it scores as the repacked panel does.
        let a = &rows(seed ^ 1, 1, d)[0];
        let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
        panel.sq_dist_into(a, 0..n, &mut got, |v| v);
        repacked.sq_dist_into(a, 0..n, &mut want, |v| v);
        let serial: Vec<u64> = data.iter().map(|b| sq_dist(a, b).to_bits()).collect();
        prop_assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), serial.clone());
        prop_assert_eq!(want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), serial);
    }
}
