//! Q-row fills shared with a team's parked helpers return bitwise what
//! the caller alone computes: batched `KernelQ` fills with signs, in
//! any row and column order, equal one `gram_row` per row, and `SvrQ`
//! fills equal its block formula. A whole fit shares its fills with
//! its team instead of forking, and returns the one-thread model bit
//! for bit.
//!
//! The kernel spins about 1 µs per evaluation, so every 512-column
//! chunk outweighs a hand-off and the helpers take part. Every case
//! holds one lock and pins `EDM_NUM_THREADS` (4 unless it compares
//! against 1), so a one-core host still opens a team with helpers.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use edm_kernels::{gram_row, Kernel, RbfKernel};
use edm_svm::{KernelQ, QSource, SvcParams, SvcTrainer, SvrQ};
use proptest::prelude::*;

/// RBF kernel that spins about 1 µs per evaluation; its values are the
/// RBF kernel's bit for bit.
#[derive(Clone)]
struct SlowKernel(RbfKernel);

impl Kernel<[f64]> for SlowKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(1) {
            std::hint::spin_loop();
        }
        self.0.eval(a, b)
    }
}

/// Serializes the cases: the thread count and the trace counters are
/// process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic SplitMix64 point cloud.
fn points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

/// Runs one `fill_rows` into fresh outputs.
fn fill(src: &impl QSource, rows: &[usize], cols: &[usize]) -> Vec<Vec<f64>> {
    let mut outs = vec![vec![0.0; cols.len()]; rows.len()];
    src.fill_rows(rows, cols, &mut outs.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
    outs
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A batched, signed, gathered fill through a team equals
    /// `sᵢ sⱼ gram_row(xᵢ)[j]` per cell, for any batch width.
    #[test]
    fn batched_team_fills_match_gram_row(
        seed in 0u64..1_000_000,
        n in 1usize..1400,
        b in 1usize..5,
        gamma in 0.2f64..2.0,
    ) {
        let _g = serial();
        std::env::set_var("EDM_NUM_THREADS", "4");
        let x = points(seed, n, 3);
        let y: Vec<f64> = (0..n).map(|i| if (seed >> (i % 61)) & 1 == 0 { 1.0 } else { -1.0 }).collect();
        let k = RbfKernel::new(gamma);
        let slow = SlowKernel(k);
        let rows: Vec<usize> = (0..b).map(|r| (seed as usize / (r + 1)) % n).collect();
        // Every column, in an order that is not the sample order.
        let cols: Vec<usize> = (0..n).map(|t| (t * 7 + seed as usize) % n).collect();
        let cols = if n % 7 == 0 { (0..n).rev().collect() } else { cols };
        let got = edm_par::team(|team| {
            if edm_par::parallel_enabled() {
                assert!(team.helpers() >= 1, "four threads configured");
            }
            let src = KernelQ::<[f64], _, _>::new(&slow, &x, Some(&y)).with_team(team);
            fill(&src, &rows, &cols)
        });
        for (&i, out) in rows.iter().zip(&got) {
            let lone = gram_row(&k, x[i].as_slice(), &x);
            let want: Vec<f64> = cols.iter().map(|&j| lone[j] * (y[i] * y[j])).collect();
            prop_assert_eq!(bits(out), bits(&want), "row {}", i);
        }
    }

    /// `SvrQ` through a team: `Q(t, u) = s(t) s(u) k(x[t mod m], x[u mod m])`.
    #[test]
    fn svr_team_fills_match_block_formula(
        seed in 0u64..1_000_000,
        m in 1usize..900,
        b in 1usize..4,
    ) {
        let _g = serial();
        std::env::set_var("EDM_NUM_THREADS", "4");
        let x = points(seed, m, 2);
        let k = RbfKernel::new(0.9);
        let slow = SlowKernel(k);
        let sign = |u: usize| if u < m { 1.0 } else { -1.0 };
        let rows: Vec<usize> = (0..b).map(|r| (seed as usize * (r + 3)) % (2 * m)).collect();
        let cols: Vec<usize> = (0..2 * m).rev().collect();
        let got = edm_par::team(|team| {
            let src = SvrQ::<[f64], _, _>::new(&slow, &x).with_team(team);
            fill(&src, &rows, &cols)
        });
        for (&t, out) in rows.iter().zip(&got) {
            let want: Vec<f64> =
                cols.iter().map(|&u| sign(t) * sign(u) * k.eval(&x[t % m], &x[u % m])).collect();
            prop_assert_eq!(bits(out), bits(&want), "svr row {}", t);
        }
    }
}

/// An SVC fit at four threads hands fills to its team, forks nothing,
/// and returns bitwise the model of a one-thread fit.
#[test]
fn fit_shares_fills_with_its_team_and_never_forks() {
    let _g = serial();
    let x = points(0xF17, 1100, 2);
    let y: Vec<f64> = x.iter().map(|p| if p[0] * p[1] > 0.0 { 1.0 } else { -1.0 }).collect();
    let fit = |threads: &str| {
        std::env::set_var("EDM_NUM_THREADS", threads);
        let m = SvcTrainer::new(SvcParams::default())
            .kernel(SlowKernel(RbfKernel::new(1.5)))
            .fit(&x, &y)
            .unwrap();
        let mut bits: Vec<u64> = m.coefficients().iter().map(|v| v.to_bits()).collect();
        bits.push(m.rho().to_bits());
        (bits, m.iterations(), m.cache_stats())
    };
    edm_trace::set_level(edm_trace::Level::Summary);
    let counter = |name: &str| edm_trace::collect().counter(name);
    let alone = fit("1");
    let (forks, handoffs) = (counter("par.forks"), counter("par.team.handoffs"));
    let shared = fit("4");
    assert_eq!(shared, alone, "team fills change no bit of the model");
    if cfg!(all(feature = "trace", feature = "parallel")) {
        assert_eq!(counter("par.forks"), forks, "a fit never forks");
        assert!(counter("par.team.handoffs") > handoffs, "a fit hands fills to its team");
    }
}
