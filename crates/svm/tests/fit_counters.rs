//! Pins the deterministic counters of three cached fits — an RBF
//! `SvcTrainer`, an RBF `SvrTrainer` and a kernel `OneClassSvm` — on
//! seeded problems large enough that the Q-row cache evicts and the
//! solver shrinks. Each fit asserts its SMO iteration count, its
//! hit/miss/eviction counters and a bit fingerprint of the model
//! (coefficients, ρ, support vectors).
//!
//! The expected values were recorded with per-row cache storage and
//! branchy working-set scans. Where row bytes live and how the scans
//! are compiled must never change which rows are resident or which pair
//! is selected, so a change to either leaves every number here as it
//! is.
//!
//! Every fit runs twice: at `EDM_NUM_THREADS=1`, where the caller fills
//! every Q row alone, and at `4`, where a fit whose rows span more than
//! one 512-column fill chunk (the SVC and one-class fits here) shares
//! its fills with a team of parked helpers, also on a one-core host.
//! One lock serializes the runs, since the thread count is
//! process-wide.

use std::sync::Mutex;

use edm_kernels::RbfKernel;
use edm_svm::{
    CacheStats, OneClassParams, OneClassSvm, SvFamily, SvModel, SvcParams, SvcTrainer, SvrParams,
    SvrTrainer,
};

/// Deterministic SplitMix64 point cloud in `[-1, 1]^d`.
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

/// FNV-1a over the bits of the coefficients, ρ and support vectors.
fn fingerprint<F: SvFamily>(m: &SvModel<RbfKernel, F>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    m.coefficients().iter().for_each(|&c| eat(c));
    eat(m.rho());
    m.support_vectors().iter().flatten().for_each(|&v| eat(v));
    h
}

/// Runs `fit_and_check` at one and at four configured threads.
fn at_thread_counts(fit_and_check: impl Fn()) {
    static SERIAL: Mutex<()> = Mutex::new(());
    for threads in ["1", "4"] {
        let _g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("EDM_NUM_THREADS", threads);
        fit_and_check();
    }
}

fn check<F: SvFamily>(
    what: &str,
    m: &SvModel<RbfKernel, F>,
    iterations: usize,
    stats: CacheStats,
    print: u64,
) {
    assert_eq!(
        (m.iterations(), m.cache_stats(), fingerprint(m)),
        (iterations, stats, print),
        "{what}: (SMO iterations, cache counters, model fingerprint)"
    );
}

/// Two noisy classes split by a curved boundary: enough overlap that
/// the fit runs past the first shrink pass (every 1000 iterations).
#[test]
fn svc_fit_counters_are_pinned() {
    at_thread_counts(|| {
        let x = points(0x5EC0_0001, 1200, 4);
        let y: Vec<f64> = x
            .iter()
            .map(|p| if (3.0 * p[0]).sin() + p[1] + 0.3 * p[2] * p[3] > 0.0 { 1.0 } else { -1.0 })
            .collect();
        // 1 MiB over 1200-column rows: a 109-row budget.
        let params = SvcParams { c: 10.0, ..SvcParams::default() }.with_cache_bytes(1 << 20);
        let m = SvcTrainer::new(params).kernel(RbfKernel::new(2.0)).fit(&x, &y).unwrap();
        check(
            "svc",
            &m,
            1665,
            CacheStats { hits: 4429, misses: 790, evictions: 629 },
            0x109B_E847_6A83_623A,
        );
    });
}

#[test]
fn svr_fit_counters_are_pinned() {
    at_thread_counts(|| {
        let x = points(0x5E_0002, 400, 3);
        let t: Vec<f64> = x.iter().map(|p| (2.0 * p[0]).sin() + 0.5 * p[1] * p[2]).collect();
        // 512 KiB over 800-column rows: an 81-row budget.
        let params = SvrParams { c: 100.0, epsilon: 0.01, ..SvrParams::default() }
            .with_cache_bytes(512 << 10);
        let m = SvrTrainer::new(params).kernel(RbfKernel::new(1.5)).fit(&x, &t).unwrap();
        check(
            "svr",
            &m,
            2099,
            CacheStats { hits: 5652, misses: 748, evictions: 623 },
            0x49E3_4D0C_7F1D_AE5F,
        );
    });
}

#[test]
fn one_class_fit_counters_are_pinned() {
    at_thread_counts(|| {
        let x = points(0x0C_0003, 1200, 3);
        // 1 MiB over 1200-column rows: a 109-row budget.
        let params = OneClassParams::default().with_nu(0.2).with_cache_bytes(1 << 20);
        let m = OneClassSvm::new(params).kernel(RbfKernel::new(10.0)).fit(&x).unwrap();
        check(
            "one-class",
            &m,
            5958,
            CacheStats { hits: 11216, misses: 7965, evictions: 7810 },
            0x65FF_2C2C_0374_EE36,
        );
    });
}
