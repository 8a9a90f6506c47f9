//! A fit gives its Q-row cache's memory back when it returns: the
//! process's resident set after an `SvcTrainer::fit` with a 32 MiB
//! cache is within a few MiB of what it was before, although the fit
//! itself committed most of the cache.
//!
//! The only test in its file, so that it runs in a process of its own
//! and no other test's allocations move the resident set under it.

/// `VmRSS` and `VmHWM` of this process, in KiB.
#[cfg(target_os = "linux")]
fn rss_and_peak_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("readable /proc/self/status");
    let field = |name: &str| -> u64 {
        let line = status.lines().find(|l| l.starts_with(name)).expect("field present");
        line[name.len()..].trim().trim_end_matches("kB").trim().parse().expect("KiB count")
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(target_os = "linux")]
#[test]
fn fit_returns_its_row_cache_memory() {
    use edm_kernels::RbfKernel;
    use edm_svm::{SvcParams, SvcTrainer};

    // 2048 samples of 4 features with labels independent of them: most
    // samples become support vectors, so the fit touches most Q rows.
    let n = 2048;
    let mut state = 0x3E3_0001u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let x: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| next()).collect()).collect();
    let y: Vec<f64> = (0..n).map(|_| if next() < 0.5 { 1.0 } else { -1.0 }).collect();
    // 32 MiB over 2048-column rows: room for every row.
    let params = SvcParams::default().with_cache_bytes(32 << 20);

    let (before, _) = rss_and_peak_kib();
    let model = SvcTrainer::new(params).kernel(RbfKernel::new(4.0)).fit(&x, &y).unwrap();
    let (after, peak) = rss_and_peak_kib();

    assert!(
        model.cache_stats().misses > 1024,
        "the fit filled most rows: {:?}",
        model.cache_stats()
    );
    assert!(
        peak >= before + (16 << 10),
        "the fit committed at least 16 MiB: {before} -> peak {peak} KiB"
    );
    assert!(
        after <= before + (4 << 10),
        "resident set grew from {before} to {after} KiB over the fit"
    );
}
