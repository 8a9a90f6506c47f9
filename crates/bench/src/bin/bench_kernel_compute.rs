//! Scaling harness for the blocked kernel-compute layer and the SMO
//! Q-row cache. Emits `BENCH_kernel_compute.json` in the working
//! directory; `--quick` runs a trimmed variant for CI smoke.
//!
//! Measurements (RBF kernel, d = 32, deterministic data):
//!
//! * Gram-matrix build at n ∈ {500, 2000, 8000} ({500, 1500} under
//!   `--quick`), three ways: the **seed baseline** (a private copy of
//!   the row-sharded `gram_matrix_rows` pinned to one thread — what the
//!   repo shipped before the blocked rework), the tiled builder at one
//!   thread, and the tiled builder at the parallel thread count. A
//!   bitwise checksum comparison proves all three agree exactly.
//! * A tile-geometry sweep over `EDM_BLOCK` at one fixed size, so a
//!   host with a different cache hierarchy can see what retuning buys.
//! * SVC training at the same sizes, serial, with the Q-row cache on
//!   (default budget) vs off (`cache_bytes = 0`).
//!
//! Thread counts are swept in-process via the `EDM_NUM_THREADS`
//! override that `edm_par::num_threads()` re-reads on every call. The
//! parallel sweep is clamped to the host's available parallelism and
//! the JSON records the true `host_cores`: claiming a 4-thread speedup
//! measured on one core would be fiction, so on small hosts the
//! "parallel" column degenerates to the tiled serial path and the
//! headline speedup is carried by cache locality alone.
//!
//! The claims block is load-bearing. Full mode exits nonzero unless
//! the tiled+parallel path strictly beats the seed baseline at the
//! largest size (where the old row-sharded builder's 0.89× parallel
//! regression lived), stays within a 0.9 no-regression floor at every
//! other size, and the tiled serial path is ≥ 1.1× the seed at the
//! largest size. Quick mode (CI) enforces a ≥ 0.9 floor only. The
//! asymmetry is honesty, not leniency: at n ≤ 2000 both builders do
//! the same n²/2 cache-resident kernel evaluations and their true
//! ratio is ~1.0, so a strict win-gate there would be a coin flip on
//! scheduler noise.
//!
//! On the tiling ceiling: both builders evaluate the same n²/2 kernel
//! cells, and at d = 32 the RBF evaluation itself (an order-pinned
//! 32-term reduction plus `exp`) dominates. Tiling removes the seed's
//! per-row dispatch and its element-wise strided mirror, which is
//! worth ~1.2× at n = 8000 — not the multiples a memory-bound loop
//! would show, because the sample set (2 MB) never leaves cache.

use std::fmt::Write as _;
use std::time::Instant;

use edm_kernels::{gram_matrix, Kernel, RbfKernel};
use edm_linalg::Matrix;
use edm_svm::{SvcParams, SvcTrainer};

/// The pre-tiling row-sharded Gram builder: one `for_each_row`
/// dispatch per output row, each streaming the whole sample set, then
/// an element-wise mirror. The seed
/// baseline the tiled builder is measured against.
fn gram_matrix_rows(kernel: &RbfKernel, items: &[Vec<f64>]) -> Matrix {
    let n = items.len();
    let mut g = Matrix::zeros(n, n);
    if n == 0 {
        return g;
    }
    // Each worker fills columns i..n of its own row i.
    edm_par::for_each_row(g.as_mut_slice(), n, |i, row| {
        for (j, slot) in row.iter_mut().enumerate().skip(i) {
            *slot = kernel.eval(&items[i], &items[j]);
        }
    });
    for i in 1..n {
        for j in 0..i {
            g[(i, j)] = g[(j, i)];
        }
    }
    g
}

const DIM: usize = 32;
const GAMMA: f64 = 0.5;
const SIZES: [usize; 3] = [500, 2000, 8000];
const QUICK_SIZES: [usize; 2] = [500, 1500];
/// Thread count the parallel sweep requests (clamped to the host).
const PAR_THREADS: usize = 4;
/// Tile geometries swept at a fixed size, `band_rows x col_tile`.
const TILE_SWEEP: [&str; 4] = ["16x32", "32x64", "64x128", "128x256"];

/// Deterministic SplitMix64 stream.
struct Mix(u64);

impl Mix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

fn points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut m = Mix(seed);
    (0..n).map(|_| (0..d).map(|_| m.next_f64()).collect()).collect()
}

/// Two shifted blobs with alternating ±1 labels: trivially separable,
/// so SVC converges quickly and the timing isolates kernel compute.
fn blobs(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = points(7, n, d);
    let y: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    for (xi, &yi) in x.iter_mut().zip(&y) {
        for v in xi.iter_mut() {
            *v += yi * 1.5;
        }
    }
    (x, y)
}

fn set_threads(n: usize) {
    std::env::set_var("EDM_NUM_THREADS", n.to_string());
}

/// FNV-1a over the bit patterns — order-sensitive, so equal checksums
/// on row-major buffers mean bitwise-equal matrices.
fn checksum(rows: usize, m: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..rows {
        for v in m.row(i) {
            h = (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Best (minimum) wall time of `runs` executions, in milliseconds.
///
/// One untimed warmup run first, and the previous result is dropped
/// *before* each timed run starts: keeping a second multi-hundred-MB
/// buffer alive while the next one is allocated perturbs page-fault
/// behaviour enough to swing large-`n` timings by 3×. Minimum (not
/// median) because scheduler/background interference on shared hosts
/// is strictly additive — the fastest rep is the closest observation
/// of what the code itself costs.
fn time_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    drop(f());
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        drop(last.take());
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("runs > 0"))
}

/// Best-of-`rounds` for a set of variants measured **interleaved**:
/// one timed rep of each variant per round, round-robin. Slow phases
/// of background load then hit every variant equally instead of
/// landing on whichever one was being measured in bulk, and the
/// per-variant minimum discards the polluted rounds entirely. The
/// first (untimed) warmup pass over all variants is where callers
/// should latch checksums/iteration counts from their closures; timed
/// reps drop each result outside the measured window so deallocation
/// of a multi-hundred-MB buffer never lands in the timing.
fn time_interleaved_ms<T>(rounds: usize, variants: &mut [&mut dyn FnMut() -> T]) -> Vec<f64> {
    for f in variants.iter_mut() {
        drop(f()); // warmup, untimed
    }
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..rounds {
        for (b, f) in best.iter_mut().zip(variants.iter_mut()) {
            let t0 = Instant::now();
            let out = f();
            *b = b.min(t0.elapsed().as_secs_f64() * 1e3);
            drop(out);
        }
    }
    best
}

struct GramRow {
    n: usize,
    seed_serial_ms: f64,
    serial_ms: f64,
    parallel_ms: f64,
    bitwise_identical: bool,
}

impl GramRow {
    /// Production path (tiled, parallel) vs what the repo used to ship.
    fn speedup(&self) -> f64 {
        self.seed_serial_ms / self.parallel_ms
    }

    /// Tiling alone, threads held at one.
    fn tiled_vs_seed(&self) -> f64 {
        self.seed_serial_ms / self.serial_ms
    }
}

struct SvcRow {
    n: usize,
    cache_on_ms: f64,
    cache_off_ms: f64,
    iterations: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    edm_bench::init_trace();
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let par_threads = PAR_THREADS.min(host_cores);
    let sizes: &[usize] = if quick { &QUICK_SIZES } else { &SIZES };
    println!(
        "kernel-compute bench{}: d = {DIM}, rbf gamma = {GAMMA}, host cores = {host_cores}, \
         parallel threads = {par_threads} (requested {PAR_THREADS}), parallel feature = {}",
        if quick { " (quick)" } else { "" },
        edm_par::parallel_enabled()
    );

    let mut gram_rows = Vec::new();
    for &n in sizes {
        // Small sizes finish in single-digit milliseconds, so buy many
        // rounds (still cheap) to stabilize the best-of-k minimum.
        let rounds = if n >= 8000 {
            5
        } else if n >= 2000 {
            15
        } else {
            30
        };
        let pts = points(1, n, DIM);
        let k = RbfKernel::new(GAMMA);
        let mut sum_seed: Option<u64> = None;
        let mut sum_serial: Option<u64> = None;
        let mut sum_par: Option<u64> = None;
        let mut f_seed = || {
            set_threads(1);
            let g = gram_matrix_rows(&k, &pts);
            if sum_seed.is_none() {
                sum_seed = Some(checksum(n, &g));
            }
            g
        };
        let mut f_serial = || {
            set_threads(1);
            let g = gram_matrix(&k, &pts);
            if sum_serial.is_none() {
                sum_serial = Some(checksum(n, &g));
            }
            g
        };
        let mut f_par = || {
            set_threads(par_threads);
            let g = gram_matrix(&k, &pts);
            if sum_par.is_none() {
                sum_par = Some(checksum(n, &g));
            }
            g
        };
        let best = time_interleaved_ms(rounds, &mut [&mut f_seed, &mut f_serial, &mut f_par]);
        let (seed_serial_ms, serial_ms, parallel_ms) = (best[0], best[1], best[2]);
        let row = GramRow {
            n,
            seed_serial_ms,
            serial_ms,
            parallel_ms,
            bitwise_identical: sum_seed.is_some()
                && sum_seed == sum_serial
                && sum_serial == sum_par,
        };
        println!(
            "gram n={n:5}: seed {seed_serial_ms:9.2} ms | tiled {serial_ms:9.2} ms | \
             {par_threads} threads {parallel_ms:9.2} ms | speedup {:.2}x | bitwise identical: {}",
            row.speedup(),
            row.bitwise_identical
        );
        assert!(row.bitwise_identical, "tiled gram diverged from the seed builder");
        gram_rows.push(row);
    }

    // Tile-geometry sweep: tiled serial build at one size per EDM_BLOCK.
    set_threads(1);
    let sweep_n = if quick { 1500 } else { 2000 };
    let sweep_pts = points(1, sweep_n, DIM);
    let sweep_k = RbfKernel::new(GAMMA);
    let mut tile_rows = Vec::new();
    for block in TILE_SWEEP {
        std::env::set_var("EDM_BLOCK", block);
        let (ms, g) = time_ms(3, || gram_matrix(&sweep_k, &sweep_pts));
        drop(g);
        println!("tile sweep n={sweep_n}: EDM_BLOCK={block:8} {ms:9.2} ms");
        tile_rows.push((block, ms));
    }
    std::env::remove_var("EDM_BLOCK");

    set_threads(1); // cache comparison is a serial, algorithmic effect
    let mut svc_rows = Vec::new();
    for &n in sizes {
        let rounds = 3;
        let (x, y) = blobs(n, DIM);
        let on = SvcTrainer::new(SvcParams::default()).kernel(RbfKernel::new(GAMMA));
        let off =
            SvcTrainer::new(SvcParams::default().with_cache_bytes(0)).kernel(RbfKernel::new(GAMMA));
        let mut iters_on: Option<usize> = None;
        let mut iters_off: Option<usize> = None;
        let mut f_on = || {
            let m = on.fit(&x, &y).expect("separable blobs");
            iters_on.get_or_insert(m.iterations());
            m
        };
        let mut f_off = || {
            let m = off.fit(&x, &y).expect("separable blobs");
            iters_off.get_or_insert(m.iterations());
            m
        };
        let best = time_interleaved_ms(rounds, &mut [&mut f_on, &mut f_off]);
        let (cache_on_ms, cache_off_ms) = (best[0], best[1]);
        let iterations = iters_on.expect("warmup ran");
        assert_eq!(Some(iterations), iters_off, "cache changed the optimization trajectory");
        let row = SvcRow { n, cache_on_ms, cache_off_ms, iterations };
        println!(
            "svc  n={n:5}: cache on {cache_on_ms:9.2} ms | cache off {cache_off_ms:9.2} ms \
             | win {:.2}x | {} iterations",
            row.cache_off_ms / row.cache_on_ms,
            row.iterations
        );
        svc_rows.push(row);
    }

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(
        j,
        "  \"config\": {{\"d\": {DIM}, \"kernel\": \"rbf\", \"gamma\": {GAMMA}, \
         \"host_cores\": {host_cores}, \"parallel_threads\": {par_threads}, \
         \"parallel_feature\": {}, \"quick\": {quick}}},",
        edm_par::parallel_enabled()
    );
    let _ = writeln!(j, "  \"gram_build\": [");
    for (i, r) in gram_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"n\": {}, \"seed_serial_ms\": {:.3}, \"serial_ms\": {:.3}, \
             \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \"tiled_vs_seed\": {:.3}, \
             \"bitwise_identical\": {}}}{}",
            r.n,
            r.seed_serial_ms,
            r.serial_ms,
            r.parallel_ms,
            r.speedup(),
            r.tiled_vs_seed(),
            r.bitwise_identical,
            if i + 1 < gram_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"tile_sweep\": [");
    for (i, (block, ms)) in tile_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"n\": {sweep_n}, \"block\": \"{block}\", \"serial_ms\": {ms:.3}}}{}",
            if i + 1 < tile_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"svc_train_serial\": [");
    for (i, r) in svc_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"n\": {}, \"cache_on_ms\": {:.3}, \"cache_off_ms\": {:.3}, \
             \"cache_win\": {:.3}, \"iterations\": {}}}{}",
            r.n,
            r.cache_on_ms,
            r.cache_off_ms,
            r.cache_off_ms / r.cache_on_ms,
            r.iterations,
            if i + 1 < svc_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let min_speedup = gram_rows.iter().map(GramRow::speedup).fold(f64::INFINITY, f64::min);
    let largest = gram_rows.last().expect("at least one size");
    let cache_win =
        svc_rows.iter().map(|r| r.cache_off_ms / r.cache_on_ms).fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(j, "  \"claims\": {{");
    let _ = writeln!(j, "    \"gram_min_speedup_vs_seed\": {min_speedup:.3},");
    let _ = writeln!(j, "    \"gram_speedup_at_largest_n\": {:.3},", largest.speedup());
    let _ = writeln!(j, "    \"gram_speedup_gt_1_at_every_n\": {},", min_speedup > 1.0);
    let _ = writeln!(
        j,
        "    \"gram_tiled_serial_vs_seed_n{}\": {:.3},",
        largest.n,
        largest.tiled_vs_seed()
    );
    let _ = writeln!(j, "    \"best_svc_cache_win\": {cache_win:.3},");
    let _ = writeln!(j, "    \"svc_cache_win_ge_1\": {},", cache_win > 1.0);
    let _ = writeln!(
        j,
        "    \"note\": \"interleaved best-of-k wall times on this host; seed_serial_ms is the \
         pre-rework row-sharded builder at one thread, parallel_threads is clamped to \
         host_cores, so on small hosts the speedup column isolates cache blocking rather than \
         thread scaling\""
    );
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    std::fs::write("BENCH_kernel_compute.json", &j).expect("write BENCH_kernel_compute.json");
    println!("\nwrote BENCH_kernel_compute.json");
    edm_bench::emit_trace("bench_kernel_compute", 1);

    // Hard gates — a regression here must fail the run, not just
    // reword the JSON. The strict win is demanded at the largest size,
    // where the old builder actually regressed and where tiling has
    // headroom; the smaller cache-resident sizes get a no-regression
    // floor because their true ratio is ~1.0 (see the module docs).
    if quick {
        assert!(
            min_speedup >= 0.9,
            "tiled+parallel gram build regressed past noise vs the seed baseline \
             (min speedup {min_speedup:.3}, floor 0.9)"
        );
    } else {
        assert!(
            largest.speedup() > 1.0,
            "tiled+parallel gram at n={} no faster than the seed baseline ({:.3}x)",
            largest.n,
            largest.speedup()
        );
        assert!(
            min_speedup >= 0.9,
            "tiled+parallel gram build regressed past noise vs the seed baseline \
             (min speedup {min_speedup:.3}, floor 0.9)"
        );
        assert!(
            largest.tiled_vs_seed() >= 1.1,
            "tiled serial gram at n={} is only {:.3}x the seed baseline (need >= 1.1x; \
             the eval-bound ceiling at d=32 is ~1.2-1.3x, see the module docs)",
            largest.n,
            largest.tiled_vs_seed()
        );
    }
}
