//! Deterministic parallel primitives for the edm workspace.
//!
//! All heavy kernel-compute loops (Gram matrices, matrix products,
//! per-tree forest training, k-means sweeps, CV folds, Q-row fills)
//! funnel through the two primitives here:
//!
//! - [`for_each_row`] — run a closure over the rows of a flat buffer,
//!   each row visited exactly once by exactly one thread;
//! - [`map_indexed`] — build a `Vec<T>` where slot `i` is produced by
//!   `f(i)`, in parallel, returned in index order.
//!
//! Long-lived services (the `edm-serve` HTTP front end) use the
//! persistent bounded [`pool::WorkerPool`] instead of these fork-join
//! primitives; see that module's docs for its admission protocol.
//!
//! **Determinism guarantee.** Work is *distributed* dynamically (a
//! shared work-list hands out the next index to whichever thread is
//! free) but each unit writes only its own disjoint output slot and
//! performs its floating-point reduction in the same order as the
//! serial loop. Results are therefore bitwise identical to the serial
//! path — no atomics, no tree reductions, no order-dependent sums.
//! Property tests in `edm-kernels`, `edm-linalg`, and `edm-svm` pin
//! this down.
//!
//! With the `parallel` feature disabled (the workspace forwards
//! `--no-default-features` down to this crate), both primitives run the
//! plain serial loop and no threads are ever spawned.

#![forbid(unsafe_code)]

#[cfg(feature = "parallel")]
pub mod pool;

/// Debug-checked synchronization wrappers (re-export of [`edm_sync`]).
///
/// `edm-par` is the workspace's sanctioned concurrency surface, so
/// library code takes its locks from here: [`sync::DbgMutex`],
/// [`sync::DbgRwLock`], and [`sync::DbgCondvar`] behave exactly like
/// their `std::sync` counterparts in release builds (one relaxed
/// atomic load of overhead) but run lock-order and held-too-long
/// checks in debug builds or under `EDM_SYNC_CHECK=1`. See the
/// `edm-sync` crate docs for the checker's semantics and knobs.
pub use edm_sync as sync;

#[cfg(feature = "parallel")]
use std::sync::Mutex;

/// Number of worker threads the primitives will use.
///
/// Reads the `EDM_NUM_THREADS` environment variable if set (useful for
/// benchmarking scaling curves), otherwise the machine's available
/// parallelism. Always at least 1. A value of `0` is clamped to 1 and
/// a non-numeric value falls back to the host parallelism — both with
/// a one-shot warning on stderr rather than a silent fallback. With
/// the `parallel` feature disabled this is constantly 1.
pub fn num_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        match std::env::var("EDM_NUM_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) => {
                    static WARN_ZERO: std::sync::Once = std::sync::Once::new();
                    WARN_ZERO.call_once(|| {
                        eprintln!("edm-par: EDM_NUM_THREADS=0 is invalid; clamping to 1 thread");
                    });
                    1
                }
                Ok(n) => n,
                Err(_) => {
                    static WARN_PARSE: std::sync::Once = std::sync::Once::new();
                    WARN_PARSE.call_once(|| {
                        eprintln!(
                            "edm-par: ignoring non-numeric EDM_NUM_THREADS value {v:?}; \
                             using host parallelism"
                        );
                    });
                    host_parallelism()
                }
            },
            Err(_) => host_parallelism(),
        }
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

#[cfg(feature = "parallel")]
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// True when the `parallel` feature is compiled in.
pub const fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// Per-worker telemetry: chunk count and busy time, recorded into the
/// `edm-trace` registry when the worker retires (`par.worker.jobs` /
/// `par.worker.busy_ns` histograms — one sample per worker thread —
/// and the `par.jobs` counter). When tracing is off (or compiled out)
/// the cost is one relaxed atomic load per worker, and the timed and
/// untimed paths run the exact same job closure, so telemetry can
/// never perturb results.
#[cfg(feature = "parallel")]
struct WorkerProbe {
    enabled: bool,
    jobs: u64,
    busy: std::time::Duration,
}

#[cfg(feature = "parallel")]
impl WorkerProbe {
    fn start() -> Self {
        WorkerProbe { enabled: edm_trace::enabled(), jobs: 0, busy: std::time::Duration::ZERO }
    }

    /// Names this worker's timeline ring (`par-worker-<w>`) so
    /// Chrome-trace exports label the track; free when tracing is off.
    fn name(&self, w: usize) {
        if self.enabled {
            edm_trace::name_thread(&format!("par-worker-{w}"));
        }
    }

    #[inline]
    fn job(&mut self, work: impl FnOnce()) {
        if self.enabled {
            let t0 = std::time::Instant::now();
            work();
            self.busy += t0.elapsed();
            self.jobs += 1;
        } else {
            work();
        }
    }

    fn finish(self) {
        if self.enabled && self.jobs > 0 {
            edm_trace::counter_add("par.jobs", self.jobs);
            edm_trace::record("par.worker.jobs", self.jobs as f64);
            edm_trace::record("par.worker.busy_ns", self.busy.as_nanos() as f64);
        }
    }
}

/// Minimum element count before [`for_each_row`] / [`for_each_chunk`]
/// spawn threads. Below this, per-element work (a kernel evaluation, a
/// dot-product step) is cheaper than thread startup, so the serial loop
/// wins. [`map_indexed`] is exempt: its units are coarse by convention
/// (a tree, a CV fold, a Q-row fill).
#[cfg(feature = "parallel")]
const PAR_MIN_ELEMS: usize = 4096;

/// The one fork-join worker loop behind every primitive: `workers`
/// scoped threads (`par-worker-<w>`) pull the next job from the shared
/// `jobs` iterator until it runs dry, each recording a [`WorkerProbe`].
#[cfg(feature = "parallel")]
fn run_workers<I, F>(workers: usize, jobs: I, work: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    let jobs = Mutex::new(jobs);
    std::thread::scope(|s| {
        for w in 0..workers {
            let (jobs, work) = (&jobs, &work);
            s.spawn(move || {
                let mut probe = WorkerProbe::start();
                probe.name(w);
                loop {
                    let job = jobs.lock().expect("worker panicked holding job lock").next();
                    match job {
                        Some(job) => probe.job(|| work(job)),
                        None => break,
                    }
                }
                probe.finish();
            });
        }
    });
}

/// Applies `f(row_index, row)` to each `row_len`-sized row of `data`.
///
/// Rows are handed out dynamically to worker threads; each row is
/// visited exactly once. `f` must confine its writes to the row it was
/// given, which the `&mut` row slice enforces. Falls back to a serial
/// loop when the `parallel` feature is off, only one thread is
/// available, or there are fewer than two rows.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `row_len` (with
/// `row_len == 0` requiring `data` to be empty). A panic inside `f` on
/// any thread propagates to the caller.
pub fn for_each_row<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 {
        assert!(data.is_empty(), "row_len is 0 but data is non-empty");
        return;
    }
    assert_eq!(data.len() % row_len, 0, "data length not a multiple of row_len");
    for_each_chunk(data, row_len, f);
}

/// Applies `f(chunk_index, chunk)` to consecutive `chunk_len`-sized
/// pieces of `data` (the final chunk may be shorter). Chunk `c` starts
/// at flat offset `c * chunk_len`.
///
/// Unlike [`for_each_row`] the buffer need not divide evenly, which
/// suits 1-D outputs such as kernel score rows.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `data` is non-empty. A panic
/// inside `f` on any thread propagates to the caller.
pub fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");

    #[cfg(feature = "parallel")]
    {
        let workers = num_threads().min(data.len().div_ceil(chunk_len));
        if workers > 1 && data.len() >= PAR_MIN_ELEMS {
            run_workers(workers, data.chunks_mut(chunk_len).enumerate(), |(i, chunk)| f(i, chunk));
            return;
        }
    }

    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        f(i, chunk);
    }
}

/// Applies `f(band_index, band)` to consecutive bands of `band_rows`
/// whole `row_len`-sized rows of `data` (the final band may hold fewer
/// rows). Band `b` starts at row `b * band_rows`.
///
/// This is the coarse-grained counterpart of [`for_each_row`] for
/// cache-blocked kernels: handing a worker a *band* of rows instead of
/// one row amortizes dispatch over `band_rows` rows of work and lets
/// the closure reuse whatever inputs it streams across the whole band.
/// Each band is visited exactly once by exactly one thread, so the
/// determinism guarantee of [`for_each_row`] carries over unchanged.
///
/// # Panics
///
/// Panics if `band_rows == 0`, or if `data.len()` is not a multiple of
/// `row_len` (with `row_len == 0` requiring `data` to be empty). A
/// panic inside `f` on any thread propagates to the caller.
pub fn for_each_band<T, F>(data: &mut [T], row_len: usize, band_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(band_rows > 0, "band_rows must be positive");
    if row_len == 0 {
        assert!(data.is_empty(), "row_len is 0 but data is non-empty");
        return;
    }
    assert_eq!(data.len() % row_len, 0, "data length not a multiple of row_len");
    for_each_chunk(data, row_len * band_rows, f);
}

/// Builds a `Vec` whose `i`-th element is `f(i)`, computing the slots
/// in parallel but returning them in index order.
///
/// Falls back to a serial loop when the `parallel` feature is off,
/// only one thread is available, or `n < 2` (unlike
/// [`for_each_chunk`], there is no minimum element count).
///
/// # Panics
///
/// A panic inside `f` on any thread propagates to the caller.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    #[cfg(feature = "parallel")]
    {
        let workers = num_threads().min(n);
        if workers > 1 {
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            run_workers(workers, out.iter_mut().enumerate(), |(i, slot)| *slot = Some(f(i)));
            return out
                .into_iter()
                .map(|v| v.expect("every slot filled by exactly one worker"))
                .collect();
        }
    }

    (0..n).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_serial_exactly() {
        // Big enough to clear PAR_MIN_ELEMS so the threaded path runs.
        let cols = 65;
        let rows = 80;
        let mut par = vec![0.0; rows * cols];
        for_each_row(&mut par, cols, |i, row| {
            for (j, v) in row.iter_mut().enumerate() {
                // Non-associative accumulation: order inside the row matters.
                let mut acc = 0.0f64;
                for k in 0..16 {
                    acc += ((i * 31 + j * 7 + k) as f64).sin() * 1e-3;
                }
                *v = acc;
            }
        });
        let mut ser = vec![0.0; rows * cols];
        for (i, row) in ser.chunks_mut(cols).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for k in 0..16 {
                    acc += ((i * 31 + j * 7 + k) as f64).sin() * 1e-3;
                }
                *v = acc;
            }
        }
        assert_eq!(
            par.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            ser.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ragged_chunks_cover_everything_once() {
        let mut data = vec![0.0; 5003];
        for_each_chunk(&mut data, 512, |c, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v += (c * 512 + off) as f64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn bands_cover_every_row_once_with_ragged_tail() {
        // 11 rows of 512 in bands of 4: bands of 4, 4, 3 rows.
        let cols = 512;
        let rows = 11;
        let mut data = vec![0.0; rows * cols];
        for_each_band(&mut data, cols, 4, |b, band| {
            assert_eq!(band.len() % cols, 0);
            let first_row = b * 4;
            for (dr, row) in band.chunks_mut(cols).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v += ((first_row + dr) * cols + j) as f64;
                }
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    #[should_panic(expected = "band_rows must be positive")]
    fn zero_band_rows_rejected() {
        let mut data = vec![0.0; 8];
        for_each_band(&mut data, 4, 0, |_, _| {});
    }

    #[test]
    fn map_indexed_preserves_order() {
        let out = map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<f64> = vec![];
        for_each_row(&mut empty, 0, |_, _| unreachable!());
        for_each_row(&mut empty, 5, |_, _| unreachable!());
        assert!(map_indexed(0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_rows_rejected() {
        let mut data = vec![0.0; 7];
        for_each_row(&mut data, 3, |_, _| {});
    }

    /// Sequential single test: `EDM_NUM_THREADS` is process-global, so
    /// the cases must not interleave with each other.
    #[test]
    #[cfg(feature = "parallel")]
    fn env_thread_override_parsing() {
        std::env::set_var("EDM_NUM_THREADS", "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var("EDM_NUM_THREADS", " 8 ");
        assert_eq!(num_threads(), 8, "surrounding whitespace is tolerated");
        std::env::set_var("EDM_NUM_THREADS", "0");
        assert_eq!(num_threads(), 1, "zero is clamped to one thread, not silently ignored");
        std::env::remove_var("EDM_NUM_THREADS");
        let host = num_threads();
        assert!(host >= 1);
        for bad in ["lots", "-2", "1.5", ""] {
            std::env::set_var("EDM_NUM_THREADS", bad);
            assert_eq!(num_threads(), host, "non-numeric {bad:?} falls back to host parallelism");
        }
        std::env::remove_var("EDM_NUM_THREADS");
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
