//! Deterministic parallel primitives for the edm workspace.
//!
//! All heavy kernel-compute loops (Gram matrices, matrix products,
//! per-tree forest training, k-means sweeps, CV folds) funnel through
//! the two primitives here:
//!
//! - [`for_each_row`] — run a closure over the rows of a flat buffer,
//!   each row visited exactly once by exactly one thread;
//! - [`map_indexed`] — build a `Vec<T>` where slot `i` is produced by
//!   `f(i)`, in parallel, returned in index order.
//!
//! Long-lived services (the `edm-serve` HTTP front end) use the
//! persistent bounded `pool::WorkerPool` (built with the `parallel`
//! feature) instead of these fork-join primitives; see that module's
//! docs for its admission protocol.
//!
//! A computation that makes thousands of calls too small to fork for —
//! the Q-row fills of one SMO solve — opens a [`team()`] instead: helper
//! threads spawned once, parked on a condvar between calls, and joined
//! when the computation ends. A [`Team::map`] call wakes them only when
//! its work outweighs the wake-up; see the [`team`](mod@team) module.
//!
//! **Fork only when it pays.** A fork-join costs 60–70 µs on a small
//! host (`FORK_COST` rounds it up to 100 µs), more than many whole
//! calls — a 60-row batch predict, a 5120-entry Q-row fill (which is
//! why fills go through a [`team()`] instead). So no
//! primitive forks up front: the calling thread runs jobs itself, and
//! after jobs 1, 2, 4, 8, …
//! estimates the serial time left as the mean job time so far times
//! the jobs left. Only when spreading that remainder over `w` threads
//! would save more than a fork costs (`est_left × (w − 1) / w >
//! FORK_COST`) does it spawn `w − 1` scoped helpers and keep working
//! alongside them (each fork bumps the `par.forks` counter). Cheap
//! calls therefore never leave the caller, and coarse ones fork after
//! their first job.
//!
//! **No fan-out from owned threads.** A primitive called on a thread
//! `edm-par` already owns — a `pool::WorkerPool` worker, a fork-join
//! or team helper, or a caller working beside forked helpers or inside
//! a team — runs the plain serial loop (and a [`team()`] opened there
//! has no helpers). The pool was sized for the cores it owns, so a server
//! batch flush or an online `:train` never fans out on top of it, and
//! nested primitives never multiply the thread count.
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
//! `--no-default-features` down to this crate), or with
//! `EDM_NUM_THREADS=1`, every primitive runs the plain serial loop and
//! no threads are ever spawned.

#![forbid(unsafe_code)]

#[cfg(feature = "parallel")]
pub mod pool;
pub mod team;

pub use team::{team, Team};

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
use std::cell::Cell;
#[cfg(feature = "parallel")]
use std::sync::Mutex;
#[cfg(feature = "parallel")]
use std::time::{Duration, Instant};

/// Number of worker threads the primitives will use.
///
/// Reads the `EDM_NUM_THREADS` environment variable if set (useful for
/// benchmarking scaling curves; re-read on every call), otherwise the
/// machine's available parallelism (queried once per process). Always
/// at least 1. A value of `0` is clamped to 1 and a non-numeric value
/// falls back to the host parallelism — both with a one-shot warning
/// on stderr rather than a silent fallback. With the `parallel`
/// feature disabled this is constantly 1.
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

/// The host's available parallelism, queried once per process: on
/// Linux `available_parallelism` reads cgroup quota files, ~20 µs a
/// call on a 2-vCPU x86-64 VM — more than many whole primitive calls.
#[cfg(feature = "parallel")]
fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// True when the `parallel` feature is compiled in.
pub const fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// Per-worker telemetry of a fork-join: job count and busy time,
/// recorded into the `edm-trace` registry when the worker retires
/// (`par.worker.jobs` / `par.worker.busy_ns` histograms — one sample
/// per thread, the calling thread included, which also credits the
/// jobs it ran before forking — and the `par.jobs` counter). Runs that
/// never fork record nothing, so a cheap call pays no registry locks.
/// When tracing is off (or compiled out) the cost is one relaxed
/// atomic load per worker, and the timed and untimed paths run the
/// exact same job closure, so telemetry can never perturb results.
#[cfg(feature = "parallel")]
struct WorkerProbe {
    enabled: bool,
    jobs: u64,
    busy: Duration,
}

#[cfg(feature = "parallel")]
impl WorkerProbe {
    fn start() -> Self {
        WorkerProbe { enabled: edm_trace::enabled(), jobs: 0, busy: Duration::ZERO }
    }

    /// Names this helper's timeline ring (`par-worker-<w>`) so
    /// Chrome-trace exports label the track; free when tracing is off.
    fn name(&self, w: usize) {
        if self.enabled {
            edm_trace::name_thread(&format!("par-worker-{w}"));
        }
    }

    #[inline]
    fn job(&mut self, work: impl FnOnce()) {
        if self.enabled {
            let t0 = Instant::now();
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

/// What one fork costs the calling thread: spawning the scoped helpers
/// and joining them. A two-worker fork-join of empty jobs measured
/// 62–70 µs on a shared 2-vCPU x86-64 VM (3.7 µs for the same jobs
/// run serially); the constant rounds that up, so a fork must save
/// clearly more wall time than it spends.
#[cfg(feature = "parallel")]
const FORK_COST: Duration = Duration::from_micros(100);

#[cfg(feature = "parallel")]
thread_local! {
    /// Set on every thread `edm-par` owns — [`pool::WorkerPool`]
    /// workers, fork-join and team helpers, and a calling thread while
    /// it works beside forked helpers or inside a team with helpers.
    /// Those cores are already spoken for, so a primitive called there
    /// runs its plain serial loop.
    static PAR_OWNED: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread `edm-par`-owned until dropped (also on
/// unwind), then restores the previous mark. Pool workers, fork-join
/// and team helpers hold one for their whole life; a calling thread
/// holds one while it works beside forked helpers or inside a team.
#[cfg(feature = "parallel")]
pub(crate) struct OwnedGuard(bool);

#[cfg(feature = "parallel")]
impl OwnedGuard {
    pub(crate) fn enter() -> Self {
        OwnedGuard(PAR_OWNED.with(|owned| owned.replace(true)))
    }
}

#[cfg(feature = "parallel")]
impl Drop for OwnedGuard {
    fn drop(&mut self) {
        PAR_OWNED.with(|owned| owned.set(self.0));
    }
}

/// The one place that decides whether to fork, behind every primitive.
///
/// The calling thread runs jobs itself. After a job it estimates the
/// serial time left as the mean job time so far times the jobs left
/// (`size_hint`), and forks only once splitting that remainder over
/// `w = min(workers, jobs left)` threads would save more than a fork
/// costs: `est_left × (w − 1) / w > FORK_COST`. It then spawns `w − 1`
/// scoped helpers (`par-worker-<h>`) and keeps pulling jobs from the
/// shared iterator alongside them. A single thread configured
/// (`EDM_NUM_THREADS=1`), or a call from a thread `edm-par` already
/// owns, takes the plain serial loop.
///
/// The estimate is taken after jobs 1, 2, 4, 8, …, not after every
/// job: a clock read costs ~50 ns plus a pipeline stall, and reading
/// it after each of 60 jobs of 0.7 µs added 45% to the run. With
/// jobs of even cost the estimate only falls as jobs finish, so the
/// first check decides; the doubling bounds how late a run whose jobs
/// grow costlier can fork.
#[cfg(feature = "parallel")]
fn run_workers<I, F>(mut jobs: I, work: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    let workers = if PAR_OWNED.with(Cell::get) { 1 } else { num_threads() };
    if workers < 2 {
        jobs.for_each(work);
        return;
    }
    let start = Instant::now();
    let (mut done, mut check_at) = (0u64, 1u64);
    while let Some(job) = jobs.next() {
        work(job);
        done += 1;
        if done < check_at {
            continue;
        }
        check_at *= 2;
        let elapsed = start.elapsed();
        let left = jobs.size_hint().0;
        let w = workers.min(left);
        // est_left × (w − 1) / w > FORK_COST, with est_left =
        // elapsed / done × left, cleared of divisions.
        if w > 1
            && elapsed.as_nanos() * left as u128 * (w - 1) as u128
                > FORK_COST.as_nanos() * u128::from(done) * w as u128
        {
            fork(w, jobs, &work, (done, elapsed));
            return;
        }
    }
}

/// Spawns `w − 1` helpers that drain `jobs` alongside the calling
/// thread, which has already run `ran.0` jobs in `ran.1`; the caller's
/// probe credits those too. A panic in any job — the caller's or a
/// helper's — propagates to the caller once every thread has stopped.
#[cfg(feature = "parallel")]
fn fork<I, F>(w: usize, jobs: I, work: &F, ran: (u64, Duration))
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    edm_trace::counter_add("par.forks", 1);
    let mut probe = WorkerProbe { jobs: ran.0, busy: ran.1, ..WorkerProbe::start() };
    let jobs = Mutex::new(jobs);
    let next = || jobs.lock().expect("worker panicked holding job lock").next();
    std::thread::scope(|s| {
        for h in 1..w {
            let next = &next;
            s.spawn(move || {
                let _owned = OwnedGuard::enter();
                let mut probe = WorkerProbe::start();
                probe.name(h);
                while let Some(job) = next() {
                    probe.job(|| work(job));
                }
                probe.finish();
            });
        }
        let _owned = OwnedGuard::enter();
        while let Some(job) = next() {
            probe.job(|| work(job));
        }
    });
    probe.finish();
}

/// Without the `parallel` feature every primitive is its serial loop.
#[cfg(not(feature = "parallel"))]
fn run_workers<I: Iterator, F: Fn(I::Item)>(jobs: I, work: F) {
    jobs.for_each(work);
}

/// Applies `f(row_index, row)` to each `row_len`-sized row of `data`.
///
/// Rows are handed out dynamically — first to the calling thread, and
/// to helper threads once forking pays (see [`for_each_chunk`]); each
/// row is visited exactly once. `f` must confine its writes to the row
/// it was given, which the `&mut` row slice enforces.
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
/// The calling thread processes chunks itself and forks helper threads
/// only once the chunks left are estimated to take longer than a fork
/// costs (see the [crate docs](crate)). There is no size threshold: a
/// long buffer of cheap chunks stays on the caller, and a short one of
/// expensive chunks is shared out after its first chunk. On a thread
/// `edm-par` owns, or with one thread configured, it is a serial loop.
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
    run_workers(data.chunks_mut(chunk_len).enumerate(), |(i, chunk)| f(i, chunk));
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
/// on worker threads when that pays but returning them in index order.
///
/// The calling thread computes slots itself and forks helpers only
/// once the slots left are estimated to take longer than a fork costs
/// (see the [crate docs](crate)), so a handful of cheap slots never
/// leaves the caller.
///
/// # Panics
///
/// A panic inside `f` on any thread propagates to the caller.
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    run_workers(out.iter_mut().enumerate(), |(i, slot)| *slot = Some(f(i)));
    out.into_iter().map(|v| v.expect("every slot filled by exactly one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_serial_exactly() {
        // Cheap rows: this usually stays on the caller; the forked
        // path is pinned in tests/fork_gate.rs.
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
