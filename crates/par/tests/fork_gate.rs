//! The fork gate in `edm-par`: a primitive forks helper threads only
//! when the work left on the calling thread is estimated to outweigh a
//! fork, and never from a thread `edm-par` already owns.
//!
//! Every test pins `EDM_NUM_THREADS=4`, so a one-core host still has
//! workers to fork, and holds one lock: the `par.forks` counter is
//! process-wide, and a spinning test running beside the cheap-job test
//! would skew its timings.

#![cfg(feature = "parallel")]

use std::sync::{mpsc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use edm_par::pool::WorkerPool;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests and arms four workers plus `summary` tracing.
fn setup() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var("EDM_NUM_THREADS", "4");
    edm_trace::set_level(edm_trace::Level::Summary);
    guard
}

/// `par.forks` so far (always 0 when tracing is compiled out).
fn forks() -> u64 {
    edm_trace::collect().counter("par.forks")
}

/// `par.jobs` so far (always 0 when tracing is compiled out).
fn jobs() -> u64 {
    edm_trace::collect().counter("par.jobs")
}

/// Busy-waits `d` — a job whose cost the clock can see.
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A job that spins ≥ 200 µs and reports where it ran.
fn slow_job(i: usize) -> (usize, ThreadId) {
    spin(Duration::from_micros(200));
    (i * i, thread::current().id())
}

#[test]
fn cheap_jobs_never_fork() {
    let _g = setup();
    let (before, jobs_before) = (forks(), jobs());
    let me = thread::current().id();
    let out = edm_par::map_indexed(16, |i| (i * 3, thread::current().id()));
    assert!(out.iter().all(|&(_, t)| t == me), "cheap jobs all ran on the caller");
    assert_eq!(
        out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
        (0..16).map(|i| i * 3).collect::<Vec<_>>()
    );
    assert_eq!(forks(), before, "16 cheap jobs must not fork");
    assert_eq!(jobs(), jobs_before, "a run that never forks records no probes");
}

#[test]
fn slow_jobs_fork_and_keep_index_order() {
    let _g = setup();
    let (before, jobs_before) = (forks(), jobs());
    let me = thread::current().id();
    let out = edm_par::map_indexed(32, slow_job);
    let serial: Vec<usize> = (0..32).map(|i| i * i).collect();
    assert_eq!(out.iter().map(|&(v, _)| v).collect::<Vec<_>>(), serial);
    assert_eq!(out[0].1, me, "the caller runs the first job itself");
    if cfg!(feature = "trace") {
        assert_eq!(forks(), before + 1, "one call forks at most once");
        assert_eq!(jobs(), jobs_before + 32, "par.jobs counts the caller's jobs too");
    }

    let mut data = vec![0u64; 16 * 8];
    edm_par::for_each_chunk(&mut data, 8, |c, chunk| {
        spin(Duration::from_micros(200));
        for (off, v) in chunk.iter_mut().enumerate() {
            *v = (c * 8 + off) as u64;
        }
    });
    assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    if cfg!(feature = "trace") {
        assert_eq!(forks(), before + 2, "slow chunks fork too");
    }
}

#[test]
fn pool_jobs_never_fork() {
    let _g = setup();
    let before = forks();
    let mut pool = WorkerPool::new(1, 4);
    let (tx, rx) = mpsc::channel();
    pool.try_reserve().expect("empty pool").execute(move || {
        let me = thread::current().id();
        let out = edm_par::map_indexed(16, slow_job);
        tx.send((me, out)).expect("test channel");
    });
    let (worker, out) = rx.recv_timeout(Duration::from_secs(30)).expect("pool job finished");
    pool.shutdown();
    assert!(out.iter().all(|&(_, t)| t == worker), "every job ran on the pool worker");
    assert_eq!(
        out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
        (0..16).map(|i| i * i).collect::<Vec<_>>()
    );
    assert_eq!(forks(), before, "a pool worker must not fork");
}

#[test]
fn nested_calls_in_a_forked_run_stay_serial() {
    let _g = setup();
    let before = forks();
    // Every outer job runs an inner map that would fork on its own.
    // Outer job 0 runs on the caller before the outer fork, so its inner
    // map may still fork; once the outer run has forked, every inner map
    // stays on its outer job's thread.
    let out = edm_par::map_indexed(8, |i| {
        let outer = thread::current().id();
        let inner = edm_par::map_indexed(4, slow_job);
        if i > 0 {
            assert!(
                inner.iter().all(|&(_, t)| t == outer),
                "inner jobs stay on the outer job's thread"
            );
        }
        inner.iter().map(|&(v, _)| v).sum::<usize>() + i
    });
    assert_eq!(out, (0..8).map(|i| 14 + i).collect::<Vec<_>>());
    if cfg!(feature = "trace") {
        assert_eq!(
            forks(),
            before + 2,
            "outer job 0's inner fork plus the outer fork, nothing nested"
        );
    }
}

#[test]
fn panic_in_a_caller_job_propagates() {
    let _g = setup();
    let result = std::panic::catch_unwind(|| {
        edm_par::map_indexed(8, |i| {
            if i == 0 {
                panic!("caller boom");
            }
            slow_job(i)
        })
    });
    assert!(result.is_err(), "job 0 runs on the caller; its panic must reach the caller");
}

#[test]
fn panic_in_a_helper_job_propagates() {
    let _g = setup();
    let me = thread::current().id();
    let result = std::panic::catch_unwind(|| {
        edm_par::map_indexed(64, |i| {
            let (v, t) = slow_job(i);
            if t != me {
                panic!("helper boom");
            }
            v
        })
    });
    assert!(result.is_err(), "a helper's panic must reach the caller");
}
