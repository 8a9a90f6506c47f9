//! Teams of parked helpers: results in chunk order and bitwise equal to
//! the serial loop, panics that reach the caller, stalled helpers that
//! do not hold a call up, no helpers where `edm-par` must not fan out,
//! and no helper thread outliving its team.
//!
//! Every test holds one lock and pins `EDM_NUM_THREADS` (4 unless the
//! test is about 1), so a one-core host still opens teams with helpers
//! and the thread census of one test never sees another test's team.

#![cfg(feature = "parallel")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use edm_par::pool::WorkerPool;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests, configures `threads` workers and arms
/// `summary` tracing.
fn setup(threads: &str) -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var("EDM_NUM_THREADS", threads);
    edm_trace::set_level(edm_trace::Level::Summary);
    guard
}

/// `par.team.handoffs` so far (always 0 when tracing is compiled out).
fn handoffs() -> u64 {
    edm_trace::collect().counter("par.team.handoffs")
}

/// Busy-waits `d`: a chunk whose cost the hand-off gate can see.
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A chunk's value: a non-associative float sum, so any reordering
/// inside a chunk would show in the bits.
fn value(c: usize) -> f64 {
    (0..64).fold(0.0, |acc, k| acc + ((c * 31 + k) as f64).sin() * 1e-3)
}

/// Live team helper threads of this process, by thread name.
#[cfg(target_os = "linux")]
fn team_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("edm-team-"))
        .count()
}

/// A job whose chunk 0 costs far more than a hand-off, and whose later
/// chunks on the caller wait (at most 10 s) until a helper has run a
/// chunk: once the gate clears, helpers certainly take part, even on
/// one core. A chunk's value is its `value` bits and the thread that
/// first ran it, so a rerun of a late helper's chunk on the caller
/// returns the same value, as the team requires.
fn shared_job(
    caller: ThreadId,
    helper_ran: Arc<AtomicBool>,
    chunks: usize,
) -> impl Fn(usize) -> (u64, ThreadId) + Send + Sync + 'static {
    let first_runner = Mutex::new(vec![None; chunks]);
    move |c| {
        let me = thread::current().id();
        if c == 0 {
            spin(Duration::from_micros(300));
        } else if me == caller {
            let t0 = Instant::now();
            while !helper_ran.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                thread::yield_now();
            }
        } else {
            helper_ran.store(true, Ordering::SeqCst);
        }
        let first = *first_runner.lock().expect("runner table")[c].get_or_insert(me);
        (value(c).to_bits(), first)
    }
}

#[test]
fn chunk_results_come_back_in_order_and_bitwise_serial() {
    let _g = setup("4");
    let me = thread::current().id();
    let serial: Vec<u64> = (0..40).map(|c| value(c).to_bits()).collect();
    let before = handoffs();
    edm_par::team(|team| {
        assert_eq!(team.helpers(), 3);
        for _ in 0..3 {
            let helper_ran = Arc::new(AtomicBool::new(false));
            let out = team.map(40, shared_job(me, helper_ran.clone(), 40));
            assert!(helper_ran.load(Ordering::SeqCst), "a helper ran a chunk");
            assert_eq!(out[0].1, me, "the caller prices the call with chunk 0");
            assert!(out.iter().any(|&(_, t)| t != me), "a helper's chunk came back");
            assert_eq!(out.iter().map(|&(v, _)| v).collect::<Vec<_>>(), serial);
        }
        assert!(team.map(0, value).is_empty());
        assert_eq!(team.map(1, value), vec![value(0)]);
    });
    if cfg!(feature = "trace") {
        assert_eq!(handoffs(), before + 3, "one hand-off per shared call, flushed at close");
    }
}

/// `map_local` runs the caller's chunks through `local` and returns
/// only the helpers' chunks, in chunk order: together they cover every
/// chunk once, with the serial values. A solo team runs everything
/// locally.
#[test]
fn map_local_returns_only_the_helpers_chunks() {
    let _g = setup("4");
    let me = thread::current().id();
    let serial: Vec<u64> = (0..40).map(|c| value(c).to_bits()).collect();
    edm_par::team(|team| {
        let helper_ran = Arc::new(AtomicBool::new(false));
        let job = shared_job(me, helper_ran.clone(), 40);
        let job = Arc::new(job);
        let posted = Arc::clone(&job);
        let mut mine: Vec<Option<u64>> = vec![None; 40];
        let theirs = team.map_local(
            40,
            move |c| posted(c).0,
            |c| {
                assert_eq!(thread::current().id(), me, "local chunks run on the caller");
                mine[c] = Some(job(c).0);
            },
        );
        assert!(helper_ran.load(Ordering::SeqCst), "a helper ran a chunk");
        assert!(!theirs.is_empty(), "a helper's chunk came back");
        assert!(theirs.windows(2).all(|w| w[0].0 < w[1].0), "helper chunks in chunk order");
        for &(c, v) in &theirs {
            assert!(mine[c].is_none(), "chunk {c} ran locally and came back");
            mine[c] = Some(v);
        }
        let all: Vec<u64> = mine.into_iter().map(|v| v.expect("every chunk ran once")).collect();
        assert_eq!(all, serial);
    });
    let mut local = Vec::new();
    let theirs: Vec<(usize, u64)> =
        edm_par::Team::solo().map_local(5, |c| value(c).to_bits(), |c| local.push(c));
    assert!(theirs.is_empty());
    assert_eq!(local, (0..5).collect::<Vec<_>>());
}

/// A helper stalled mid-chunk (here: asleep for a second, as if
/// descheduled) does not hold the call up: the caller reruns the chunk
/// it holds and returns the same values.
#[test]
fn late_helper_chunks_are_rerun_by_the_caller() {
    let _g = setup("2");
    let me = thread::current().id();
    let helper_ran = Arc::new(AtomicBool::new(false));
    let flag = helper_ran.clone();
    let (out, took) = edm_par::team(|team| {
        let t0 = Instant::now();
        let out = team.map(4, move |c| {
            if c == 0 {
                spin(Duration::from_micros(300));
            } else if thread::current().id() != me {
                flag.store(true, Ordering::SeqCst);
                thread::sleep(Duration::from_secs(1));
            } else {
                let t0 = Instant::now();
                while !flag.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                    thread::yield_now();
                }
            }
            value(c)
        });
        (out, t0.elapsed())
    });
    assert!(helper_ran.load(Ordering::SeqCst), "the helper took a chunk");
    assert!(took < Duration::from_millis(500), "the call waited {took:?} on a stalled helper");
    assert_eq!(out, (0..4).map(value).collect::<Vec<_>>());
}

#[test]
fn cheap_calls_stay_on_the_caller() {
    let _g = setup("4");
    let me = thread::current().id();
    let before = handoffs();
    edm_par::team(|team| {
        for _ in 0..50 {
            let out = team.map(8, |c| (c * 3, thread::current().id()));
            assert!(out.iter().all(|&(_, t)| t == me), "cheap chunks never wake helpers");
            assert_eq!(
                out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                (0..8).map(|c| c * 3).collect::<Vec<_>>()
            );
        }
    });
    assert_eq!(handoffs(), before, "no call cleared the gate");
}

#[test]
fn panicking_helper_job_reaches_the_caller() {
    let _g = setup("4");
    // Run the team on its own thread so a hang fails the test instead
    // of stalling it.
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let caller = thread::current().id();
        let result = std::panic::catch_unwind(|| {
            edm_par::team(|team| {
                let helper_ran = Arc::new(AtomicBool::new(false));
                let job = shared_job(caller, helper_ran, 16);
                // Chunks a helper ran first panic, on every run.
                team.map(16, move |c| {
                    let (v, first) = job(c);
                    if first != caller {
                        panic!("helper boom");
                    }
                    v
                })
            })
        });
        let message = result.err().map(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        tx.send(message).expect("test channel");
    });
    let message = rx.recv_timeout(Duration::from_secs(60)).expect("the team returned");
    runner.join().expect("runner thread");
    assert_eq!(message, Some(Some("helper boom".to_string())), "the helper's panic, rethrown");
    #[cfg(target_os = "linux")]
    assert_eq!(team_threads(), 0, "the panicking team joined its helpers");
}

#[test]
fn no_helpers_at_one_thread_or_on_a_pool_worker() {
    let _g = setup("1");
    let me = thread::current().id();
    edm_par::team(|team| {
        assert_eq!(team.helpers(), 0, "EDM_NUM_THREADS=1 opens a solo team");
        #[cfg(target_os = "linux")]
        assert_eq!(team_threads(), 0);
        let out = team.map(4, |c| {
            spin(Duration::from_micros(300));
            (value(c), thread::current().id())
        });
        assert!(out.iter().all(|&(_, t)| t == me));
    });

    std::env::set_var("EDM_NUM_THREADS", "4");
    let mut pool = WorkerPool::new(1, 4);
    let (tx, rx) = mpsc::channel();
    pool.try_reserve().expect("empty pool").execute(move || {
        let worker = thread::current().id();
        let seen = edm_par::team(|team| {
            let out = team.map(4, |c| {
                spin(Duration::from_micros(300));
                (value(c), thread::current().id())
            });
            (team.helpers(), out.iter().all(|&(_, t)| t == worker))
        });
        tx.send(seen).expect("test channel");
    });
    let seen = rx.recv_timeout(Duration::from_secs(30)).expect("pool job finished");
    pool.shutdown();
    assert_eq!(seen, (0, true), "a pool worker opens a solo team and runs every chunk");
}

#[cfg(target_os = "linux")]
#[test]
fn no_thread_outlives_the_team() {
    let _g = setup("4");
    assert_eq!(team_threads(), 0);
    let inside = edm_par::team(|team| {
        assert_eq!(team.helpers(), 3);
        // A nested team on the (now edm-par-owned) caller is solo.
        let nested = edm_par::team(|inner| inner.helpers());
        // A helper names itself once it starts running.
        let t0 = Instant::now();
        while team_threads() < 3 && t0.elapsed() < Duration::from_secs(10) {
            thread::sleep(Duration::from_millis(1));
        }
        (team_threads(), nested)
    });
    assert_eq!(inside, (3, 0), "three parked helpers, no nested ones");
    assert_eq!(team_threads(), 0, "every helper joined when the team returned");
    let unwound = std::panic::catch_unwind(|| edm_par::team(|_| -> () { panic!("body boom") }));
    assert!(unwound.is_err());
    assert_eq!(team_threads(), 0, "a panicking body still joins its helpers");
}
