//! Fixed-size worker pool with a bounded job queue.
//!
//! The scoped primitives in the crate root ([`crate::for_each_row`],
//! [`crate::map_indexed`]) fork and join around one data-parallel loop.
//! Long-lived services — the `edm-serve` HTTP front end in particular —
//! instead need a *persistent* pool that accepts independent jobs over
//! time, rejects work when a bounded queue is full (backpressure
//! instead of unbounded memory growth), and drains cleanly on
//! shutdown. [`WorkerPool`] provides exactly that, and because it lives
//! in `edm-par` it is the one sanctioned home for those threads: the
//! workspace `direct-thread-spawn` lint bans `thread::spawn` everywhere
//! else.
//!
//! Admission is two-phase so callers never lose the resources captured
//! by a rejected closure: [`WorkerPool::try_reserve`] claims a queue
//! slot (or reports queue-full immediately), and the returned
//! [`Permit`] then moves the job in. A caller holding a connection can
//! therefore decide to send `503 Service Unavailable` *before*
//! surrendering the socket to a closure.
//!
//! Pool workers never fan out further: every worker marks itself
//! `edm-par`-owned, so a fork-join primitive ([`crate::map_indexed`],
//! [`crate::for_each_chunk`], ...) called from a job runs its plain
//! serial loop on that worker. The pool already owns the cores it was
//! sized for; a server batch flush or an online `:train` forking on
//! top of it would only add spawn cost and oversubscribe them.
//!
//! Jobs are isolated: a panicking job is caught and counted, and the
//! worker thread survives to run the next job. [`WorkerPool::shutdown`]
//! (also invoked on drop) stops admission, lets the workers finish
//! every job already queued, and joins them.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{DbgCondvar, DbgMutex, DbgMutexGuard};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    /// Slots claimed by outstanding [`Permit`]s but not yet enqueued.
    reserved: usize,
    shutdown: bool,
}

struct Inner {
    state: DbgMutex<State>,
    not_empty: DbgCondvar,
    capacity: usize,
    panics: AtomicU64,
}

impl Inner {
    /// Locks the state, recovering from poisoning (a panic can only
    /// poison the lock from a caller's `try_reserve`/`execute` path;
    /// the queue itself is always consistent between operations).
    fn lock(&self) -> DbgMutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A fixed set of worker threads draining a bounded FIFO job queue.
///
/// See the [module docs](self) for the admission protocol and
/// shutdown semantics.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

/// A claimed queue slot, returned by [`WorkerPool::try_reserve`].
///
/// Call [`Permit::execute`] to enqueue a job into the slot, or drop the
/// permit to release the slot unused.
pub struct Permit<'a> {
    inner: &'a Inner,
    armed: bool,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads behind a queue holding at
    /// most `queue_capacity` pending jobs. Both are clamped to ≥ 1.
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        let inner = Arc::new(Inner {
            state: DbgMutex::new(
                "par.pool.state",
                State { queue: VecDeque::new(), reserved: 0, shutdown: false },
            ),
            not_empty: DbgCondvar::new(),
            capacity: queue_capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    // Label this thread's timeline ring so Chrome-trace
                    // exports name the track after the pool worker.
                    edm_trace::name_thread(&format!("pool-worker-{w}"));
                    worker_loop(&inner)
                })
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Claims a queue slot if one is free and the pool is accepting
    /// work; returns `None` when the queue (counting outstanding
    /// permits) is full or the pool is shutting down.
    pub fn try_reserve(&self) -> Option<Permit<'_>> {
        let mut st = self.inner.lock();
        if st.shutdown || st.queue.len() + st.reserved >= self.inner.capacity {
            return None;
        }
        st.reserved += 1;
        Some(Permit { inner: &self.inner, armed: true })
    }

    /// Number of jobs currently waiting in the queue, including slots
    /// claimed by outstanding permits.
    pub fn queue_len(&self) -> usize {
        let st = self.inner.lock();
        st.queue.len() + st.reserved
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Number of jobs that panicked (each was caught; the worker
    /// survived).
    pub fn panic_count(&self) -> u64 {
        self.inner.panics.load(Ordering::Relaxed)
    }

    /// Stops admission, drains every job already queued, and joins the
    /// worker threads. Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
        }
        self.inner.not_empty.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job is already gone;
            // nothing to propagate beyond the panic counter.
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("capacity", &self.inner.capacity)
            .field("queue_len", &self.queue_len())
            .finish()
    }
}

impl Permit<'_> {
    /// Enqueues `job` into the reserved slot and wakes a worker.
    pub fn execute<F: FnOnce() + Send + 'static>(mut self, job: F) {
        let mut st = self.inner.lock();
        st.reserved -= 1;
        st.queue.push_back(Box::new(job));
        self.armed = false;
        drop(st);
        self.inner.not_empty.notify_one();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.inner.lock();
            st.reserved -= 1;
        }
    }
}

fn worker_loop(inner: &Inner) {
    let _owned = crate::OwnedGuard::enter();
    loop {
        let job = {
            let mut st = inner.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.not_empty.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            inner.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_all_jobs_and_drains_on_shutdown() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(3, 64);
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let permit = pool.try_reserve().expect("queue should have room");
            permit.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn rejects_when_queue_is_full() {
        let mut pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();

        // Occupy the single worker…
        pool.try_reserve().expect("empty pool").execute(move || {
            started_tx.send(()).expect("test channel");
            block_rx.recv().expect("test channel");
        });
        started_rx.recv().expect("worker should start the job");
        // …fill the single queue slot…
        let (block2_tx, block2_rx) = mpsc::channel::<()>();
        pool.try_reserve().expect("one queue slot").execute(move || {
            block2_rx.recv().expect("test channel");
        });
        // …and the next reservation must be refused.
        assert!(pool.try_reserve().is_none(), "queue-full must reject");
        assert_eq!(pool.queue_len(), 1);

        block_tx.send(()).expect("test channel");
        block2_tx.send(()).expect("test channel");
        pool.shutdown();
    }

    #[test]
    fn dropped_permit_releases_its_slot() {
        let pool = WorkerPool::new(1, 1);
        let permit = pool.try_reserve().expect("empty pool");
        assert!(pool.try_reserve().is_none(), "slot is reserved");
        drop(permit);
        assert!(pool.try_reserve().is_some(), "slot came back");
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let mut pool = WorkerPool::new(1, 8);
        pool.try_reserve().expect("room").execute(|| panic!("job panic"));
        let (tx, rx) = mpsc::channel::<u32>();
        pool.try_reserve().expect("room").execute(move || {
            tx.send(7).expect("test channel");
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(7));
        assert_eq!(pool.panic_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn no_admission_after_shutdown() {
        let mut pool = WorkerPool::new(1, 4);
        pool.shutdown();
        assert!(pool.try_reserve().is_none());
    }
}
