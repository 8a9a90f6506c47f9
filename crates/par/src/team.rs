//! Parked helper threads for the life of one long computation.
//!
//! The fork gate ([crate docs](crate)) pays a spawn and a join per
//! call, 60–70 µs, which is about what a whole 5120-entry SMO Q-row
//! fill costs: the fill cannot win by forking. A [`team`] instead spawns
//! its `num_threads() − 1` helpers once, parks them on a condvar while
//! its body runs, and joins them when the body returns. A call on the
//! team, [`Team::map`], then only has to wake them.
//!
//! **Who takes part.** A call hands out chunk indices from a shared
//! counter. The calling thread runs the first chunk itself and times
//! it. It wakes helpers only when the chunks left, at that pace, would
//! take longer than a hand-off costs (`est_left × (w − 1) / w >
//! HANDOFF_COST`, the rule of the fork gate). The caller keeps claiming
//! chunks beside any helper that wakes, so a late helper just claims
//! fewer chunks: a call costs at most about one wake-up more than the
//! serial loop, unless a helper is descheduled while it holds a chunk.
//! Once no chunk is left to claim, the caller spins briefly for the
//! chunks helpers still hold before it parks.
//!
//! **Why no `unsafe`.** A posted job must be `'env`: it may borrow only
//! what outlives the whole team (a kernel, the samples), owns its
//! per-call data (row and column lists), and returns each chunk's
//! values by value. Nothing that lives for one call is ever lent to a
//! thread that outlives the call, so the helpers can be long-lived
//! without erasing a lifetime.
//!
//! **Determinism.** One result is kept per chunk, and the results come
//! back in chunk order, so a call returns bitwise what
//! `(0..chunks).map(job)` returns. A chunk whose helper falls far
//! behind is run a second time by the caller; the job must return the
//! same value for a chunk every time (the Q-row fills do: each is a
//! pure function of its chunk).
//!
//! **Who gets helpers.** Like the fork-join primitives, a team opened
//! with one thread configured (`EDM_NUM_THREADS=1`), on a thread
//! `edm-par` already owns (a `WorkerPool` worker, a helper, a caller
//! inside a team or beside forked helpers), or without the `parallel`
//! feature spawns no helpers: every call runs its chunks on the
//! caller. Inside a team body the caller is itself `edm-par`-owned, so
//! nested primitives run their serial loops.

use std::marker::PhantomData;

#[cfg(feature = "parallel")]
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[cfg(feature = "parallel")]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "parallel")]
use std::sync::{Arc, PoisonError};
#[cfg(feature = "parallel")]
use std::time::{Duration, Instant};

#[cfg(feature = "parallel")]
use crate::sync::{DbgCondvar, DbgMutex, DbgMutexGuard};

/// What waking the helpers costs a call: posting the job and
/// signalling the condvar on the caller, the helper's wake-up before it
/// claims its first chunk, and the caller's wait for the last chunk a
/// helper holds. From the end of the caller's first chunk to a helper
/// starting its own measured 7–9 µs (p10–p90) on a shared 2-vCPU
/// x86-64 VM, and calls whose estimated saving was under 8–10 µs ran
/// slower handed off than alone. The constant doubles that, so a
/// hand-off must save clearly more than it spends.
#[cfg(feature = "parallel")]
const HANDOFF_COST: Duration = Duration::from_micros(20);

/// A set of parked helper threads, open for the life of one [`team`]
/// body. See the [module docs](self).
///
/// `'env` is what a job posted to the team may borrow: it outlives the
/// whole team.
#[derive(Clone)]
pub struct Team<'env> {
    #[cfg(feature = "parallel")]
    shared: Option<Arc<Shared<'env>>>,
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl std::fmt::Debug for Team<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team").field("helpers", &self.helpers()).finish()
    }
}

/// Opens a team of `num_threads() − 1` parked helpers, runs `body`
/// with it, then wakes the helpers to exit and joins them: no helper
/// outlives the call, also when `body` panics.
///
/// No helper is spawned with one thread configured, on a thread
/// `edm-par` already owns, or without the `parallel` feature; the team
/// then runs every call on the caller. While helpers exist the calling
/// thread counts as `edm-par`-owned, so the fork-join primitives and
/// nested teams called from `body` stay serial.
pub fn team<'env, R>(body: impl FnOnce(&Team<'env>) -> R) -> R {
    #[cfg(feature = "parallel")]
    {
        let helpers =
            if crate::PAR_OWNED.with(std::cell::Cell::get) { 0 } else { crate::num_threads() - 1 };
        if helpers > 0 {
            return with_helpers(helpers, body);
        }
    }
    body(&Team::solo())
}

impl<'env> Team<'env> {
    /// A team with no helpers: every [`Team::map`] runs its chunks on
    /// the caller, in order.
    pub fn solo() -> Self {
        Team {
            #[cfg(feature = "parallel")]
            shared: None,
            _env: PhantomData,
        }
    }

    /// The helper threads this team has (0 for a solo team).
    pub fn helpers(&self) -> usize {
        #[cfg(feature = "parallel")]
        {
            self.shared.as_ref().map_or(0, |s| s.helpers)
        }
        #[cfg(not(feature = "parallel"))]
        {
            0
        }
    }

    /// Returns `[job(0), job(1), …, job(chunks − 1)]`, computing the
    /// chunks on the caller and, once the gate clears, on woken
    /// helpers (see the [module docs](self)). `job(c)` must return the
    /// same value every time: a chunk a late helper holds is also run
    /// by the caller, and either result may be kept.
    ///
    /// # Panics
    ///
    /// A panic in any chunk, on the caller or on a helper, propagates
    /// to the caller once every chunk has a result (the first
    /// panicking chunk's, in chunk order).
    pub fn map<T, F>(&self, chunks: usize, job: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Send + Sync + 'env,
    {
        #[cfg(feature = "parallel")]
        if let Some(shared) = &self.shared {
            return shared.map(chunks, job);
        }
        (0..chunks).map(job).collect()
    }
}

// ---------------------------------------------------------------------
// The parallel engine.
// ---------------------------------------------------------------------

/// A posted call, type-erased for the helpers.
#[cfg(feature = "parallel")]
trait Posted: Send + Sync {
    /// Claims and runs chunks until none are left.
    fn work(&self);
}

/// What the helpers wait on.
#[cfg(feature = "parallel")]
struct Post<'env> {
    /// The call open for helpers, if any.
    call: Option<Arc<dyn Posted + 'env>>,
    /// Bumped per posted call, so a helper joins each call once.
    generation: u64,
    /// Calls that woke helpers, flushed to `par.team.handoffs` when
    /// the team closes.
    handoffs: u64,
    /// Set when the team closes: helpers exit.
    closed: bool,
}

#[cfg(feature = "parallel")]
struct Shared<'env> {
    post: DbgMutex<Post<'env>>,
    wake: DbgCondvar,
    helpers: usize,
}

#[cfg(feature = "parallel")]
impl<'env> Shared<'env> {
    fn lock(&self) -> DbgMutexGuard<'_, Post<'env>> {
        self.post.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn map<T, F>(&self, chunks: usize, job: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Send + Sync + 'env,
    {
        if chunks == 0 {
            return Vec::new();
        }
        // The first chunk runs on the caller and prices the rest.
        let start = Instant::now();
        let first = job(0);
        let elapsed = start.elapsed();
        let left = chunks - 1;
        let w = (self.helpers + 1).min(left);
        // est_left × (w − 1) / w > HANDOFF_COST, with est_left =
        // elapsed × left, cleared of divisions.
        if w < 2
            || elapsed.as_nanos() * left as u128 * (w - 1) as u128
                <= HANDOFF_COST.as_nanos() * w as u128
        {
            let mut out = Vec::with_capacity(chunks);
            out.push(first);
            out.extend((1..chunks).map(job));
            return out;
        }
        let call = Arc::new(Call::new(job, chunks, first));
        let generation = {
            let mut post = self.lock();
            post.generation += 1;
            post.handoffs += 1;
            post.call = Some(call.clone() as Arc<dyn Posted + 'env>);
            post.generation
        };
        for _ in 1..w {
            self.wake.notify_one();
        }
        call.work();
        {
            // Late helpers find nothing to join.
            let mut post = self.lock();
            if post.generation == generation {
                post.call = None;
            }
        }
        call.finish(elapsed)
    }

    /// A helper's life: join each posted call once, until the team
    /// closes.
    fn helper(&self) {
        let _owned = crate::OwnedGuard::enter();
        let mut seen = 0;
        loop {
            let call = {
                let mut post = self.lock();
                loop {
                    if post.closed {
                        return;
                    }
                    if post.generation != seen {
                        if let Some(call) = &post.call {
                            seen = post.generation;
                            break Arc::clone(call);
                        }
                    }
                    post = self.wake.wait(post).unwrap_or_else(PoisonError::into_inner);
                }
            };
            call.work();
        }
    }
}

/// One [`Team::map`] call once helpers are woken: its job, the chunk
/// counter, and the finished chunks.
#[cfg(feature = "parallel")]
struct Call<T, F> {
    job: F,
    chunks: usize,
    /// Next unclaimed chunk.
    next: AtomicUsize,
    /// Chunks not yet finished; decremented under the `done` lock.
    left: AtomicUsize,
    /// Each chunk's value, or its panic, once one thread finished it.
    done: DbgMutex<Vec<Option<std::thread::Result<T>>>>,
}

#[cfg(feature = "parallel")]
impl<T: Send, F: Fn(usize) -> T + Send + Sync> Call<T, F> {
    /// A call whose chunk 0 the caller already ran.
    fn new(job: F, chunks: usize, first: T) -> Self {
        let mut done: Vec<_> = (0..chunks).map(|_| None).collect();
        done[0] = Some(Ok(first));
        Call {
            job,
            chunks,
            next: AtomicUsize::new(1),
            left: AtomicUsize::new(chunks - 1),
            done: DbgMutex::new("par.team.done", done),
        }
    }

    fn lock(&self) -> DbgMutexGuard<'_, Vec<Option<std::thread::Result<T>>>> {
        self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs chunk `c` and keeps its result unless another thread
    /// finished the chunk first: every run of a chunk returns the same
    /// value, so which one is kept changes nothing. A run that ends
    /// after the caller collected the results finds no slot.
    fn run(&self, c: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| (self.job)(c)));
        if let Some(slot @ None) = self.lock().get_mut(c) {
            *slot = Some(result);
            self.left.fetch_sub(1, Ordering::Release);
        }
    }

    /// Collects the chunks helpers still hold, then returns the values
    /// in chunk order or rethrows the first chunk's panic. A helper's
    /// last chunk usually lands within a chunk's time (`chunk`, as
    /// priced by chunk 0), so the caller spins up to two of those. A
    /// helper later than that was most likely descheduled mid-chunk, so
    /// the caller runs the chunks it still holds itself instead of
    /// waiting for it to be scheduled again: a call never waits on a
    /// helper for more than about three chunks' time.
    fn finish(&self, chunk: Duration) -> Vec<T> {
        let start = Instant::now();
        while self.left.load(Ordering::Acquire) > 0 && start.elapsed() < 2 * chunk {
            std::hint::spin_loop();
        }
        if self.left.load(Ordering::Acquire) > 0 {
            let late: Vec<usize> = {
                let done = self.lock();
                (0..self.chunks).filter(|&c| done[c].is_none()).collect()
            };
            for c in late {
                self.run(c);
            }
        }
        let done = std::mem::take(&mut *self.lock());
        done.into_iter()
            .map(|r| match r.expect("every chunk finished by a helper or the caller") {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

#[cfg(feature = "parallel")]
impl<T: Send, F: Fn(usize) -> T + Send + Sync> Posted for Call<T, F> {
    fn work(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            self.run(c);
        }
    }
}

/// Closes the team when the body returns or unwinds: helpers are told
/// to exit and joined before [`team`] returns.
#[cfg(feature = "parallel")]
struct Close<'a, 'scope, 'env> {
    shared: &'a Shared<'env>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ()>>,
}

#[cfg(feature = "parallel")]
impl Drop for Close<'_, '_, '_> {
    fn drop(&mut self) {
        let handoffs = {
            let mut post = self.shared.lock();
            post.closed = true;
            post.handoffs
        };
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            // Helpers catch job panics, so a join error cannot carry
            // one; the scope would rethrow it anyway.
            let _ = handle.join();
        }
        if handoffs > 0 {
            edm_trace::counter_add("par.team.handoffs", handoffs);
        }
    }
}

#[cfg(feature = "parallel")]
fn with_helpers<'env, R>(helpers: usize, body: impl FnOnce(&Team<'env>) -> R) -> R {
    let shared = Arc::new(Shared {
        post: DbgMutex::new(
            "par.team.post",
            Post { call: None, generation: 0, handoffs: 0, closed: false },
        ),
        wake: DbgCondvar::new(),
        helpers,
    });
    std::thread::scope(|s| {
        let handles = (1..=helpers)
            .filter_map(|h| {
                let shared = &*shared;
                std::thread::Builder::new()
                    .name(format!("edm-team-{h}"))
                    .spawn_scoped(s, move || {
                        if edm_trace::enabled() {
                            edm_trace::name_thread(&format!("team-helper-{h}"));
                        }
                        shared.helper();
                    })
                    // A helper the OS refuses is one fewer helper: the
                    // caller claims its chunks.
                    .ok()
            })
            .collect();
        let _close = Close { shared: &shared, handles };
        let _owned = crate::OwnedGuard::enter();
        body(&Team { shared: Some(Arc::clone(&shared)), _env: PhantomData })
    })
}
