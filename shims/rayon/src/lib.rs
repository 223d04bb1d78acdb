//! Offline shim for the subset of [rayon](https://crates.io/crates/rayon)
//! this workspace uses: `scope`/`spawn`, `current_num_threads`,
//! `ThreadPoolBuilder`/`ThreadPool::install`, and
//! `par_iter`/`par_iter_mut`/`par_chunks_mut` with `for_each` on slices.
//!
//! # Execution model
//!
//! Every parallel region runs on one process-wide pool of
//! `available_parallelism()` worker threads, started on first use and kept
//! for the life of the process. That is the model PAREMSP assumes: an
//! OpenMP-style pool that outlives each parallel region, so a region costs
//! a queue handoff instead of an OS thread spawn per task.
//!
//! * [`Scope::spawn`] boxes the task and pushes it onto the pool's one
//!   shared job queue. Idle workers park on a condition variable; nothing
//!   spins.
//! * [`scope`] runs its body, then runs the scope's own still-queued tasks
//!   on the calling thread and parks until the tasks that workers took have
//!   finished. It returns, or unwinds, only after every task spawned in it
//!   has finished, so tasks may borrow the caller's stack. A scope opened
//!   inside a task works the same way.
//! * A panicking task is caught on the thread that ran it, so the worker
//!   survives. [`scope`] re-raises the panic once all of the task's
//!   siblings have finished.
//! * `for_each` splits the slice into [`current_num_threads`] parts and
//!   runs each part as one task of a [`scope`].
//! * [`ThreadPool::install`] does not create a pool. It sets the count
//!   [`current_num_threads`] reports on the calling thread, and every task
//!   carries the count of the thread that spawned it to the thread that
//!   runs it. So a `for_each` inside a task spawned under `install(3)`
//!   still splits 3 ways.
//!
//! Unlike rayon there is no work stealing: workers take jobs from the
//! queue in FIFO order, and a waiting [`scope`] caller helps only with
//! its own tasks.
//!
//! # Blocking work stays off the pool
//!
//! A task must compute, not wait: not on a channel, on I/O, or on another
//! task. A waiting task holds one of the few workers, and every other
//! region's tasks queue behind it. Tasks that wait for each other, such
//! as a barrier across all of a scope's tasks, can deadlock, because only
//! the workers and the scope's caller run tasks. So the stages that block
//! on channels run on dedicated `std::thread` threads, not on the pool:
//! the pipelined executor's scan thread (`ccl-stream`'s `pipeline`
//! module) and its `PrefetchRows` decode worker (the `prefetch` module).
//! Such a thread may itself call [`scope`]. The caller of a scope always
//! helps run that scope's tasks, so two threads that open scopes at the
//! same time both make progress.
//!
//! See `shims/README.md`.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`], or
    /// carried into a task from the thread that spawned it.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn machine_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Number of threads the "current pool" would use: the
/// [`ThreadPool::install`] override when inside one, otherwise the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(Cell::get).unwrap_or_else(machine_threads)
}

/// Sets the calling thread's thread-count override until the returned
/// guard drops, which restores the previous one (also when unwinding).
fn override_threads(threads: Option<usize>) -> RestoreThreads {
    RestoreThreads(POOL_THREADS.with(|c| c.replace(threads)))
}

struct RestoreThreads(Option<usize>);

impl Drop for RestoreThreads {
    fn drop(&mut self) {
        POOL_THREADS.with(|c| c.set(self.0));
    }
}

/// A set of worker threads serving one job queue.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    /// Notified once per pushed job; idle workers wait on it.
    work: Condvar,
}

/// The process-wide pool, started on first use.
fn global() -> &'static Pool {
    static GLOBAL: OnceLock<&'static Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::start(machine_threads()))
}

impl Pool {
    /// Starts a pool of `workers` threads that lives until the process
    /// exits. The workers are never joined: [`Job::run`] catches every
    /// task's panic, so a worker never stops.
    fn start(workers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        }));
        for i in 0..workers.max(1) {
            thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || pool.serve())
                .expect("failed to start a pool worker thread");
        }
        pool
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        // No task runs while the lock is held, so nothing can poison it.
        self.queue.lock().expect("pool queue lock poisoned")
    }

    fn push(&self, job: Job) {
        self.queue().push_back(job);
        self.work.notify_one();
    }

    /// Removes the newest queued job of `scope`, if any.
    fn take_own(&self, scope: &ScopeState) -> Option<Job> {
        let mut queue = self.queue();
        let i = queue
            .iter()
            .rposition(|job| std::ptr::eq(&*job.scope, scope))?;
        queue.remove(i)
    }

    /// A worker's loop: run queued jobs oldest first, park while none.
    fn serve(&self) {
        loop {
            // The guard drops at the end of the statement, before the run.
            let job = self
                .work
                .wait_while(self.queue(), |queue| queue.is_empty())
                .expect("pool queue lock poisoned")
                .pop_front();
            if let Some(job) = job {
                job.run();
            }
        }
    }
}

/// A queued task and the scope that spawned it.
struct Job {
    scope: Arc<ScopeState>,
    task: Box<dyn FnOnce() + Send>,
}

impl Job {
    /// Runs the task (which consumes and drops it), keeps its panic for
    /// the scope, and counts it finished.
    fn run(self) {
        let Job { scope, task } = self;
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
            let mut first = scope.panic.lock().expect("scope panic slot poisoned");
            if first.is_none() {
                *first = Some(payload);
            }
        }
        scope.finish_one();
    }
}

/// The state one [`scope`] call shares with its tasks.
struct ScopeState {
    pool: &'static Pool,
    /// Spawned tasks that have not finished.
    pending: AtomicUsize,
    /// The first panic payload of a task.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The thread waiting in [`scope`]; the last task to finish unparks it.
    owner: Thread,
}

impl ScopeState {
    fn finish_one(&self) {
        // Release pairs with the Acquire load in `wait`: once the owner
        // reads 0, every task's writes are visible to it.
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            self.owner.unpark();
        }
    }

    /// Runs this scope's queued tasks on the calling thread, then parks
    /// until the tasks other threads took have finished.
    fn wait(&self) {
        while self.pending.load(Ordering::Acquire) != 0 {
            match self.pool.take_own(self) {
                Some(job) => job.run(),
                // A stale unpark only costs one more turn of the loop.
                None => thread::park(),
            }
        }
    }
}

/// A scope in which tasks can be spawned; mirrors `rayon::Scope`. Tasks
/// may borrow anything that outlives `'scope`.
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    /// Invariant in both lifetimes, like `std::thread::Scope`.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    fn new(state: Arc<ScopeState>) -> Self {
        Scope {
            state,
            scope: PhantomData,
            env: PhantomData,
        }
    }

    /// Spawns a task running concurrently with the rest of the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let scope = Scope::new(Arc::clone(&self.state));
        let threads = POOL_THREADS.with(Cell::get);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let _restore = override_threads(threads);
            f(&scope);
        });
        // SAFETY: the transmute changes only the trait object's lifetime
        // bound, not its layout. The task may borrow data that lives for
        // `'scope`, so it must be run and dropped before `scope` returns or
        // unwinds. It is: `pending`, counted up here, falls back only in
        // `Job::run` after the task has been consumed; `scope` waits for
        // `pending` to reach 0 on every path, also when its body panics;
        // and no queued job is ever dropped unrun, since workers never stop.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        // Relaxed: the queue's lock orders this count before the job's
        // `finish_one`, and the spawner is the owner or a pending task,
        // so `pending` cannot read 0 in between.
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        self.state.pool.push(Job {
            scope: Arc::clone(&self.state),
            task,
        });
    }
}

/// Runs `f` with a [`Scope`] on the global pool; returns once every
/// spawned task finished, re-raising the first panic of `f` or a task.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    scope_on(global(), f)
}

fn scope_on<'env, F, R>(pool: &'static Pool, f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let scope = Scope::new(Arc::new(ScopeState {
        pool,
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        owner: thread::current(),
    }));
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    scope.state.wait();
    let task_panic = scope
        .state
        .panic
        .lock()
        .expect("scope panic slot poisoned")
        .take();
    match (result, task_panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
        (Ok(r), None) => r,
    }
}

/// Error returned by [`ThreadPoolBuilder::build`]; the shim never fails.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (unreachable in shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default (machine-sized) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool. Infallible in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self
                .num_threads
                .filter(|&n| n > 0)
                .unwrap_or_else(machine_threads),
        })
    }
}

/// A "pool" that records its size; [`install`](ThreadPool::install) makes
/// [`current_num_threads`] report that size inside the closure and inside
/// every task spawned from it. Tasks still run on the global pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Returns the pool's configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool as the "current" pool.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _restore = override_threads(Some(self.num_threads));
        op()
    }
}

/// Parallel iterator adapters (`par_iter`, `par_iter_mut`) for slices.
pub mod iter {
    use super::{current_num_threads, scope};

    /// Shared-reference parallel iterator over a slice.
    pub struct ParIter<'a, T> {
        items: &'a [T],
    }

    /// Mutable parallel iterator over a slice.
    pub struct ParIterMut<'a, T> {
        items: &'a mut [T],
    }

    /// Extension trait providing [`par_iter`](ParallelSliceExt::par_iter).
    pub trait ParallelSliceExt<T: Sync> {
        /// Parallel counterpart of `[T]::iter`.
        fn par_iter(&self) -> ParIter<'_, T>;
    }

    /// Mutable parallel iterator over fixed-size chunks of a slice.
    pub struct ParChunksMut<'a, T> {
        items: &'a mut [T],
        chunk_size: usize,
    }

    /// Extension trait providing
    /// [`par_iter_mut`](ParallelSliceMutExt::par_iter_mut) and
    /// [`par_chunks_mut`](ParallelSliceMutExt::par_chunks_mut).
    pub trait ParallelSliceMutExt<T: Send> {
        /// Parallel counterpart of `[T]::iter_mut`.
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;

        /// Parallel counterpart of `[T]::chunks_mut`.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Sync> ParallelSliceExt<T> for [T] {
        fn par_iter(&self) -> ParIter<'_, T> {
            ParIter { items: self }
        }
    }

    impl<T: Send> ParallelSliceMutExt<T> for [T] {
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
            ParIterMut { items: self }
        }

        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            ParChunksMut {
                items: self,
                chunk_size,
            }
        }
    }

    impl<'a, T: Sync> ParIter<'a, T> {
        /// Applies `f` to every element, splitting the slice across the
        /// current thread count.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'a T) + Sync,
        {
            let len = self.items.len();
            let threads = current_num_threads().clamp(1, len.max(1));
            if threads <= 1 || len <= 1 {
                self.items.iter().for_each(f);
                return;
            }
            let f = &f;
            scope(|s| {
                for part in self.items.chunks(len.div_ceil(threads)) {
                    s.spawn(move |_| part.iter().for_each(f));
                }
            });
        }
    }

    impl<T: Send> ParIterMut<'_, T> {
        /// Applies `f` to every element, splitting the slice across the
        /// current thread count.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut T) + Sync,
        {
            let len = self.items.len();
            let threads = current_num_threads().clamp(1, len.max(1));
            if threads <= 1 || len <= 1 {
                self.items.iter_mut().for_each(f);
                return;
            }
            let f = &f;
            scope(|s| {
                for part in self.items.chunks_mut(len.div_ceil(threads)) {
                    s.spawn(move |_| part.iter_mut().for_each(f));
                }
            });
        }
    }
    impl<T: Send> ParChunksMut<'_, T> {
        /// Applies `f` to every chunk, distributing chunks across the
        /// current thread count.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut [T]) + Sync,
        {
            let num_chunks = self.items.len().div_ceil(self.chunk_size.max(1));
            let threads = current_num_threads().clamp(1, num_chunks.max(1));
            if threads <= 1 || num_chunks <= 1 {
                self.items.chunks_mut(self.chunk_size).for_each(f);
                return;
            }
            // Hand each task a contiguous run of whole chunks.
            let chunks_per_task = num_chunks.div_ceil(threads);
            let (f, chunk_size) = (&f, self.chunk_size);
            scope(|s| {
                for part in self.items.chunks_mut(chunks_per_task * chunk_size) {
                    s.spawn(move |_| part.chunks_mut(chunk_size).for_each(f));
                }
            });
        }
    }
}

/// Rayon-style prelude: brings the parallel-iterator traits into scope.
pub mod prelude {
    pub use crate::iter::{ParallelSliceExt, ParallelSliceMutExt};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, scope, scope_on, Pool, ThreadPoolBuilder};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Barrier, Mutex};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn scope_spawn_runs_all_tasks() {
        let counter = AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn par_iter_mut_touches_every_element() {
        let mut v: Vec<usize> = (0..1000).collect();
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn par_iter_observes_every_element() {
        let v: Vec<usize> = (0..257).collect();
        let sum = AtomicUsize::new(0);
        v[1..].par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..257).sum::<usize>());
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn install_applies_inside_tasks_on_workers() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        pool.install(|| {
            scope(|s| {
                s.spawn(move |_| {
                    let threads = current_num_threads();
                    // Element 0 waits for elements 1 and 2, which a 3-way
                    // split puts in other tasks; a 2-way split would put
                    // element 1 behind element 0 in its own task.
                    let (tx, rx) = mpsc::channel();
                    let rx = Mutex::new(rx);
                    let mut v = [0usize, 1, 2];
                    v.par_iter_mut().for_each(|x| {
                        if *x == 0 {
                            for _ in 0..2 {
                                rx.lock()
                                    .unwrap()
                                    .recv_timeout(Duration::from_secs(60))
                                    .expect("elements 1 and 2 run in tasks of their own");
                            }
                        } else {
                            tx.send(()).unwrap();
                        }
                    });
                    done_tx.send(threads).unwrap();
                });
                // The caller blocks here, so a pool worker runs the task.
                assert_eq!(done_rx.recv().unwrap(), 3);
            });
        });
    }

    #[test]
    fn task_panic_is_raised_after_siblings_and_workers_survive() {
        let pool = Pool::start(2);
        let started = Barrier::new(3);
        let (tx, rx) = mpsc::channel::<()>();
        // The sibling works on after the panic; `scope` must wait for it.
        const WORK: u64 = 1_000_000;
        let sibling_sum = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            scope_on(pool, |s| {
                s.spawn(|_| {
                    let _tx = tx;
                    started.wait();
                    // Unwinding drops `_tx`, which releases the sibling.
                    panic!("task panic");
                });
                s.spawn(|_| {
                    let rx = rx;
                    started.wait();
                    assert!(rx.recv().is_err(), "only a drop ends the wait");
                    let sum = (1..=WORK).map(std::hint::black_box).sum();
                    sibling_sum.store(sum, Ordering::SeqCst);
                });
                // Both tasks are on the two workers before the body ends.
                started.wait();
            });
        }));
        let payload = result.expect_err("scope re-raises the task's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task panic"));
        assert_eq!(sibling_sum.load(Ordering::SeqCst), WORK * (WORK + 1) / 2);

        // Both workers survived: this scope again needs both at once.
        let ran = AtomicUsize::new(0);
        scope_on(pool, |s| {
            for _ in 0..2 {
                s.spawn(|_| {
                    started.wait();
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            started.wait();
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn scope_nested_in_a_task_completes() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn two_threads_run_scopes_at_once() {
        // The pipelined executor's shape: its scan thread and the merge
        // stage on the caller's thread both open scopes concurrently.
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let start = Arc::clone(&start);
                thread::Builder::new()
                    .spawn(move || {
                        start.wait();
                        let mut total = 0;
                        for _ in 0..1000 {
                            let mut parts = [0usize; 2];
                            scope(|s| {
                                for p in &mut parts {
                                    s.spawn(move |_| *p += 1);
                                }
                            });
                            total += parts.iter().sum::<usize>();
                        }
                        total
                    })
                    .unwrap()
            })
            .collect();
        for caller in callers {
            assert_eq!(caller.join().unwrap(), 2000);
        }
    }

    #[test]
    fn sixty_four_tasks_on_two_workers_write_borrowed_stack_data() {
        // Each task works a little before its write, so a `scope` that
        // returned early would find slots still unwritten.
        let sum_to = |n: u64| (1..=n).map(std::hint::black_box).sum::<u64>();
        let mut out = [0u64; 64];
        scope_on(Pool::start(2), |s| {
            for (i, slot) in (1..).zip(&mut out) {
                s.spawn(move |_| *slot = sum_to(i * 1000));
            }
        });
        assert!((1..)
            .zip(out)
            .all(|(i, x)| x == i * 1000 * (i * 1000 + 1) / 2));
    }
}
