//! The persistent worker pool and its chunked work-stealing scheduler.
//!
//! [`ThreadPoolBuilder::build`] spawns the pool's worker threads exactly
//! once; they live until the [`ThreadPool`] is dropped (the implicit global
//! pool lives for the process).  Every parallel region — the `par_*`
//! adapters in [`crate::iter`], [`join`], [`scope`] — is turned into a *job*:
//! the index space is cut into contiguous spans, the spans are dealt into
//! one deque per participant, and every participant (the submitting thread
//! plus any idle worker) pops spans from its own deque front and, when that
//! runs dry, steals from the back of a victim's deque.  On skewed work
//! distributions this dynamic scheduling keeps all workers busy where the
//! old static equal-block splitting left most of them idle behind the one
//! worker that drew the heavy slice.
//!
//! Scheduling properties worth knowing:
//!
//! - **Span boundaries are a pure function of the length and the pool
//!   width**, never of timing.  Stealing only decides *which* thread runs a
//!   span; order-sensitive adapters reassemble results by span start, so
//!   every adapter is deterministic for a fixed thread count.
//! - **The submitting thread always participates** and can finish a job
//!   entirely on its own, so a job completes even if every worker is busy
//!   with other jobs — submitting from inside a worker can never deadlock.
//! - **A panic in a span poisons only its job**: remaining spans are
//!   drained without running, the first payload is re-thrown on the
//!   submitting thread, and the workers survive for the next job.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on the worker count of one pool; requests beyond it are a
/// build error (this is the shim's only build failure besides OS spawn
/// failures, and exists so the error path is actually testable).
pub(crate) const MAX_POOL_THREADS: usize = 4096;

/// How many spans each participant's deque receives; more spans mean
/// finer-grained stealing at slightly more queue traffic.
const SPANS_PER_WORKER: usize = 4;

/// Process-wide count of worker OS threads ever spawned by any pool.
static WORKER_SPAWNS: AtomicUsize = AtomicUsize::new(0);

/// Total worker OS threads spawned by every pool since process start.
///
/// Shim-only instrumentation (real rayon has no equivalent): the
/// scheduling test suite uses it to prove that workers are persistent —
/// running more parallel regions must not move this counter.
pub fn worker_threads_spawned() -> usize {
    WORKER_SPAWNS.load(Ordering::SeqCst)
}

thread_local! {
    /// The pool the innermost [`ThreadPool::install`] scope dispatches to;
    /// `None` means "use the implicit global pool".
    static CURRENT_POOL: RefCell<Option<Arc<PoolShared>>> = const { RefCell::new(None) };
    /// True while this thread is executing one span of a job; nested
    /// parallel adapters then run sequentially instead of resubmitting.
    static IN_SPAN: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of threads a parallel region started here would use (mirrors
/// `rayon::current_num_threads`): 1 inside a span (nested parallelism is
/// sequential), the installed pool's width under `install`, the machine
/// default otherwise.
pub fn current_num_threads() -> usize {
    if IN_SPAN.with(Cell::get) {
        return 1;
    }
    CURRENT_POOL
        .with(|p| p.borrow().as_ref().map(|s| s.num_threads))
        .unwrap_or_else(default_threads)
}

/// Restores the previous installed pool on drop, so panics inside
/// `install` cannot leak the setting.
struct PoolGuard {
    previous: Option<Arc<PoolShared>>,
}

impl PoolGuard {
    fn set(pool: Arc<PoolShared>) -> Self {
        let previous = CURRENT_POOL.with(|c| c.borrow_mut().replace(pool));
        PoolGuard { previous }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT_POOL.with(|c| *c.borrow_mut() = previous);
    }
}

/// Scoped setter for the [`IN_SPAN`] flag.
struct SpanFlagGuard {
    previous: bool,
}

impl SpanFlagGuard {
    fn set(value: bool) -> Self {
        let previous = IN_SPAN.with(|c| c.replace(value));
        SpanFlagGuard { previous }
    }
}

impl Drop for SpanFlagGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        IN_SPAN.with(|c| c.set(previous));
    }
}

/// Error type of [`ThreadPoolBuilder::build`]; carries the reason the pool
/// could not be brought up.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    reason: String,
}

impl ThreadPoolBuildError {
    fn new(reason: String) -> Self {
        ThreadPoolBuildError { reason }
    }
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error: {}", self.reason)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] (mirrors `rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the machine-default thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count; 0 means the machine default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool, spawning its `n - 1` persistent worker threads (the
    /// thread calling into the pool is always the `n`-th participant).
    ///
    /// Fails with a descriptive [`ThreadPoolBuildError`] if the requested
    /// width exceeds the shim's supported maximum or the OS refuses to
    /// spawn a worker thread.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        if n > MAX_POOL_THREADS {
            return Err(ThreadPoolBuildError::new(format!(
                "requested {n} worker threads, but this pool supports at most {MAX_POOL_THREADS}"
            )));
        }
        let shared = Arc::new(PoolShared {
            num_threads: n,
            injector: Mutex::new(Injector {
                jobs: Vec::new(),
                shutdown: false,
            }),
            work_signal: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(n.saturating_sub(1));
        for index in 1..n {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{index}"))
                .spawn(move || worker_main(&worker_shared, index));
            match spawned {
                Ok(handle) => {
                    WORKER_SPAWNS.fetch_add(1, Ordering::SeqCst);
                    workers.push(handle);
                }
                Err(e) => {
                    // Tear down what was already spawned before reporting.
                    let pool = ThreadPool { shared, workers };
                    drop(pool);
                    return Err(ThreadPoolBuildError::new(format!(
                        "failed to spawn worker thread {index} of {n}: {e}"
                    )));
                }
            }
        }
        Ok(ThreadPool { shared, workers })
    }
}

/// A persistent pool of worker threads (mirrors `rayon::ThreadPool`).
///
/// Workers are spawned once at [`build`](ThreadPoolBuilder::build) time and
/// parked on a condition variable while idle; every parallel region run
/// under [`install`](ThreadPool::install) reuses them, so the per-call cost
/// is a queue push and a wakeup rather than thread creation.  Dropping the
/// pool signals shutdown and joins all workers.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `f` with this pool executing every parallel region reached from
    /// it (including regions inside nested `install` calls on other pools,
    /// which switch pools for their own duration).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _pool_guard = PoolGuard::set(Arc::clone(&self.shared));
        // `install` opens a fresh parallel context even when called from
        // inside a span of another job; the submitting thread participates
        // in its own jobs, so this cannot deadlock.
        let _span_guard = SpanFlagGuard::set(false);
        f()
    }

    /// This pool's participant count (spawned workers + the caller).
    pub fn current_num_threads(&self) -> usize {
        self.shared.num_threads
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.shared.num_threads)
            .field("spawned_workers", &self.workers.len())
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut injector = self.shared.injector.lock().unwrap();
            injector.shutdown = true;
        }
        self.shared.work_signal.notify_all();
        for handle in self.workers.drain(..) {
            handle.join().expect("pool worker panicked outside a job");
        }
    }
}

/// The process-wide pool used when no [`ThreadPool::install`] scope is
/// active, built lazily at machine-default width and never torn down.
fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .build()
            .expect("failed to build the global thread pool")
    })
}

/// State shared between a pool handle and its workers.
struct PoolShared {
    num_threads: usize,
    injector: Mutex<Injector>,
    work_signal: Condvar,
}

/// The pool's job inbox, guarded by the injector mutex.
struct Injector {
    jobs: Vec<Arc<JobCore>>,
    shutdown: bool,
}

impl PoolShared {
    fn inject(&self, job: Arc<JobCore>) {
        {
            let mut injector = self.injector.lock().unwrap();
            injector.jobs.push(job);
        }
        self.work_signal.notify_all();
    }

    fn remove(&self, job: &Arc<JobCore>) {
        let mut injector = self.injector.lock().unwrap();
        injector.jobs.retain(|j| !Arc::ptr_eq(j, job));
    }

    /// Submits a job, helps execute it, blocks until every span completed,
    /// and re-throws the first panic any span raised.
    fn run_job(&self, job: &Arc<JobCore>) {
        self.inject(Arc::clone(job));
        job.participate(0);
        job.wait_done();
        self.remove(job);
        if let Some(payload) = job.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
    }

    /// Cuts `0..len` into [`SPANS_PER_WORKER`] equal spans per participant,
    /// deals them into per-participant deques, and runs `body` over all of
    /// them in parallel.
    fn run_parallel(&self, len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        let span_len = len.div_ceil(self.num_threads * SPANS_PER_WORKER).max(1);
        let mut spans = Vec::with_capacity(len.div_ceil(span_len));
        let mut start = 0;
        while start < len {
            let end = (start + span_len).min(len);
            spans.push(start..end);
            start = end;
        }
        self.run_spans(spans, body);
    }

    /// Cuts `0..costs.len()` into spans whose *total cost* (not length) is
    /// balanced, then deals and runs them like [`run_parallel`].  This is
    /// the weighted-scheduling entry point: weights are per-job, so the
    /// caller supplies the cost vector with the submission.  Span
    /// boundaries remain a pure function of the costs and the pool width —
    /// never of timing.
    fn run_parallel_weighted(&self, costs: &[u64], body: &(dyn Fn(Range<usize>) + Sync)) {
        let bounds = weighted_span_boundaries(costs, self.num_threads * SPANS_PER_WORKER);
        let spans: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
        self.run_spans(spans, body);
    }

    /// Deals pre-cut spans into per-participant deques and runs `body` over
    /// all of them in parallel (the shared tail of [`run_parallel`] and
    /// [`run_parallel_weighted`]).
    fn run_spans(&self, spans: Vec<Range<usize>>, body: &(dyn Fn(Range<usize>) + Sync)) {
        let n = self.num_threads;
        let num_spans = spans.len();
        let mut deques: Vec<Mutex<VecDeque<Range<usize>>>> =
            (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
        for (w, deque) in deques.iter_mut().enumerate() {
            let share = participant_block(num_spans, n, w);
            deque
                .get_mut()
                .unwrap()
                .extend(spans[share].iter().cloned());
        }
        let job = Arc::new(JobCore {
            // Safety: `run_job` below blocks until every span completed, so
            // the erased borrow of `body` never outlives the referent.
            task: unsafe { TaskRef::erase(body) },
            deques,
            unclaimed: AtomicUsize::new(num_spans),
            remaining: AtomicUsize::new(num_spans),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(num_spans == 0),
            done_signal: Condvar::new(),
        });
        self.run_job(&job);
    }
}

/// Cut points of a cost-balanced contiguous partition of `0..costs.len()`
/// into at most `max_spans` non-empty spans (shim extension; the weighted
/// analogue of the equal-length split).
///
/// Returns boundaries `b_0 = 0 < b_1 < … < b_k = costs.len()` (so span `s`
/// is `b_s..b_{s+1}`), greedily closing a span once its summed cost reaches
/// `ceil(total / max_spans)`.  Guarantees, for any cost skew:
///
/// - the spans partition the index range exactly once (strictly increasing
///   boundaries from `0` to `len`),
/// - at most `max_spans` spans are produced, every one non-empty, and
/// - the result is a pure function of `costs` and `max_spans` — no timing,
///   no thread count beyond what the caller folded into `max_spans` — so
///   weighted scheduling stays deterministic like everything else here.
///
/// An empty cost vector yields the single boundary `[0]` (zero spans); an
/// all-zero cost vector yields one span covering everything.
pub fn weighted_span_boundaries(costs: &[u64], max_spans: usize) -> Vec<usize> {
    assert!(max_spans > 0, "max_spans must be positive");
    let len = costs.len();
    let mut bounds = vec![0usize];
    if len == 0 {
        return bounds;
    }
    let spans = max_spans.min(len);
    let total: u64 = costs.iter().sum();
    let target = (total.div_ceil(spans as u64)).max(1);
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        if acc >= target && bounds.len() < spans && i + 1 < len {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    bounds.push(len);
    bounds
}

/// Balanced contiguous split: the half-open sub-range of `0..len` dealt to
/// participant `w` of `n`.
fn participant_block(len: usize, n: usize, w: usize) -> Range<usize> {
    let base = len / n;
    let extra = len % n;
    let start = w * base + w.min(extra);
    let end = start + base + usize::from(w < extra);
    start..end
}

/// Type-erased borrow of a job body, sendable to worker threads.
///
/// Safety invariant: whoever constructs a `TaskRef` must block until the
/// job's `remaining` count reaches zero before letting the referent die;
/// `PoolShared::run_job` (and `join`, which inlines the same protocol) do
/// exactly that.
struct TaskRef(*const (dyn Fn(Range<usize>) + Sync));

unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

impl TaskRef {
    /// Erases the lifetime of `task`; see the type-level safety invariant.
    unsafe fn erase<'a>(task: &'a (dyn Fn(Range<usize>) + Sync + 'a)) -> TaskRef {
        TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(Range<usize>) + Sync + 'a),
                *const (dyn Fn(Range<usize>) + Sync + 'static),
            >(task)
        })
    }
}

/// One parallel region: spans dealt into per-participant deques, claimed by
/// popping the own front and stealing from victims' backs.
struct JobCore {
    task: TaskRef,
    deques: Vec<Mutex<VecDeque<Range<usize>>>>,
    /// Spans not yet claimed by any participant (fast has-work check).
    unclaimed: AtomicUsize,
    /// Spans not yet finished executing; 0 means the job is done.
    remaining: AtomicUsize,
    /// Set by the first panicking span; later spans are drained unrun.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_signal: Condvar,
}

impl JobCore {
    fn has_claimable_work(&self) -> bool {
        self.unclaimed.load(Ordering::SeqCst) > 0
    }

    /// Claims the next span for participant `slot`: own deque front first,
    /// then other deques' backs.
    fn claim(&self, slot: usize) -> Option<Range<usize>> {
        if let Some(span) = self.deques[slot].lock().unwrap().pop_front() {
            self.unclaimed.fetch_sub(1, Ordering::SeqCst);
            return Some(span);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (slot + offset) % n;
            if let Some(span) = self.deques[victim].lock().unwrap().pop_back() {
                self.unclaimed.fetch_sub(1, Ordering::SeqCst);
                return Some(span);
            }
        }
        None
    }

    /// Runs one claimed span, converting a panic into job poisoning.
    fn execute(&self, span: Range<usize>) {
        if !self.poisoned.load(Ordering::SeqCst) {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _flag = SpanFlagGuard::set(true);
                (unsafe { &*self.task.0 })(span);
            }));
            if let Err(payload) = outcome {
                self.poisoned.store(true, Ordering::SeqCst);
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        self.complete_one();
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.done.lock().unwrap() = true;
            self.done_signal.notify_all();
        }
    }

    /// Claims and executes spans until none are claimable from `slot`.
    fn participate(&self, slot: usize) {
        while let Some(span) = self.claim(slot) {
            self.execute(span);
        }
    }

    /// Blocks until every span (including ones other participants are still
    /// executing) has completed.
    fn wait_done(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.done_signal.wait(done).unwrap();
        }
    }
}

/// A worker thread: sleep until a job with claimable work exists, help
/// finish it, repeat until shutdown.
fn worker_main(shared: &Arc<PoolShared>, index: usize) {
    loop {
        let job = {
            let mut injector = shared.injector.lock().unwrap();
            loop {
                injector.jobs.retain(|j| j.has_claimable_work());
                if let Some(job) = injector.jobs.first() {
                    break Arc::clone(job);
                }
                if injector.shutdown {
                    return;
                }
                injector = shared.work_signal.wait(injector).unwrap();
            }
        };
        job.participate(index);
    }
}

/// The pool a parallel region started on this thread should run on:
/// `None` inside a span (nested parallelism is sequential), the installed
/// pool under `install`, the global pool otherwise.
fn active_pool() -> Option<Arc<PoolShared>> {
    if IN_SPAN.with(Cell::get) {
        return None;
    }
    if let Some(pool) = CURRENT_POOL.with(|p| p.borrow().clone()) {
        return Some(pool);
    }
    Some(Arc::clone(&global_pool().shared))
}

/// The bridge every `par_*` adapter funnels through: executes `body` over
/// disjoint spans that exactly cover `0..len`, in parallel on the active
/// pool (sequentially as the single span `0..len` when the region is
/// effectively one-threaded).
pub(crate) fn parallel_run(len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    if len == 0 {
        return;
    }
    let Some(pool) = active_pool().filter(|p| p.num_threads > 1 && len > 1) else {
        body(0..len);
        return;
    };
    pool.run_parallel(len, body);
}

/// Weighted variant of [`parallel_run`]: `costs[i]` is the relative cost of
/// index `i`, and spans are cut by [`weighted_span_boundaries`] so each
/// carries a balanced share of the total cost instead of an equal share of
/// the indices.  Degenerate regions (empty, one index, one thread) take the
/// same sequential path as the unweighted bridge.
pub(crate) fn parallel_run_weighted(costs: &[u64], body: &(dyn Fn(Range<usize>) + Sync)) {
    let len = costs.len();
    if len == 0 {
        return;
    }
    let Some(pool) = active_pool().filter(|p| p.num_threads > 1 && len > 1) else {
        body(0..len);
        return;
    };
    pool.run_parallel_weighted(costs, body);
}

/// Runs both closures, potentially in parallel, and returns both results
/// (mirrors `rayon::join`).
///
/// `oper_b` is offered to the active pool while the calling thread runs
/// `oper_a`; if no worker picks it up, the caller runs it afterwards, so
/// `join` never blocks on anyone else's progress.  If both sides panic, the
/// caller's (`oper_a`) payload wins.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let Some(pool) = active_pool().filter(|p| p.num_threads > 1) else {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    };
    let b_task: Mutex<Option<B>> = Mutex::new(Some(oper_b));
    let b_result: Mutex<Option<RB>> = Mutex::new(None);
    let body = |_: Range<usize>| {
        let task = b_task
            .lock()
            .unwrap()
            .take()
            .expect("join: task claimed twice");
        *b_result.lock().unwrap() = Some(task());
    };
    let n = pool.num_threads;
    let job = Arc::new(JobCore {
        // Safety: this function blocks in `wait_done` below before `body`
        // (and the stack slots it borrows) go out of scope.
        task: unsafe { TaskRef::erase(&body) },
        deques: (0..n)
            .map(|w| {
                let mut deque = VecDeque::new();
                if w == 0 {
                    deque.push_back(0..1);
                }
                Mutex::new(deque)
            })
            .collect(),
        unclaimed: AtomicUsize::new(1),
        remaining: AtomicUsize::new(1),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_signal: Condvar::new(),
    });
    pool.inject(Arc::clone(&job));
    let ra = catch_unwind(AssertUnwindSafe(oper_a));
    job.participate(0);
    job.wait_done();
    pool.remove(&job);
    let b_panic = job.panic.lock().unwrap().take();
    match ra {
        Err(payload) => resume_unwind(payload),
        Ok(ra) => {
            if let Some(payload) = b_panic {
                resume_unwind(payload);
            }
            let rb = b_result
                .into_inner()
                .unwrap()
                .expect("join: second closure produced no result");
            (ra, rb)
        }
    }
}

/// A task spawned into a [`Scope`].
type ScopeTask<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// A scope for spawning borrowed tasks (mirrors `rayon::Scope`).
///
/// Unlike real rayon, spawned tasks do not start until the scope closure
/// returns; they then run in parallel on the active pool (tasks spawned by
/// tasks join the next round).  If a task panics, the payload is re-thrown
/// from [`scope`] and any not-yet-started tasks are dropped.
pub struct Scope<'scope> {
    tasks: Mutex<Vec<ScopeTask<'scope>>>,
    /// Makes `'scope` invariant without affecting `Send`/`Sync`.
    marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queues `body` to run when the scope closes.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.tasks.lock().unwrap().push(Box::new(body));
    }
}

/// Creates a scope whose spawned tasks may borrow from the enclosing frame
/// (mirrors `rayon::scope`); returns once every task has completed.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let scope = Scope {
        tasks: Mutex::new(Vec::new()),
        marker: PhantomData,
    };
    let result = f(&scope);
    loop {
        let batch: Vec<ScopeTask<'scope>> = {
            let mut tasks = scope.tasks.lock().unwrap();
            tasks.drain(..).collect()
        };
        if batch.is_empty() {
            break;
        }
        let slots: Vec<Mutex<Option<ScopeTask<'scope>>>> =
            batch.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let scope_ref = &scope;
        parallel_run(slots.len(), &|span| {
            for i in span {
                let task = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("scope: task ran twice");
                task(scope_ref);
            }
        });
    }
    result
}
