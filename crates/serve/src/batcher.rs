//! The micro-batching scheduler at the heart of the server.
//!
//! Connection handler threads enqueue parsed observations as [`Job`]s into
//! a **bounded** queue shared by **N dispatch workers**. Each worker drains
//! up to `max_batch` observations or waits at most `max_wait` after the
//! first queued job (whichever comes first), groups the drained jobs by
//! model, runs **one** `localize_batch` call per model group, and fans the
//! predictions back out over each job's reply channel.
//!
//! All workers serve from one shared [`Registry`] behind an [`Arc`]: models
//! are `Send + Sync` with `Arc`-backed weights, so N workers read the same
//! weight allocations concurrently with no locks and no copies. The queue
//! is a condvar-based bounded MPMC deque: waiting for jobs releases the
//! lock, so workers coalesce *and* execute batches fully in parallel — the
//! lock is only ever held for O(queue length) pops, never for the
//! `max_wait` window and never during inference.
//!
//! Five properties matter:
//!
//! * **Backpressure** — the queue is bounded; when it is full,
//!   [`BatcherClient::submit`] fails immediately with [`SubmitError::Busy`]
//!   and the HTTP layer answers `503` + `Retry-After` instead of buffering
//!   without bound.
//! * **Bit-identical batching** — coalescing never changes results. The
//!   GEMM/batched-inference stack guarantees batched execution is
//!   bit-identical to per-sample execution for any batch size (enforced by
//!   the tensor/ViT property suites), and workers preserve per-job
//!   observation order, so a response is byte-for-byte the same whether a
//!   request was batched with strangers or served alone. The
//!   `server_integration` test asserts this end to end.
//! * **Worker-count transparency** — which worker executes a batch cannot
//!   influence its result (shared immutable weights, per-batch tapes), so
//!   `--workers 1` and `--workers N` produce identical responses; only
//!   throughput changes. The integration suite runs the bit-exactness
//!   check at 4 workers.
//! * **Fault containment** — each model group runs under `catch_unwind`,
//!   so a panicking model fails only its own batch (typed
//!   [`JobFailure::Failed`] replies, `jobs_failed` metric) and the worker
//!   keeps serving. A batch the model refuses (it returns `Err`, say for
//!   one client's fingerprint of another access-point count) is rerun job
//!   by job, so only the refused jobs fail. A worker killed outright
//!   (e.g. by the fault-injection harness) is restarted by the supervisor
//!   thread with capped exponential backoff; `worker_restarts` and `live_workers` make the
//!   degradation and recovery observable.
//! * **Staleness shedding** — every job carries its admission time and an
//!   optional deadline; a worker answers already-expired jobs with
//!   [`JobFailure::Expired`] (HTTP `504`) at dispatch time instead of
//!   burning model time on responses nobody is waiting for.
//!
//! Shutdown comes in two flavours: `JobQueue::close` (last client handle
//! dropped — queued jobs are failed immediately) and the **graceful
//! drain** ([`BatcherClient::drain`]) which refuses new submissions but
//! lets the workers finish everything already queued before they exit;
//! [`BatcherClient::await_drained`] observes completion.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;

use crate::faultinject::FaultPlan;
use crate::metrics::Metrics;
use crate::registry::Registry;

/// One queued localize request.
pub struct Job {
    /// Resolved model name (validated against the catalog before
    /// enqueueing, so the dispatch workers can group by it).
    pub model: String,
    /// Observations to localize, in request order.
    pub observations: Vec<FingerprintObservation>,
    /// When the request was admitted (deadlines are measured from here;
    /// also the base for queue-delay accounting).
    pub admitted: Instant,
    /// Optional deadline: a job still queued past this instant is shed
    /// with [`JobFailure::Expired`] at dispatch time instead of served
    /// late.
    pub deadline: Option<Instant>,
    /// Where the handler thread waits for the outcome. Bounded (capacity
    /// 1): exactly one reply is ever sent per job, so the send never
    /// blocks, and the workspace-wide unbounded-channel ban holds.
    pub reply: mpsc::SyncSender<Result<Vec<usize>, JobFailure>>,
}

/// Why a dispatched job did not produce predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job's deadline passed while it sat in the queue; the HTTP
    /// layer answers `504` + `Retry-After`.
    Expired,
    /// The model errored or panicked (message attached); the HTTP layer
    /// answers `500`.
    Failed(String),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Expired => write!(f, "deadline exceeded before dispatch"),
            JobFailure::Failed(message) => write!(f, "{message}"),
        }
    }
}

/// Scheduler knobs (see the README's "Serving" section).
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Maximum observations coalesced into one `localize_batch` call.
    pub max_batch: usize,
    /// Longest a worker waits after the first queued job before
    /// dispatching a partial batch.
    pub max_wait: Duration,
    /// Bounded queue capacity, in jobs; a full queue sheds load with 503.
    pub queue_cap: usize,
    /// Dispatch workers pulling from the shared queue, each running its own
    /// `localize_batch` calls on the shared registry. The `vital-serve`
    /// binary defaults its `--workers` flag to the machine's available
    /// cores; the library default stays at 1 so embedded/test servers are
    /// single-worker unless asked otherwise.
    pub workers: usize,
    /// Worker threads for the batched compute *inside* one
    /// `localize_batch` call (`None` = the `parallel` crate's default
    /// resolution). With several dispatch workers, pin this low to avoid
    /// oversubscription: total compute threads ≈ `workers × threads`.
    pub threads: Option<usize>,
    /// First restart delay after a worker dies; doubles per consecutive
    /// crash of the same worker slot.
    pub restart_backoff: Duration,
    /// Ceiling on the per-worker restart backoff. A worker that stays up
    /// longer than this earns its base backoff back.
    pub restart_backoff_cap: Duration,
    /// Deterministic fault-injection plan (`None` in production: the only
    /// cost is this `Option` check per batch).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(2000),
            queue_cap: 256,
            workers: 1,
            threads: None,
            restart_backoff: Duration::from_millis(50),
            restart_backoff_cap: Duration::from_secs(5),
            faults: None,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load (HTTP 503 + `Retry-After`).
    Busy,
    /// The queue is closed (drain in progress or the batcher is gone).
    Closed,
}

/// State guarded by the [`JobQueue`] mutex. Keeping `closed` *inside* the
/// lock (rather than as a separate atomic) makes the "no push can land
/// after the closing drain, no waiter can check-then-wait past a close"
/// invariant structural: there is simply no way to observe the flag
/// without holding the lock.
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPMC job queue: handler threads push, N dispatch workers
/// collect micro-batches.
///
/// Built on `Mutex<VecDeque>` + `Condvar` rather than an `mpsc` channel so
/// that **waiting releases the lock**: several workers can sit inside
/// their coalescing windows simultaneously, each picking up jobs as they
/// arrive, instead of serializing the windows through a receiver mutex.
/// The lock is held only for O(1) pushes and O(batch) pops.
struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    /// Capacity in jobs; a full queue sheds load.
    cap: usize,
    /// Live [`BatcherClient`] handles; the last drop closes the queue.
    clients: std::sync::atomic::AtomicUsize,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            clients: std::sync::atomic::AtomicUsize::new(1),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), SubmitError> {
        let Ok(mut state) = self.state.lock() else {
            return Err(SubmitError::Closed); // a worker panicked mid-pop
        };
        // Closing drains the queue under this same lock, so a push can
        // never land after the drain and strand a job (its reply sender
        // would otherwise never be dropped and the handler thread would
        // wait forever).
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.jobs.len() >= self.cap {
            return Err(SubmitError::Busy);
        }
        state.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the first job, then coalesces more into `batch` until
    /// `max_batch` observations are gathered, a job that would overflow the
    /// cap is at the front (it stays queued for the next batch), or
    /// `max_wait` has passed since the first job was taken. Returns `false`
    /// once the queue is closed **and** drained.
    ///
    /// `batch` is cleared and refilled rather than returned so the dispatch
    /// loop can reuse one buffer for its whole lifetime — the per-batch
    /// `Vec` allocation this replaces was the only allocator traffic in the
    /// collect path (enforced by vital-lint's hot-path rule).
    ///
    /// The condvar waits release the lock, so any number of workers can be
    /// in here concurrently — collecting never blocks another worker's
    /// collection or execution.
    fn collect_into(&self, batch: &mut Vec<Job>, max_batch: usize, max_wait: Duration) -> bool {
        batch.clear();
        // A zero cap would collect nothing and spin; treat it as 1 (every
        // batch is then a single job), the old channel-based behaviour.
        let max_batch = max_batch.max(1);
        let Ok(mut state) = self.state.lock() else {
            return false;
        };
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.closed {
                return false;
            }
            match self.not_empty.wait(state) {
                Ok(guard) => state = guard,
                Err(_) => return false,
            }
        }

        let deadline = Instant::now() + max_wait;
        let mut observations = 0;
        loop {
            // Greedy drain. `max_batch` is a hard cap on the dispatch size
            // (only a single bulk request larger than the cap can exceed
            // it, since it cannot be split across batches); a job that
            // would overflow ends the batch and stays queued.
            let mut full = false;
            while observations < max_batch {
                let Some(front) = state.jobs.front() else {
                    break;
                };
                let len = front.observations.len();
                if !batch.is_empty() && observations + len > max_batch {
                    full = true;
                    break;
                }
                let Some(job) = state.jobs.pop_front() else {
                    break;
                };
                observations += len;
                batch.push(job);
            }
            if observations >= max_batch || full || state.closed {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.not_empty.wait_timeout(state, remaining) {
                Ok((guard, _timeout)) => state = guard,
                Err(_) => return false,
            }
        }
        // The notify_one that announced a job this worker is now *leaving
        // behind* (overflow carry-over, or arrivals past the cap) was
        // already consumed by this worker — re-arm an idle worker so the
        // leftover is picked up immediately instead of waiting out this
        // worker's inference pass.
        if !state.jobs.is_empty() {
            self.not_empty.notify_one();
        }
        true
    }

    /// Closes the queue (last client handle dropped, or worker spawning
    /// aborted): flag and drain happen under the one state lock, so
    /// neither can a worker check-then-wait past it nor a push land after
    /// it. Returns the jobs drained from the queue so the caller can fail
    /// them (dropping a [`Job`] drops its reply sender, which surfaces as
    /// an error on the handler thread rather than an eternal wait).
    fn close(&self) -> Vec<Job> {
        let mut drained = Vec::new();
        if let Ok(mut state) = self.state.lock() {
            drained.extend(state.jobs.drain(..));
            state.closed = true;
        }
        // A poisoned lock already means every worker is gone mid-panic;
        // waiters will observe the poison and exit.
        self.not_empty.notify_all();
        drained
    }

    /// Closes the queue for new submissions but **keeps** the queued jobs:
    /// the dispatch workers drain them to completion and then exit
    /// (`collect_into` keeps returning batches from a closed queue until
    /// it is empty). This is the graceful-shutdown half; [`close`] is the
    /// abandon-ship half.
    ///
    /// [`close`]: JobQueue::close
    fn drain_close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.not_empty.notify_all();
    }

    /// Whether the queue has been closed (gracefully or not). A poisoned
    /// lock counts as closed — nothing can be pushed through it anyway.
    fn is_closed(&self) -> bool {
        self.state.lock().map(|state| state.closed).unwrap_or(true)
    }
}

/// One-shot completion latch: the supervisor sets it after the last
/// worker has exited with the queue fully drained, and drain callers
/// block on it with a timeout. A dedicated latch (rather than joining
/// thread handles) lets any number of `BatcherClient` clones await the
/// drain concurrently.
struct Latch {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            flag: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn set(&self) {
        if let Ok(mut done) = self.flag.lock() {
            *done = true;
        }
        self.cv.notify_all();
    }

    /// Waits up to `timeout` for the latch; returns whether it was set.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        // Clamp so the deadline arithmetic cannot overflow on
        // `Duration::MAX`-style inputs.
        let timeout = timeout.min(Duration::from_secs(86_400 * 365));
        let deadline = Instant::now() + timeout;
        let Ok(mut done) = self.flag.lock() else {
            return false;
        };
        while !*done {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            match self.cv.wait_timeout(done, remaining) {
                Ok((guard, _timeout)) => done = guard,
                Err(_) => return false,
            }
        }
        true
    }
}

/// Cheap, cloneable handle the connection handlers submit through.
pub struct BatcherClient {
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    /// True while the supervisor thread is running (it restarts dead
    /// workers, so the batcher is alive even at a momentary zero live
    /// workers).
    supervised: Arc<AtomicBool>,
    drained: Arc<Latch>,
    workers: usize,
}

impl Clone for BatcherClient {
    fn clone(&self) -> Self {
        self.queue.clients.fetch_add(1, Ordering::Relaxed);
        BatcherClient {
            queue: Arc::clone(&self.queue),
            metrics: Arc::clone(&self.metrics),
            supervised: Arc::clone(&self.supervised),
            drained: Arc::clone(&self.drained),
            workers: self.workers,
        }
    }
}

impl Drop for BatcherClient {
    fn drop(&mut self) {
        if self.queue.clients.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Any jobs still queued at this point have no handler thread
            // left to answer (handlers hold client clones), so dropping
            // them is safe; keep the depth gauge consistent anyway.
            let dropped = self.queue.close();
            self.metrics
                .queue_depth
                .fetch_sub(dropped.len(), Ordering::Relaxed);
        }
    }
}

impl BatcherClient {
    /// Enqueues a job without blocking.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the queue is at capacity,
    /// [`SubmitError::Closed`] when the queue is closed or the batcher is
    /// gone.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        if !self.is_alive() {
            return Err(SubmitError::Closed);
        }
        // Increment *before* the push: a worker can dequeue (and
        // decrement) the instant the push lands, and increment-after
        // would briefly wrap the depth below zero.
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        match self.queue.try_push(job) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Whether the batcher can still make progress: either a dispatch
    /// worker is running, or the supervisor is alive and will restart one.
    /// `false` means every localize request will fail — surfaced by
    /// `GET /healthz` so orchestrators stop routing to a dead service.
    pub fn is_alive(&self) -> bool {
        self.supervised.load(Ordering::SeqCst)
            || self.metrics.live_workers.load(Ordering::Relaxed) > 0
    }

    /// Dispatch workers currently running (a momentarily lower number than
    /// [`configured_workers`] means the supervisor is mid-restart).
    ///
    /// [`configured_workers`]: BatcherClient::configured_workers
    pub fn live_workers(&self) -> usize {
        self.metrics.live_workers.load(Ordering::Relaxed)
    }

    /// How many dispatch workers this batcher was started with.
    pub fn configured_workers(&self) -> usize {
        self.workers
    }

    /// Begins a graceful drain: new submissions fail with
    /// [`SubmitError::Closed`] immediately, while everything already
    /// queued is dispatched to completion, after which the workers and
    /// the supervisor exit. Use [`await_drained`] to observe completion.
    ///
    /// [`await_drained`]: BatcherClient::await_drained
    pub fn drain(&self) {
        self.queue.drain_close();
    }

    /// Blocks until the drain has fully completed — every queued job
    /// answered, every worker and the supervisor exited — or `timeout`
    /// passed. Returns whether the drain completed.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        self.drained.wait_timeout(timeout)
    }
}

/// A worker thread announcing its own death (through the guard's `Drop`,
/// so a panic cannot skip it).
struct WorkerExit {
    worker_id: usize,
    panicked: bool,
}

/// Runs inside each worker thread: decrements the live-worker gauge and
/// reports the exit to the supervisor however the worker ends — clean
/// drain or panic (`thread::panicking()` tells them apart).
struct AliveGuard {
    worker_id: usize,
    metrics: Arc<Metrics>,
    exits: mpsc::SyncSender<WorkerExit>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.metrics.live_workers.fetch_sub(1, Ordering::AcqRel);
        let _ = self.exits.send(WorkerExit {
            worker_id: self.worker_id,
            panicked: std::thread::panicking(),
        });
    }
}

/// Spawns one dispatch worker. The live-worker gauge is incremented
/// *before* the spawn and decremented by the in-thread guard (or the
/// error path), so it never over-reports across a spawn failure.
fn spawn_worker(
    worker_id: usize,
    registry: &Arc<Registry>,
    queue: &Arc<JobQueue>,
    config: &BatcherConfig,
    metrics: &Arc<Metrics>,
    exits: &mpsc::SyncSender<WorkerExit>,
) -> Result<std::thread::JoinHandle<()>, String> {
    let registry = Arc::clone(registry);
    let queue = Arc::clone(queue);
    let config = config.clone();
    let metrics = Arc::clone(metrics);
    let gauge = Arc::clone(&metrics);
    let exits = exits.clone();
    gauge.live_workers.fetch_add(1, Ordering::AcqRel);
    std::thread::Builder::new()
        .name(format!("vital-serve-worker-{worker_id}"))
        .spawn(move || {
            // Constructed inside the thread: a failed spawn never creates
            // the guard, so it cannot send a phantom exit event.
            let _guard = AliveGuard {
                worker_id,
                metrics: Arc::clone(&metrics),
                exits,
            };
            dispatch_loop(worker_id, &registry, &queue, &config, &metrics);
        })
        .map_err(|e| {
            gauge.live_workers.fetch_sub(1, Ordering::AcqRel);
            format!("cannot spawn dispatch worker {worker_id}: {e}")
        })
}

/// The supervisor thread: restarts panicked workers with capped
/// exponential backoff, joins the dead, and fires the drained latch once
/// the queue is closed and every worker has exited.
struct Supervisor {
    registry: Arc<Registry>,
    queue: Arc<JobQueue>,
    config: BatcherConfig,
    metrics: Arc<Metrics>,
    exit_rx: mpsc::Receiver<WorkerExit>,
    /// Kept so respawned workers can report their own exits; also keeps
    /// `exit_rx` from ever disconnecting while the supervisor runs.
    exit_tx: mpsc::SyncSender<WorkerExit>,
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    supervised: Arc<AtomicBool>,
    drained: Arc<Latch>,
}

impl Supervisor {
    fn run(mut self) {
        let workers = self.handles.len();
        let mut running = vec![true; workers];
        let mut backoff = vec![self.config.restart_backoff; workers];
        let mut spawned_at = vec![Instant::now(); workers];
        // Scheduled (worker, due-time) restarts not yet fired.
        let mut pending: Vec<(usize, Instant)> = Vec::new();
        // Upper bound on each wait so a queue close is noticed promptly
        // even with no exit events and no pending restarts.
        const POLL: Duration = Duration::from_millis(200);

        loop {
            let now = Instant::now();
            let wait = pending
                .iter()
                .map(|(_, due)| due.saturating_duration_since(now))
                .min()
                .unwrap_or(POLL)
                .min(POLL);
            let event = match self.exit_rx.recv_timeout(wait) {
                Ok(event) => Some(event),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                // Unreachable while `exit_tx` lives on self; treat like a
                // timeout so the loop still converges on close.
                Err(mpsc::RecvTimeoutError::Disconnected) => None,
            };

            if let Some(exit) = event {
                let id = exit.worker_id;
                if let Some(slot) = running.get_mut(id) {
                    *slot = false;
                }
                if let Some(handle) = self.handles.get_mut(id).and_then(Option::take) {
                    let _ = handle.join();
                }
                if exit.panicked && !self.queue.is_closed() {
                    if let Some(step) = backoff.get_mut(id) {
                        // A worker that stayed up past the cap has proven
                        // itself healthy: charge it the base backoff, not
                        // its crash-loop history.
                        let uptime = spawned_at.get(id).map(Instant::elapsed).unwrap_or_default();
                        if uptime >= self.config.restart_backoff_cap {
                            *step = self.config.restart_backoff;
                        }
                        let delay = *step;
                        *step = step.saturating_mul(2).min(self.config.restart_backoff_cap);
                        pending.push((id, Instant::now() + delay));
                    }
                }
            }

            if self.queue.is_closed() {
                // Drain or shutdown in progress: dead workers stay dead.
                pending.clear();
            } else {
                let now = Instant::now();
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].1 > now {
                        i += 1;
                        continue;
                    }
                    let (id, _) = pending.swap_remove(i);
                    match spawn_worker(
                        id,
                        &self.registry,
                        &self.queue,
                        &self.config,
                        &self.metrics,
                        &self.exit_tx,
                    ) {
                        Ok(handle) => {
                            if let Some(slot) = self.handles.get_mut(id) {
                                *slot = Some(handle);
                            }
                            if let Some(slot) = running.get_mut(id) {
                                *slot = true;
                            }
                            if let Some(slot) = spawned_at.get_mut(id) {
                                *slot = Instant::now();
                            }
                            self.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Spawn failure (resource exhaustion): retry on
                            // the next backoff step rather than giving up
                            // the worker slot forever.
                            let delay = backoff
                                .get(id)
                                .copied()
                                .unwrap_or(self.config.restart_backoff_cap);
                            if let Some(step) = backoff.get_mut(id) {
                                *step = step.saturating_mul(2).min(self.config.restart_backoff_cap);
                            }
                            pending.push((id, now + delay));
                        }
                    }
                }
            }

            if self.queue.is_closed() && pending.is_empty() && running.iter().all(|r| !*r) {
                break;
            }
        }

        // `running` only goes false through an observed exit event, so by
        // here every worker has sent its event; join any stragglers.
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        self.supervised.store(false, Ordering::SeqCst);
        self.drained.set();
    }
}

/// Starts `config.workers` dispatch workers serving `registry`, plus a
/// supervisor thread that restarts any worker that dies, and returns the
/// submission handle plus the supervisor's join handle.
///
/// The registry is built by the caller on whatever thread it likes —
/// models are `Send + Sync` — and shared by every worker. Workers exit
/// when every [`BatcherClient`] clone is dropped or a drain completes;
/// the supervisor exits after the workers.
///
/// # Errors
/// Thread spawn failures, as a message.
pub fn start(
    registry: Arc<Registry>,
    config: BatcherConfig,
    metrics: Arc<Metrics>,
) -> Result<(BatcherClient, Vec<std::thread::JoinHandle<()>>), String> {
    let queue = Arc::new(JobQueue::new(config.queue_cap));
    let workers = config.workers.max(1);
    // Bounded (hygiene: no unbounded channels), but comfortably larger
    // than the worker count; the supervisor drains it continuously, so
    // sends never block in practice.
    let (exit_tx, exit_rx) = mpsc::sync_channel(workers * 2 + 2);

    let mut handles: Vec<Option<std::thread::JoinHandle<()>>> = Vec::with_capacity(workers);
    for worker_id in 0..workers {
        match spawn_worker(worker_id, &registry, &queue, &config, &metrics, &exit_tx) {
            Ok(handle) => handles.push(Some(handle)),
            Err(e) => {
                // Unblock the workers already spawned — without a close
                // they (and the registry they hold) would wait on the
                // condvar forever, since the BatcherClient owning the
                // initial client refcount is never constructed.
                queue.close();
                for handle in handles.into_iter().flatten() {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }

    let supervised = Arc::new(AtomicBool::new(true));
    let drained = Arc::new(Latch::new());
    let supervisor = Supervisor {
        registry,
        queue: Arc::clone(&queue),
        config,
        metrics: Arc::clone(&metrics),
        exit_rx,
        exit_tx,
        handles,
        supervised: Arc::clone(&supervised),
        drained: Arc::clone(&drained),
    };
    let handle = std::thread::Builder::new()
        .name("vital-serve-supervisor".into())
        .spawn(move || supervisor.run())
        .map_err(|e| {
            // The workers exit on their own once the queue closes; their
            // handles were consumed by the failed closure, so they cannot
            // be joined here.
            queue.close();
            format!("cannot spawn batcher supervisor: {e}")
        })?;

    Ok((
        BatcherClient {
            queue,
            metrics,
            supervised,
            drained,
            workers,
        },
        vec![handle],
    ))
}

/// One worker's loop: collects and executes batches until the queue is
/// closed and drained. The batch buffer is allocated once, up front, and
/// reused for every collect/execute round — the loop body itself is
/// allocation-free (enforced by vital-lint's hot-path rule).
fn dispatch_loop(
    worker_id: usize,
    registry: &Registry,
    queue: &JobQueue,
    config: &BatcherConfig,
    metrics: &Metrics,
) {
    let mut batch: Vec<Job> = Vec::with_capacity(config.max_batch.max(1));
    while queue.collect_into(&mut batch, config.max_batch, config.max_wait) {
        if batch.is_empty() {
            continue;
        }
        metrics
            .queue_depth
            .fetch_sub(batch.len(), Ordering::Relaxed);
        if let Some(faults) = &config.faults {
            // An injected worker panic fires here, outside the per-group
            // catch_unwind in `execute`: the whole collected batch drops
            // (handlers observe disconnected replies → 500) and the
            // supervisor restarts this worker — exactly the failure mode
            // the chaos suite drives.
            faults.on_batch_collected();
        }
        execute(worker_id, registry, &mut batch, config, metrics);
    }
}

/// Groups the drained `jobs` by model (preserving arrival order within
/// each group), sheds expired jobs, runs one `localize_batch` per group
/// under `catch_unwind` and fans results back out. A group of several jobs
/// the model refuses is rerun job by job, so one client's refused
/// observation fails only its own request. Leaves `jobs` empty so the
/// dispatch loop can refill it.
fn execute(
    worker_id: usize,
    registry: &Registry,
    jobs: &mut Vec<Job>,
    config: &BatcherConfig,
    metrics: &Metrics,
) {
    // One clock read for the whole batch: deadline shedding answers
    // already-expired jobs with 504 instead of spending model time on
    // responses nobody is waiting for.
    let now = Instant::now();
    let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
    for mut job in jobs.drain(..) {
        if job.deadline.is_some_and(|deadline| deadline <= now) {
            metrics.jobs_expired.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(JobFailure::Expired));
            continue;
        }
        match groups.iter_mut().find(|(model, _)| *model == job.model) {
            Some((_, group)) => group.push(job),
            None => {
                // The group key takes ownership of the first member's model
                // string — grouping copies nothing.
                let model = std::mem::take(&mut job.model);
                groups.push((model, vec![job]));
            }
        }
    }

    for (model, mut group) in groups {
        if let Some(faults) = &config.faults {
            faults.on_group_dispatch(&model);
        }
        // Move the observations out of the jobs (their lengths, kept per
        // job, drive the fan-out slicing) — no per-request deep copies on
        // the hot path.
        let lengths: Vec<usize> = group.iter().map(|job| job.observations.len()).collect();
        let batch: Vec<FingerprintObservation> = if let [only] = group.as_mut_slice() {
            std::mem::take(&mut only.observations)
        } else {
            group
                .iter_mut()
                .flat_map(|job| job.observations.drain(..))
                .collect()
        };
        metrics.record_batch(worker_id, batch.len());

        match run_model(registry, &model, &batch, config) {
            Ok(predictions) => {
                // A single-job group owns the whole prediction vector —
                // hand it over without the per-job slice copy.
                if let [only] = group.as_slice() {
                    let _ = only.reply.send(Ok(predictions));
                } else {
                    let mut offset = 0;
                    for (job, take) in group.iter().zip(lengths) {
                        let slice = predictions[offset..offset + take].to_vec();
                        offset += take;
                        let _ = job.reply.send(Ok(slice));
                    }
                }
            }
            Err(error) if error.refused && group.len() > 1 => {
                // The refusal may be one job's observations only (a
                // fingerprint of another access-point count): run each job
                // on its own so the others still get their answers.
                let mut offset = 0;
                for (job, take) in group.iter().zip(lengths) {
                    let alone = &batch[offset..offset + take];
                    offset += take;
                    match run_model(registry, &model, alone, config) {
                        Ok(predictions) => {
                            let _ = job.reply.send(Ok(predictions));
                        }
                        Err(error) => fail(std::slice::from_ref(job), error.message, metrics),
                    }
                }
            }
            Err(error) => fail(&group, error.message, metrics),
        }
    }
}

/// Answers every job of `jobs` with the model's failure.
fn fail(jobs: &[Job], message: String, metrics: &Metrics) {
    metrics
        .jobs_failed
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    let failure = JobFailure::Failed(message);
    for job in jobs {
        let _ = job.reply.send(Err(failure.clone()));
    }
}

/// Why a model group produced no predictions.
struct RunError {
    /// `localize_batch` returned an error: the model refused something in
    /// the batch, perhaps one job's observations only. Otherwise the run
    /// panicked or answered the wrong number of observations.
    refused: bool,
    message: String,
}

/// Runs one model group under `catch_unwind`: a panicking model — poisoned
/// weights, a bug in a localizer — fails only this batch with a typed
/// error instead of killing the dispatch worker. `AssertUnwindSafe` is
/// sound here because nothing crossing the boundary is observed after an
/// unwind: the batch is dropped, the registry's models are immutable
/// shared weights, and the metrics are atomics.
fn run_model(
    registry: &Registry,
    model: &str,
    batch: &[FingerprintObservation],
    config: &BatcherConfig,
) -> Result<Vec<usize>, RunError> {
    let broken = |message| RunError {
        refused: false,
        message,
    };
    // Unreachable in practice: names are validated against the catalog
    // before enqueueing.
    let Some(localizer) = registry.get(Some(model)) else {
        return Err(broken(format!("model {model:?} is not loaded")));
    };
    let run = || localizer.localize_batch(batch);
    let executed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match config.threads {
            Some(threads) => parallel::with_threads(threads, run),
            None => run(),
        }));
    match executed {
        Ok(Err(e)) => Err(RunError {
            refused: true,
            message: format!("model {model:?} failed: {e}"),
        }),
        Ok(Ok(predictions)) if predictions.len() == batch.len() => Ok(predictions),
        // A short/long result would make the fan-out slicing panic the
        // worker; degrade this batch instead.
        Ok(Ok(predictions)) => Err(broken(format!(
            "model {model:?} returned {} predictions for {} observations",
            predictions.len(),
            batch.len()
        ))),
        Err(payload) => Err(broken(format!(
            "model {model:?} panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

/// Best-effort readable text from a panic payload (`&str` and `String`
/// cover every panic the workspace can produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
// Tests pace retries/slow models with real sleeps — exempt from the
// workspace ban on blocking sleeps in request handling.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use vital::{Localizer, Result as VitalResult, VitalError};

    /// Deterministic stand-in model: predicts `round(-mean[0])` so batching
    /// behaviour is observable without training anything.
    struct EchoLocalizer;

    impl Localizer for EchoLocalizer {
        fn name(&self) -> &str {
            "Echo"
        }
        fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
            Ok(())
        }
        fn localize_batch(
            &self,
            observations: &[fingerprint::FingerprintObservation],
        ) -> VitalResult<Vec<usize>> {
            Ok(observations.iter().map(|o| (-o.mean[0]) as usize).collect())
        }
    }

    /// A model that always fails, for error fan-out coverage.
    struct FailingLocalizer;

    impl Localizer for FailingLocalizer {
        fn name(&self) -> &str {
            "Failing"
        }
        fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
            Ok(())
        }
        fn localize_batch(
            &self,
            _: &[fingerprint::FingerprintObservation],
        ) -> VitalResult<Vec<usize>> {
            Err(VitalError::NotFitted)
        }
    }

    fn obs(v: f32) -> FingerprintObservation {
        FingerprintObservation {
            rp_label: 0,
            device: String::new(),
            min: vec![v],
            max: vec![v],
            mean: vec![v],
        }
    }

    /// A test job with no deadline, admitted now.
    fn job(
        model: &str,
        observations: Vec<FingerprintObservation>,
        reply: mpsc::SyncSender<Result<Vec<usize>, JobFailure>>,
    ) -> Job {
        Job {
            model: model.into(),
            observations,
            admitted: Instant::now(),
            deadline: None,
            reply,
        }
    }

    fn echo_registry() -> Arc<Registry> {
        Arc::new(Registry::from_models(vec![(
            "echo".into(),
            Box::new(EchoLocalizer),
        )]))
    }

    fn join_all(handles: Vec<std::thread::JoinHandle<()>>) {
        for handle in handles {
            handle.join().expect("batcher thread must not panic");
        }
    }

    #[test]
    fn jobs_round_trip_with_per_job_slicing() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(20),
                queue_cap: 16,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        let (tx_a, rx_a) = mpsc::sync_channel(1);
        let (tx_b, rx_b) = mpsc::sync_channel(1);
        client
            .submit(job("echo", vec![obs(-3.0), obs(-5.0)], tx_a))
            .unwrap();
        client.submit(job("echo", vec![obs(-7.0)], tx_b)).unwrap();
        assert_eq!(rx_a.recv().unwrap().unwrap(), vec![3, 5]);
        assert_eq!(rx_b.recv().unwrap().unwrap(), vec![7]);

        drop(client);
        join_all(handles);
        assert!(metrics.queue_depth.load(Ordering::Relaxed) == 0);
    }

    #[test]
    fn max_batch_is_a_hard_cap_via_carry_over() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 4,
                // A long window guarantees both jobs are drained into the
                // same coalescing pass — the second must be carried over,
                // not merged past the cap.
                max_wait: Duration::from_millis(200),
                queue_cap: 16,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let (tx_a, rx_a) = mpsc::sync_channel(1);
        let (tx_b, rx_b) = mpsc::sync_channel(1);
        client
            .submit(job("echo", vec![obs(-1.0), obs(-2.0), obs(-3.0)], tx_a))
            .unwrap();
        client
            .submit(job("echo", vec![obs(-4.0), obs(-5.0), obs(-6.0)], tx_b))
            .unwrap();
        assert_eq!(rx_a.recv().unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(rx_b.recv().unwrap().unwrap(), vec![4, 5, 6]);
        drop(client);
        join_all(handles);

        // Two dispatches of 3 observations — never one of 6.
        let snapshot = metrics.snapshot_json();
        let hist = snapshot.get("batch_size_hist").unwrap().as_array().unwrap();
        let sizes: Vec<usize> = hist
            .iter()
            .filter_map(|b| b.get("size").and_then(jsonio::Json::as_usize))
            .collect();
        assert_eq!(sizes, vec![3], "batch sizes recorded: {sizes:?}");
        assert_eq!(metrics.total_batches(), 2);
    }

    #[test]
    fn many_workers_share_one_model_with_bit_identical_results() {
        // 4 workers, tiny batches: concurrent submissions from many
        // threads must all come back exactly as the model computes them,
        // regardless of which worker served each batch.
        let metrics = Arc::new(Metrics::with_workers(4));
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
                queue_cap: 256,
                workers: 4,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        std::thread::scope(|scope| {
            for submitter in 0..8 {
                let client = client.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let v = (submitter * 50 + i) as f32;
                        let (tx, rx) = mpsc::sync_channel(1);
                        loop {
                            match client.submit(job("echo", vec![obs(-v)], tx.clone())) {
                                Ok(()) => break,
                                Err(SubmitError::Busy) => {
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Err(SubmitError::Closed) => panic!("workers died"),
                            }
                        }
                        assert_eq!(rx.recv().unwrap().unwrap(), vec![v as usize]);
                    }
                });
            }
        });

        drop(client);
        join_all(handles);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
        // Every one of the 400 observations was dispatched, and the
        // per-worker counters account for every batch.
        let total_obs: u64 = {
            let snapshot = metrics.snapshot_json();
            let hist = snapshot.get("batch_size_hist").unwrap().as_array().unwrap();
            hist.iter()
                .map(|b| {
                    let size = b.get("size").and_then(jsonio::Json::as_usize).unwrap() as u64;
                    let count = b.get("count").and_then(jsonio::Json::as_usize).unwrap() as u64;
                    size * count
                })
                .sum()
        };
        assert_eq!(total_obs, 400);
        assert!(metrics.total_batches() > 0);
    }

    /// A batch override that drops the last prediction, simulating a buggy
    /// model.
    struct ShortLocalizer;

    impl Localizer for ShortLocalizer {
        fn name(&self) -> &str {
            "Short"
        }
        fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
            Ok(())
        }
        fn localize_batch(
            &self,
            observations: &[fingerprint::FingerprintObservation],
        ) -> VitalResult<Vec<usize>> {
            Ok(vec![0; observations.len().saturating_sub(1)])
        }
    }

    #[test]
    fn short_prediction_vectors_degrade_the_batch_not_the_worker() {
        let registry = Arc::new(Registry::from_models(vec![(
            "short".into(),
            Box::new(ShortLocalizer),
        )]));
        let (client, handles) = start(
            registry,
            BatcherConfig {
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        client
            .submit(job("short", vec![obs(-1.0), obs(-2.0)], tx))
            .unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(
            err.to_string().contains("1 predictions for 2 observations"),
            "{err}"
        );
        // The worker survived the bad batch.
        assert!(client.is_alive());
        drop(client);
        join_all(handles);
    }

    #[test]
    fn model_errors_fan_out_to_every_job() {
        let registry = Arc::new(Registry::from_models(vec![(
            "bad".into(),
            Box::new(FailingLocalizer),
        )]));
        let metrics = Arc::new(Metrics::new());
        let (client, handles) =
            start(registry, BatcherConfig::default(), Arc::clone(&metrics)).unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("bad", vec![obs(-1.0)], tx)).unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.to_string().contains("bad"), "{err}");
        assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 1);
        drop(client);
        join_all(handles);
    }

    /// A model that refuses any batch holding an observation whose width
    /// is not 1, as `VitalModel` refuses one of another access-point count.
    struct OneApLocalizer;

    impl Localizer for OneApLocalizer {
        fn name(&self) -> &str {
            "OneAp"
        }
        fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
            Ok(())
        }
        fn localize_batch(
            &self,
            observations: &[fingerprint::FingerprintObservation],
        ) -> VitalResult<Vec<usize>> {
            if observations.iter().any(|o| o.mean.len() != 1) {
                return Err(VitalError::InvalidDataset(
                    "wrong access-point count".into(),
                ));
            }
            EchoLocalizer.localize_batch(observations)
        }
    }

    #[test]
    fn a_refused_observation_fails_only_its_own_job() {
        let registry = Arc::new(Registry::from_models(vec![(
            "one".into(),
            Box::new(OneApLocalizer),
        )]));
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            registry,
            BatcherConfig {
                max_batch: 8,
                // A long window coalesces both jobs into one batch.
                max_wait: Duration::from_millis(200),
                queue_cap: 16,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let two_aps = FingerprintObservation {
            min: vec![-2.0; 2],
            max: vec![-2.0; 2],
            mean: vec![-2.0; 2],
            ..obs(0.0)
        };
        let (tx_ok, rx_ok) = mpsc::sync_channel(1);
        let (tx_bad, rx_bad) = mpsc::sync_channel(1);
        client.submit(job("one", vec![obs(-4.0)], tx_ok)).unwrap();
        client.submit(job("one", vec![two_aps], tx_bad)).unwrap();
        assert_eq!(rx_ok.recv().unwrap().unwrap(), vec![4]);
        let err = rx_bad.recv().unwrap().unwrap_err();
        assert!(err.to_string().contains("access-point count"), "{err}");
        drop(client);
        join_all(handles);
        assert_eq!(metrics.total_batches(), 1, "both jobs ran as one batch");
        assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_max_batch_degrades_to_single_job_batches() {
        // A zero cap must not spin the worker or strand the job — it
        // behaves as batches of one job, like the old channel dispatcher.
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 0,
                max_wait: Duration::from_micros(100),
                queue_cap: 4,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("echo", vec![obs(-9.0)], tx)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            vec![9]
        );
        drop(client);
        join_all(handles);
    }

    /// A localizer whose every prediction panics.
    struct PanickingLocalizer;

    impl Localizer for PanickingLocalizer {
        fn name(&self) -> &str {
            "Panicking"
        }
        fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
            Ok(())
        }
        fn localize_batch(
            &self,
            _: &[fingerprint::FingerprintObservation],
        ) -> VitalResult<Vec<usize>> {
            panic!("model blew up");
        }
    }

    #[test]
    fn panicking_model_fails_its_batch_but_the_worker_survives() {
        let registry = Arc::new(Registry::from_models(vec![
            ("boom".into(), Box::new(PanickingLocalizer) as _),
            ("echo".into(), Box::new(EchoLocalizer) as _),
        ]));
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            registry,
            BatcherConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(100),
                queue_cap: 16,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        // The panic is contained to the batch: a typed 500-class reply,
        // not a dropped channel.
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("boom", vec![obs(-1.0)], tx)).unwrap();
        let err = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(err.to_string().contains("model blew up"), "{err}");

        // The same worker keeps serving other models afterwards — no
        // restart was needed.
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("echo", vec![obs(-6.0)], tx)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            vec![6]
        );
        assert!(client.is_alive());
        assert_eq!(client.live_workers(), 1);
        assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.worker_restarts.load(Ordering::Relaxed), 0);
        drop(client);
        join_all(handles);
    }

    #[test]
    fn injected_worker_panic_restarts_the_worker_and_recovers() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(100),
                queue_cap: 16,
                workers: 1,
                threads: Some(1),
                restart_backoff: Duration::from_millis(5),
                restart_backoff_cap: Duration::from_millis(50),
                faults: Some(Arc::new(
                    FaultPlan::parse("worker_panic=1").expect("spec parses"),
                )),
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        // The first collected batch kills the whole worker (the injection
        // fires outside the model catch_unwind), so this job's reply
        // channel disconnects — the HTTP layer maps that to 500.
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("echo", vec![obs(-1.0)], tx)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "the batch collected by the dying worker must fail, not hang"
        );

        // The batcher stays alive (the supervisor is restarting), new
        // submissions are accepted, and the restarted worker serves them.
        assert!(client.is_alive(), "supervised batcher must report alive");
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("echo", vec![obs(-4.0)], tx)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            vec![4]
        );
        assert_eq!(metrics.worker_restarts.load(Ordering::Relaxed), 1);
        assert_eq!(client.live_workers(), 1);
        drop(client);
        join_all(handles);
        assert_eq!(
            metrics.queue_depth.load(Ordering::Relaxed),
            0,
            "the dropped batch must leave the depth gauge at zero"
        );
    }

    #[test]
    fn expired_jobs_are_shed_with_a_typed_expiry() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(100),
                queue_cap: 16,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        // A deadline of "now" is guaranteed to have passed by dispatch
        // time, whenever that is.
        let (tx, rx) = mpsc::sync_channel(1);
        client
            .submit(Job {
                model: "echo".into(),
                observations: vec![obs(-2.0)],
                admitted: Instant::now(),
                deadline: Some(Instant::now()),
                reply: tx,
            })
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(JobFailure::Expired)
        );
        assert_eq!(metrics.jobs_expired.load(Ordering::Relaxed), 1);

        // A generous deadline is not shed.
        let (tx, rx) = mpsc::sync_channel(1);
        client
            .submit(Job {
                model: "echo".into(),
                observations: vec![obs(-3.0)],
                admitted: Instant::now(),
                deadline: Some(Instant::now() + Duration::from_secs(30)),
                reply: tx,
            })
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            vec![3]
        );
        drop(client);
        join_all(handles);
    }

    #[test]
    fn drain_completes_queued_jobs_then_refuses_new_ones() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(50),
                queue_cap: 16,
                workers: 2,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        let mut replies = Vec::new();
        for i in 1..=6 {
            let (tx, rx) = mpsc::sync_channel(1);
            client
                .submit(job("echo", vec![obs(-(i as f32))], tx))
                .unwrap();
            replies.push((i, rx));
        }
        client.drain();

        // New work is refused immediately...
        let (tx, _rx) = mpsc::sync_channel(1);
        assert_eq!(
            client.submit(job("echo", vec![obs(-9.0)], tx)),
            Err(SubmitError::Closed)
        );
        // ...while everything already queued completes.
        for (i, rx) in replies {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
                vec![i],
                "queued job {i} must be served, not dropped, by the drain"
            );
        }
        assert!(
            client.await_drained(Duration::from_secs(5)),
            "drain must complete once the queue is empty"
        );
        assert_eq!(client.live_workers(), 0);
        assert!(!client.is_alive(), "a drained batcher is done");
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
        drop(client);
        join_all(handles);
    }

    #[test]
    fn full_queue_reports_busy() {
        // Fill the queue faster than a slow model drains it.
        struct SlowLocalizer;
        impl Localizer for SlowLocalizer {
            fn name(&self) -> &str {
                "Slow"
            }
            fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
                Ok(())
            }
            fn localize_batch(
                &self,
                observations: &[fingerprint::FingerprintObservation],
            ) -> VitalResult<Vec<usize>> {
                std::thread::sleep(Duration::from_millis(150 * observations.len() as u64));
                Ok(observations.iter().map(|o| (-o.mean[0]) as usize).collect())
            }
        }
        let registry = Arc::new(Registry::from_models(vec![(
            "slow".into(),
            Box::new(SlowLocalizer),
        )]));
        let (client, handles) = start(
            registry,
            BatcherConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(1),
                queue_cap: 1,
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();

        let mut replies = Vec::new();
        let mut saw_busy = false;
        // First submit is picked up by the worker (slow), the next fills
        // the 1-slot queue, and further ones must report Busy.
        for _ in 0..8 {
            let (tx, rx) = mpsc::sync_channel(1);
            match client.submit(job("slow", vec![obs(-2.0)], tx)) {
                Ok(()) => replies.push(rx),
                Err(SubmitError::Busy) => {
                    saw_busy = true;
                    break;
                }
                Err(SubmitError::Closed) => panic!("worker died"),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(saw_busy, "queue of capacity 1 never reported Busy");
        for rx in replies {
            assert_eq!(rx.recv().unwrap().unwrap(), vec![2]);
        }
        drop(client);
        join_all(handles);
    }
}
