//! The micro-batching scheduler at the heart of the server.
//!
//! Connection handler threads enqueue parsed observations as [`Job`]s into
//! a **bounded** queue shared by **N dispatch workers**. Batching is
//! **work-conserving**: a worker that becomes free takes whatever is queued
//! (up to `max_batch` observations) and runs it at once, so an idle server
//! answers a lone request without waiting, and batches form from the jobs
//! that queue while every worker is busy. A worker groups the jobs it took
//! by model, runs **one** `localize_batch` call per model group, and fans
//! the predictions back out over each job's reply channel.
//!
//! A non-zero `max_wait` opts in to a **hold**: after taking its first job
//! the worker keeps collecting for up to `max_wait`, for models whose fixed
//! per-batch cost outweighs the wait. The hold ends early at the earliest
//! deadline among the jobs it holds, so it never keeps a job past its own
//! deadline.
//!
//! All workers serve from one shared [`Registry`] behind an [`Arc`]: models
//! are `Send + Sync` with `Arc`-backed weights, so N workers read the same
//! weight allocations concurrently with no locks and no copies. The queue
//! is a condvar-based bounded MPMC deque: waiting for jobs releases the
//! lock, so workers coalesce *and* execute batches fully in parallel — the
//! lock is only ever held for O(queue length) pops, never for a hold and
//! never during inference.
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
//! * **Fault containment** — a dispatch worker cannot die. Each collected
//!   batch runs under one `catch_unwind`: a panic anywhere in it (the
//!   fault-injection harness fires one there on purpose) answers every job
//!   still in the batch with a typed [`JobFailure::Failed`] (`jobs_failed`
//!   metric), and the same worker collects the next batch.
//!   Each model group also runs under its own `catch_unwind`, so a
//!   panicking model fails only its group. There is no refusal to contain:
//!   the HTTP layer holds every request to its model's input contract
//!   (`vital::check_widths`) before it submits, so a batch holds only
//!   observations its model accepts, and a model that still errors fails
//!   its group with [`JobFailure::Failed`] (HTTP `500`).
//! * **Staleness shedding** — every job carries its admission time and an
//!   optional deadline; a worker that takes a job whose deadline passed in
//!   the queue answers it with [`JobFailure::Expired`] (HTTP `504`) instead
//!   of burning model time on a response nobody is waiting for. A job taken
//!   in time is served: its deadline bounds the queue wait, and a hold ends
//!   by it.
//!
//! Shutdown comes in two flavours: `JobQueue::close` (last client handle
//! dropped — queued jobs are failed immediately) and the **graceful
//! drain** ([`BatcherClient::drain`]) which refuses new submissions but
//! lets the workers finish everything already queued before they exit;
//! [`BatcherClient::await_drained`] observes completion. Workers leave only
//! through a closed, empty queue, so the queue's own lock counts them out.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
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
    /// Observations to localize, in request order, each of the model's
    /// access-point count (checked before enqueueing).
    pub observations: Vec<FingerprintObservation>,
    /// When the request was admitted (deadlines are measured from here;
    /// also the base for queue-delay accounting).
    pub admitted: Instant,
    /// Optional deadline: a job still queued past this instant is shed
    /// with [`JobFailure::Expired`] when a worker takes it instead of
    /// served late; an opt-in hold ends no later than this instant.
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
    /// The model errored or panicked, or the batch panicked before it ran
    /// (message attached); the HTTP layer answers `500`.
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
    /// Opt-in hold: how long a worker keeps collecting after taking its
    /// first job before it dispatches a partial batch. Zero (the default)
    /// dispatches whatever is queued at once; a hold also ends at the
    /// earliest deadline among the jobs it holds. `Server::start` refuses
    /// a hold as long as its reply backstop (120 s).
    pub max_wait: Duration,
    /// Bounded queue capacity, in jobs; a full queue sheds load with 503.
    pub queue_cap: usize,
    /// Dispatch workers pulling from the shared queue, each running its own
    /// `localize_batch` calls on the shared registry, on its own thread.
    /// Workers are the server's only compute parallelism: a second core
    /// pays as a second worker. The `vital-serve` binary defaults its
    /// `--workers` flag to the machine's available cores; the library
    /// default stays at 1 so embedded/test servers are single-worker
    /// unless asked otherwise.
    pub workers: usize,
    /// Compute threads inside one `localize_batch` call. Every model
    /// computes on the worker's own thread, so the only value [`start`]
    /// accepts besides `None` is `Some(1)`; it refuses more and points to
    /// `workers` instead. The field remains because the benchmark sets it
    /// and reports it.
    pub threads: Option<usize>,
    /// Deterministic fault-injection plan (`None` in production: the only
    /// cost is this `Option` check per batch).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 32,
            max_wait: Duration::ZERO,
            queue_cap: 256,
            workers: 1,
            threads: None,
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
    /// Dispatch workers not yet gone. A worker leaves only once the queue
    /// is closed and empty, so zero means the drain is complete.
    workers: usize,
}

/// Bounded MPMC job queue: handler threads push, N dispatch workers
/// collect micro-batches.
///
/// Built on `Mutex<VecDeque>` + `Condvar` rather than an `mpsc` channel so
/// that **waiting releases the lock**: several workers can wait for work,
/// or sit inside opt-in holds, simultaneously, each picking up jobs as they
/// arrive, instead of serializing through a receiver mutex.
/// The lock is held only for O(1) pushes and O(batch) pops.
struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    /// Signalled as each worker leaves. A condvar of its own, so a drain
    /// waiter can never take the wake-up a push meant for a worker.
    left: Condvar,
    /// Capacity in jobs; a full queue sheds load.
    cap: usize,
    /// Live [`BatcherClient`] handles; the last drop closes the queue.
    clients: std::sync::atomic::AtomicUsize,
}

impl JobQueue {
    fn new(cap: usize, workers: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                workers,
            }),
            not_empty: Condvar::new(),
            left: Condvar::new(),
            cap: cap.max(1),
            clients: std::sync::atomic::AtomicUsize::new(1),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), SubmitError> {
        let Ok(mut state) = self.state.lock() else {
            return Err(SubmitError::Closed); // a panic while the lock was held
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

    /// Blocks for the first job, then takes queued jobs into `batch` until
    /// `max_batch` observations are gathered, a job that would overflow the
    /// cap is at the front (it stays queued for the next batch), or the
    /// queue is empty. With a zero `max_wait` that is the whole batch; a
    /// non-zero one holds the batch open for further arrivals until
    /// `max_wait` after the first take or the earliest deadline among the
    /// held jobs, whichever comes first. A job whose deadline passed while
    /// it was queued goes to `expired` instead and counts towards nothing.
    /// Returns `false` once the queue is closed **and** drained.
    ///
    /// `batch` and `expired` are cleared and refilled rather than returned
    /// so the dispatch loop can reuse its buffers for its whole lifetime —
    /// the per-batch `Vec` allocation this replaces was the only allocator
    /// traffic in the collect path (`tests/warm_allocs.rs` pins what a warm
    /// served round allocates outside the model).
    ///
    /// The condvar waits release the lock, so any number of workers can be
    /// in here concurrently — collecting never blocks another worker's
    /// collection or execution.
    fn collect_into(
        &self,
        batch: &mut Vec<Job>,
        expired: &mut Vec<Job>,
        max_batch: usize,
        max_wait: Duration,
    ) -> bool {
        batch.clear();
        expired.clear();
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

        // Read under the lock, so every job in the queue was pushed, and
        // its deadline set, before `now`.
        let mut now = Instant::now();
        // Folded down to the earliest deadline of the held jobs as they
        // are taken.
        let mut hold_end = now + max_wait;
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
                let stale = front.deadline.is_some_and(|deadline| deadline <= now);
                let len = front.observations.len();
                if !stale && !batch.is_empty() && observations + len > max_batch {
                    full = true;
                    break;
                }
                let Some(job) = state.jobs.pop_front() else {
                    break;
                };
                if stale {
                    expired.push(job);
                    continue;
                }
                if let Some(deadline) = job.deadline {
                    hold_end = hold_end.min(deadline);
                }
                observations += len;
                batch.push(job);
            }
            if batch.is_empty() || observations >= max_batch || full || state.closed {
                break;
            }
            let remaining = hold_end.saturating_duration_since(now);
            if remaining.is_zero() {
                break;
            }
            match self.not_empty.wait_timeout(state, remaining) {
                Ok((guard, _timeout)) => state = guard,
                Err(_) => return false,
            }
            now = Instant::now();
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
        // Through a poisoned lock nothing more can be pushed or popped;
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

    /// A dispatch worker leaves: its `collect_into` returned `false`.
    fn leave(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.workers = state.workers.saturating_sub(1);
        }
        self.left.notify_all();
    }

    /// Waits up to `timeout` for every dispatch worker to leave; returns
    /// whether they all did. Any number of threads may wait at once.
    fn await_workers_gone(&self, timeout: Duration) -> bool {
        // Clamp so the deadline arithmetic cannot overflow on
        // `Duration::MAX`-style inputs.
        let deadline = Instant::now() + timeout.min(Duration::from_secs(86_400 * 365));
        let Ok(mut state) = self.state.lock() else {
            return false;
        };
        while state.workers > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            match self.left.wait_timeout(state, remaining) {
                Ok((guard, _timeout)) => state = guard,
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
    workers: usize,
}

impl Clone for BatcherClient {
    fn clone(&self) -> Self {
        self.queue.clients.fetch_add(1, Ordering::Relaxed);
        BatcherClient {
            queue: Arc::clone(&self.queue),
            metrics: Arc::clone(&self.metrics),
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
    /// [`SubmitError::Closed`] once a drain has closed the queue.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
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

    /// Dispatch workers currently running: [`configured_workers`] from
    /// [`start`] until a drain or the last client's drop lets them leave.
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
    /// queued is dispatched to completion, after which the workers exit.
    /// Use [`await_drained`] to observe completion.
    ///
    /// [`await_drained`]: BatcherClient::await_drained
    pub fn drain(&self) {
        self.queue.drain_close();
    }

    /// Blocks until the drain has fully completed — every queued job
    /// answered, every worker exited — or `timeout` passed. Returns
    /// whether the drain completed.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        self.queue.await_workers_gone(timeout)
    }
}

/// Spawns one dispatch worker. The live-worker gauge is incremented
/// *before* the spawn and decremented as the worker leaves (or on the
/// error path), so it never over-reports across a spawn failure.
fn spawn_worker(
    worker_id: usize,
    registry: &Arc<Registry>,
    queue: &Arc<JobQueue>,
    config: &BatcherConfig,
    metrics: &Arc<Metrics>,
) -> Result<std::thread::JoinHandle<()>, String> {
    let registry = Arc::clone(registry);
    let queue = Arc::clone(queue);
    let config = config.clone();
    let metrics = Arc::clone(metrics);
    let gauge = Arc::clone(&metrics);
    gauge.live_workers.fetch_add(1, Ordering::AcqRel);
    std::thread::Builder::new()
        .name(format!("vital-serve-worker-{worker_id}"))
        .spawn(move || {
            dispatch_loop(worker_id, &registry, &queue, &config, &metrics);
            // The gauge first: once the queue counts the last worker out,
            // a drain waiter may read it.
            metrics.live_workers.fetch_sub(1, Ordering::AcqRel);
            queue.leave();
        })
        .map_err(|e| {
            gauge.live_workers.fetch_sub(1, Ordering::AcqRel);
            format!("cannot spawn dispatch worker {worker_id}: {e}")
        })
}

/// Starts `config.workers` dispatch workers serving `registry` and returns
/// the submission handle plus the workers' join handles.
///
/// The registry is built by the caller on whatever thread it likes —
/// models are `Send + Sync` — and shared by every worker. Workers exit
/// when every [`BatcherClient`] clone is dropped or a drain completes,
/// and at no other time: no panic in a batch ends one.
///
/// # Errors
/// A `threads` above 1, and thread spawn failures, as a message.
pub fn start(
    registry: Arc<Registry>,
    config: BatcherConfig,
    metrics: Arc<Metrics>,
) -> Result<(BatcherClient, Vec<std::thread::JoinHandle<()>>), String> {
    if let Some(threads @ 2..) = config.threads {
        return Err(format!(
            "threads {threads} is refused: every model computes on its \
             dispatch worker's own thread, so use workers {threads} for {threads} cores"
        ));
    }
    let workers = config.workers.max(1);
    let queue = Arc::new(JobQueue::new(config.queue_cap, workers));
    let mut handles = Vec::with_capacity(workers);
    for worker_id in 0..workers {
        match spawn_worker(worker_id, &registry, &queue, &config, &metrics) {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                // Unblock the workers already spawned — without a close
                // they (and the registry they hold) would wait on the
                // condvar forever, since the BatcherClient owning the
                // initial client refcount is never constructed.
                queue.close();
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }
    Ok((
        BatcherClient {
            queue,
            metrics,
            workers,
        },
        handles,
    ))
}

/// One worker's loop: collects and executes batches until the queue is
/// closed and drained. The batch and expiry buffers are allocated once,
/// up front, and reused for every collect/execute round — the loop body
/// itself is allocation-free (`tests/warm_allocs.rs` pins what a warm
/// served round allocates outside the model: `execute`'s grouping only).
/// Jobs that expired in the queue are answered before the batch runs.
///
/// Each batch runs under one `catch_unwind`, so nothing that happens in a
/// batch ends the loop: a panic fails every job still in the batch with a
/// typed failure, and the worker collects the next batch. The
/// fault-injection harness panics here on purpose, before `execute` takes
/// any job; a model's own panic is already caught in `run_model`.
/// `AssertUnwindSafe` is sound for the reason `run_model` gives: after an
/// unwind the batch is failed and cleared, the registry is immutable and
/// the metrics are atomics.
fn dispatch_loop(
    worker_id: usize,
    registry: &Registry,
    queue: &JobQueue,
    config: &BatcherConfig,
    metrics: &Metrics,
) {
    let mut batch: Vec<Job> = Vec::with_capacity(config.max_batch.max(1));
    let mut expired: Vec<Job> = Vec::with_capacity(config.max_batch.max(1));
    while queue.collect_into(&mut batch, &mut expired, config.max_batch, config.max_wait) {
        metrics
            .queue_depth
            .fetch_sub(batch.len() + expired.len(), Ordering::Relaxed);
        if !expired.is_empty() {
            fail(&expired, JobFailure::Expired, metrics);
        }
        if batch.is_empty() {
            continue;
        }
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(faults) = &config.faults {
                faults.on_batch_collected();
            }
            execute(worker_id, registry, &mut batch, config, metrics);
        }));
        if let Err(payload) = ran {
            fail_panicked_batch(&mut batch, payload.as_ref(), metrics);
        }
    }
}

/// Answers every job a panicking batch left in `batch` with a typed
/// failure naming the panic, and empties it for the next collect.
fn fail_panicked_batch(
    batch: &mut Vec<Job>,
    payload: &(dyn std::any::Any + Send),
    metrics: &Metrics,
) {
    let message = format!("dispatch worker panicked: {}", panic_message(payload));
    fail(batch, JobFailure::Failed(message), metrics);
    batch.clear();
}

/// Groups the drained `jobs` by model (preserving arrival order within
/// each group), runs one `localize_batch` per group under `catch_unwind`
/// and fans results back out. Leaves `jobs` empty so the dispatch loop
/// can refill it.
fn execute(
    worker_id: usize,
    registry: &Registry,
    jobs: &mut Vec<Job>,
    config: &BatcherConfig,
    metrics: &Metrics,
) {
    let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
    for mut job in jobs.drain(..) {
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

        match run_model(registry, &model, &batch) {
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
            Err(message) => fail(&group, JobFailure::Failed(message), metrics),
        }
    }
}

/// Answers every job of `jobs` with `failure`, counted in `jobs_failed`
/// or `jobs_expired`.
fn fail(jobs: &[Job], failure: JobFailure, metrics: &Metrics) {
    let counter = match failure {
        JobFailure::Failed(_) => &metrics.jobs_failed,
        JobFailure::Expired => &metrics.jobs_expired,
    };
    counter.fetch_add(jobs.len() as u64, Ordering::Relaxed);
    for job in jobs {
        let _ = job.reply.send(Err(failure.clone()));
    }
}

/// Runs one model group under `catch_unwind`: a panicking model — poisoned
/// weights, a bug in a localizer — fails only this group with a message
/// naming the fault, and the batch's other groups are still served.
/// `AssertUnwindSafe` is sound here because nothing crossing the boundary
/// is observed after an unwind: the batch is dropped, the registry's
/// models are immutable shared weights, and the metrics are atomics.
fn run_model(
    registry: &Registry,
    model: &str,
    batch: &[FingerprintObservation],
) -> Result<Vec<usize>, String> {
    // Unreachable in practice: names are validated against the catalog
    // before enqueueing.
    let Some(localizer) = registry.get(Some(model)) else {
        return Err(format!("model {model:?} is not loaded"));
    };
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        localizer.localize_batch(batch)
    }));
    match executed {
        Ok(Ok(predictions)) if predictions.len() == batch.len() => Ok(predictions),
        // A short/long result would make the fan-out slicing panic the
        // worker; degrade this batch instead.
        Ok(Ok(predictions)) => Err(format!(
            "model {model:?} returned {} predictions for {} observations",
            predictions.len(),
            batch.len()
        )),
        Ok(Err(e)) => Err(format!("model {model:?} failed: {e}")),
        Err(payload) => Err(format!(
            "model {model:?} panicked: {}",
            panic_message(payload.as_ref())
        )),
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
        fn num_aps(&self) -> usize {
            1
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
        fn num_aps(&self) -> usize {
            1
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
    fn start_refuses_compute_threads_and_points_to_workers() {
        let config = |threads| BatcherConfig {
            threads,
            ..BatcherConfig::default()
        };
        let refused = start(echo_registry(), config(Some(2)), Arc::new(Metrics::new()));
        let message = refused.err().expect("two compute threads must be refused");
        assert!(message.contains("workers"), "{message}");

        for threads in [Some(1), None] {
            let (client, handles) =
                start(echo_registry(), config(threads), Arc::new(Metrics::new())).unwrap();
            let (tx, rx) = mpsc::sync_channel(1);
            client.submit(job("echo", vec![obs(-4.0)], tx)).unwrap();
            assert_eq!(rx.recv().unwrap().unwrap(), vec![4], "{threads:?}");
            drop(client);
            join_all(handles);
        }
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
        fn num_aps(&self) -> usize {
            1
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
        assert_eq!(client.live_workers(), 1);
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
        fn num_aps(&self) -> usize {
            1
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

        // The same worker keeps serving other models afterwards.
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("echo", vec![obs(-6.0)], tx)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
            vec![6]
        );
        assert_eq!(client.live_workers(), 1);
        assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 1);
        drop(client);
        join_all(handles);
    }

    /// Echoes like [`EchoLocalizer`] and records the thread of every call.
    struct ThreadRecordingLocalizer(Arc<Mutex<Vec<std::thread::ThreadId>>>);

    impl Localizer for ThreadRecordingLocalizer {
        fn name(&self) -> &str {
            "ThreadRecording"
        }
        fn num_aps(&self) -> usize {
            1
        }
        fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
            Ok(())
        }
        fn localize_batch(
            &self,
            observations: &[fingerprint::FingerprintObservation],
        ) -> VitalResult<Vec<usize>> {
            self.0.lock().unwrap().push(std::thread::current().id());
            EchoLocalizer.localize_batch(observations)
        }
    }

    #[test]
    fn injected_worker_panic_fails_its_batch_typed_and_the_worker_serves_on() {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let registry = Arc::new(Registry::from_models(vec![(
            "echo".into(),
            Box::new(ThreadRecordingLocalizer(Arc::clone(&threads))) as _,
        )]));
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            registry,
            BatcherConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(100),
                queue_cap: 16,
                workers: 1,
                faults: Some(Arc::new(
                    FaultPlan::parse("worker_panic=2").expect("spec parses"),
                )),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        assert_eq!(handles.len(), 1, "one handle per worker, nothing else");
        let served = |value: f32| {
            let (tx, rx) = mpsc::sync_channel(1);
            client.submit(job("echo", vec![obs(-value)], tx)).unwrap();
            rx.recv_timeout(Duration::from_secs(5)).unwrap()
        };

        assert_eq!(served(1.0), Ok(vec![1]));
        // The second collected batch panics outside the model's guard: its
        // job gets a typed failure naming the panic, not a dropped reply.
        match served(2.0) {
            Err(JobFailure::Failed(message)) => {
                assert!(message.contains("dispatch worker panicked"), "{message}");
                assert!(message.contains("worker_panic on batch 2"), "{message}");
            }
            other => panic!("expected a typed failure, got {other:?}"),
        }
        // The same thread serves the next job: nothing was restarted.
        assert_eq!(served(4.0), Ok(vec![4]));
        let threads = threads.lock().unwrap().clone();
        assert_eq!(
            threads.len(),
            2,
            "the panicked batch never reached the model"
        );
        assert_eq!(
            threads[0], threads[1],
            "the worker thread must survive its batch"
        );
        assert_eq!(client.live_workers(), 1);
        assert_eq!(metrics.jobs_failed.load(Ordering::Relaxed), 1);
        drop(client);
        join_all(handles);
        assert_eq!(
            metrics.queue_depth.load(Ordering::Relaxed),
            0,
            "the failed batch must leave the depth gauge at zero"
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
    fn an_opt_in_hold_ends_at_the_earliest_held_deadline() {
        // An idle worker holding a lone job in a 200 ms window must neither
        // keep it past its 20 ms deadline nor shed it for a deadline that
        // passed while the worker, not the queue, held it.
        let window = Duration::from_millis(200);
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_wait: window,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        let admitted = Instant::now();
        client
            .submit(Job {
                model: "echo".into(),
                observations: vec![obs(-5.0)],
                admitted,
                deadline: Some(admitted + Duration::from_millis(20)),
                reply: tx,
            })
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(vec![5])
        );
        assert!(
            admitted.elapsed() < window,
            "the hold ran its whole window: {:?}",
            admitted.elapsed()
        );
        assert_eq!(metrics.jobs_expired.load(Ordering::Relaxed), 0);
        drop(client);
        join_all(handles);
    }

    #[test]
    fn coalescing_comes_from_the_queue_not_a_window() {
        // The default config holds nothing, so a batch of several jobs can
        // only form from what queued while the one worker was busy: here a
        // 200 ms stall on its first dispatch.
        assert!(BatcherConfig::default().max_wait.is_zero());
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                faults: Some(Arc::new(
                    FaultPlan::parse("latency=echo:200:1").expect("spec parses"),
                )),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let submit = |value: f32| {
            let (tx, rx) = mpsc::sync_channel(1);
            client.submit(job("echo", vec![obs(-value)], tx)).unwrap();
            rx
        };

        let first = submit(1.0);
        // The worker has taken the first job once the queue is empty again.
        let give_up = Instant::now() + Duration::from_secs(5);
        while metrics.queue_depth.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < give_up, "the worker never took a job");
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued: Vec<_> = [2.0, 3.0, 4.0].map(|value| (value, submit(value))).into();
        assert_eq!(
            first.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(vec![1])
        );
        for (value, rx) in queued {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5)).unwrap(),
                Ok(vec![value as usize])
            );
        }
        drop(client);
        join_all(handles);

        let snapshot = metrics.snapshot_json();
        let hist = snapshot.get("batch_size_hist").unwrap().as_array().unwrap();
        let sizes: Vec<(usize, usize)> = hist
            .iter()
            .filter_map(|b| {
                let size = b.get("size").and_then(jsonio::Json::as_usize)?;
                Some((size, b.get("count").and_then(jsonio::Json::as_usize)?))
            })
            .collect();
        assert_eq!(
            sizes,
            vec![(1, 1), (3, 1)],
            "the three queued jobs must run as one batch (size, count): {sizes:?}"
        );
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
        assert_eq!(client.live_workers(), 0, "a drained batcher is done");
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
            fn num_aps(&self) -> usize {
                1
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
