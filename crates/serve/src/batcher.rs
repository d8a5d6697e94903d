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
//! Every scheduling decision (admission against `queue_cap`, carry-over at
//! `max_batch`, expiry at take time, the hold and its end, leaving once
//! the queue is closed and empty) is made by the crate-private `schedule`
//! module, a pure state machine on the instant it is handed: it holds no
//! lock and reads no clock, and its tests are properties over random event
//! sequences in virtual time. This module's `JobQueue` is its shell: it
//! takes the lock, reads `Instant::now()`, asks the schedule, waits on a
//! condvar for as long as the answer says, wakes an idle worker when jobs
//! are left over, and writes the `queue_depth` gauge from the schedule's
//! length.
//!
//! All workers serve from one shared [`Registry`] behind an [`Arc`]: models
//! are `Send + Sync` with `Arc`-backed weights, so N workers read the same
//! weight allocations concurrently with no locks and no copies. Waiting for
//! jobs releases the queue's lock, so workers coalesce *and* execute
//! batches fully in parallel — the lock is only ever held for O(queue
//! length) pops, never for a hold and never during inference.
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
//!   request was batched with strangers or served alone. The crate's
//!   simulator asserts this for coalesced batches, and the
//!   `server_integration` test end to end over sockets.
//! * **Worker-count transparency** — which worker executes a batch cannot
//!   influence its result (shared immutable weights, per-batch tapes), so
//!   `--workers 1` and `--workers N` produce identical responses; only
//!   throughput changes. The integration suite runs the bit-exactness
//!   check at 4 workers.
//! * **Fault containment** — a dispatch worker cannot die. Each collected
//!   batch runs under one `catch_unwind`: a panic anywhere in it (a test's
//!   [`FaultPlan`] fires one there on purpose) answers every job
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
//! Shutdown comes in two flavours: `JobQueue::close` (the client handle
//! dropped — queued jobs are failed immediately) and the **graceful
//! drain** ([`BatcherClient::drain`]) which refuses new submissions but
//! lets the workers finish everything already queued before they exit;
//! [`BatcherClient::await_drained`] observes completion. Workers leave only
//! through a closed, empty queue, so the queue's own lock counts them out.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar};
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;
use graph::sync::Leaf;

use crate::faultinject::FaultPlan;
use crate::metrics::Metrics;
use crate::registry::Registry;
use crate::schedule::{Decision, Schedule, Take};

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
    /// Test-only worker panic on the Nth collected batch (`None` in
    /// production: the only cost is this `Option` check per batch).
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

/// Bounded MPMC job queue: handler threads push, N dispatch workers
/// collect micro-batches. The shell around the schedule.
///
/// Built on a [`Leaf`] + `Condvar` rather than an `mpsc` channel so that
/// **waiting releases the lock**: several workers can wait for work, or sit
/// inside opt-in holds, simultaneously, each picking up jobs as they
/// arrive, instead of serializing through a receiver mutex. Keeping
/// `closed` inside the schedule, behind the same lock, means no push can
/// land after the closing drain and no waiter can check-then-wait past a
/// close.
struct JobQueue {
    /// A poisoned schedule (a panic while it was held) reads as closed:
    /// nothing more is pushed or popped, and waiters leave.
    schedule: Leaf<Schedule>,
    not_empty: Condvar,
    /// Signalled as each worker leaves. A condvar of its own, so a drain
    /// waiter can never take the wake-up a push meant for a worker.
    left: Condvar,
    /// Its `queue_depth` is the schedule's length, written under the lock.
    metrics: Arc<Metrics>,
}

impl JobQueue {
    fn new(config: &BatcherConfig, workers: usize, metrics: Arc<Metrics>) -> Self {
        let (cap, max_batch, max_wait) = (config.queue_cap, config.max_batch, config.max_wait);
        JobQueue {
            schedule: Leaf::new(Schedule::new(cap, max_batch, max_wait, workers)),
            not_empty: Condvar::new(),
            left: Condvar::new(),
            metrics,
        }
    }

    fn try_push(&self, job: Job) -> Result<(), SubmitError> {
        self.schedule
            .with(|schedule| {
                schedule.push(job)?;
                self.gauge(schedule);
                self.not_empty.notify_one();
                Ok(())
            })
            .unwrap_or(Err(SubmitError::Closed))
    }

    /// Fills `take` with the next batch, waiting as the schedule says;
    /// returns `false` once the queue is closed **and** drained.
    ///
    /// `take` is cleared and refilled rather than returned so the dispatch
    /// loop can reuse its buffers for its whole lifetime
    /// (`tests/warm_allocs.rs` pins what a warm served round allocates
    /// outside the model).
    fn collect_into(&self, take: &mut Take) -> bool {
        take.clear();
        self.schedule
            .with_waits(|held| loop {
                // Read under the lock, so every job in the queue was
                // pushed, and its deadline set, before `now`.
                let now = Instant::now();
                let decision = held.take(now, take);
                self.gauge(held);
                let timeout = match decision {
                    Decision::Run => {
                        // The notify_one that announced a job this worker
                        // is *leaving behind* was consumed by this worker:
                        // re-arm an idle worker so the leftover is picked
                        // up at once instead of after this batch.
                        if held.len() > 0 {
                            self.not_empty.notify_one();
                        }
                        return true;
                    }
                    Decision::Leave => return false,
                    Decision::WaitUntil(end) => Some(end.duration_since(now)),
                    Decision::WaitForWork => None,
                };
                if !held.wait(&self.not_empty, timeout) {
                    return false;
                }
            })
            .unwrap_or(false)
    }

    fn gauge(&self, schedule: &Schedule) {
        self.metrics
            .queue_depth
            .store(schedule.len(), Ordering::Relaxed);
    }

    /// Closes the queue (the client handle dropped, or worker spawning
    /// aborted) and drops its jobs once the lock is released: dropping a
    /// [`Job`] drops its reply sender, which surfaces as an error on the
    /// handler thread rather than an eternal wait.
    fn close(&self) {
        let _dropped = self.schedule.with(|schedule| {
            let dropped = schedule.close();
            self.gauge(schedule);
            dropped
        });
        self.not_empty.notify_all();
    }

    /// Closes the queue for new submissions but **keeps** the queued jobs:
    /// the dispatch workers drain them to completion and then exit. This is
    /// the graceful-shutdown half; [`close`] is the abandon-ship half.
    ///
    /// [`close`]: JobQueue::close
    fn drain_close(&self) {
        let _ = self.schedule.with(Schedule::drain);
        self.not_empty.notify_all();
    }

    /// A dispatch worker leaves: its `collect_into` returned `false`.
    fn leave(&self) {
        let _ = self.schedule.with(Schedule::leave);
        self.left.notify_all();
    }

    /// Waits up to `timeout` for every dispatch worker to leave; returns
    /// whether they all did. Any number of threads may wait at once.
    fn await_workers_gone(&self, timeout: Duration) -> bool {
        // Clamp so the deadline arithmetic cannot overflow on
        // `Duration::MAX`-style inputs.
        let deadline = Instant::now() + timeout.min(Duration::from_secs(86_400 * 365));
        self.schedule
            .with_waits(|held| {
                while held.workers() > 0 {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() || !held.wait(&self.left, Some(remaining)) {
                        return false;
                    }
                }
                true
            })
            .unwrap_or(false)
    }
}

/// The one handle the connection handlers submit through; dropping it
/// closes the queue.
pub struct BatcherClient {
    queue: Arc<JobQueue>,
}

impl Drop for BatcherClient {
    fn drop(&mut self) {
        // Handler threads reach the client through the server's shared
        // state, so none is left to answer jobs still queued at this point
        // and dropping them is safe.
        self.queue.close();
    }
}

impl BatcherClient {
    /// Enqueues a job without blocking.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the queue is at capacity,
    /// [`SubmitError::Closed`] once a drain has closed the queue.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        self.queue.try_push(job)
    }

    /// Dispatch workers currently running: all of them from [`start`]
    /// until a drain or the client's drop lets them leave.
    pub fn live_workers(&self) -> usize {
        self.queue.metrics.live_workers.load(Ordering::Relaxed)
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
/// when the [`BatcherClient`] is dropped or a drain completes, and at no
/// other time: no panic in a batch ends one.
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
    let queue = Arc::new(JobQueue::new(&config, workers, Arc::clone(&metrics)));
    let mut handles = Vec::with_capacity(workers);
    for worker_id in 0..workers {
        match spawn_worker(worker_id, &registry, &queue, &config, &metrics) {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                // Unblock the workers already spawned — without a close
                // they (and the registry they hold) would wait on the
                // condvar forever, since the BatcherClient whose drop
                // closes the queue is never constructed.
                queue.close();
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }
    Ok((BatcherClient { queue }, handles))
}

/// One worker's loop: collects and dispatches batches until the queue is
/// closed and drained. The batch and expiry buffers are allocated once,
/// up front, and reused for every collect/dispatch round — the loop body
/// itself is allocation-free (`tests/warm_allocs.rs` pins what a warm
/// served round allocates outside the model: `execute`'s grouping only).
fn dispatch_loop(
    worker_id: usize,
    registry: &Registry,
    queue: &JobQueue,
    config: &BatcherConfig,
    metrics: &Metrics,
) {
    let mut take = Take::with_capacity(config.max_batch.max(1));
    while queue.collect_into(&mut take) {
        dispatch(
            worker_id,
            registry,
            &mut take,
            config.faults.as_deref(),
            metrics,
        );
    }
}

/// One round of a dispatch worker on the take it collected: the jobs that
/// expired in the queue are answered first, then the batch runs. The
/// crate's simulator calls this too, so it runs the production round.
///
/// The batch runs under one `catch_unwind`, so nothing that happens in it
/// ends the worker's loop: a panic fails every job still in the batch with
/// a typed failure, and the worker collects the next batch. A
/// [`FaultPlan`] panics here on purpose, before `execute` takes any job; a
/// model's own panic is already caught in `run_model`. `AssertUnwindSafe`
/// is sound for the reason `run_model` gives: after an unwind the batch is
/// failed and cleared, the registry is immutable and the metrics are
/// atomics.
pub(crate) fn dispatch(
    worker_id: usize,
    registry: &Registry,
    take: &mut Take,
    faults: Option<&FaultPlan>,
    metrics: &Metrics,
) {
    if !take.expired.is_empty() {
        fail(&take.expired, JobFailure::Expired, metrics);
    }
    if take.batch.is_empty() {
        return;
    }
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(faults) = faults {
            faults.on_batch_collected();
        }
        execute(worker_id, registry, &mut take.batch, metrics);
    }));
    if let Err(payload) = ran {
        fail_panicked_batch(&mut take.batch, payload.as_ref(), metrics);
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
fn execute(worker_id: usize, registry: &Registry, jobs: &mut Vec<Job>, metrics: &Metrics) {
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
                    // `run_model` returned one prediction per observation,
                    // so each job takes exactly its own.
                    let mut predictions = predictions.into_iter();
                    for (job, take) in group.iter().zip(lengths) {
                        let share = predictions.by_ref().take(take).collect();
                        let _ = job.reply.send(Ok(share));
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
// One test paces its retries with real sleeps — exempt from the workspace
// ban on blocking sleeps in request handling — and one records the threads
// a model runs on behind a plain mutex.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
mod tests {
    use super::*;
    use std::sync::Mutex;
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

    type Reply = mpsc::Receiver<Result<Vec<usize>, JobFailure>>;

    /// A one-worker queue with these knobs, for tests that play its worker
    /// with [`serve`] on their own thread: none of them waits on a thread.
    fn queue(max_batch: usize, max_wait: Duration, queue_cap: usize) -> JobQueue {
        let mut config = BatcherConfig::default();
        (config.max_batch, config.max_wait, config.queue_cap) = (max_batch, max_wait, queue_cap);
        JobQueue::new(&config, 1, Arc::new(Metrics::new()))
    }

    /// Submits a job of observations `-values` for `echo`, due `at`, to `queue`.
    fn push(queue: &JobQueue, values: &[f32], at: Option<Instant>) -> Result<Reply, SubmitError> {
        let (tx, rx) = mpsc::sync_channel(1);
        let mut pushed = job("echo", values.iter().map(|&v| obs(-v)).collect(), tx);
        pushed.deadline = at;
        queue.try_push(pushed)?;
        Ok(rx)
    }

    /// One dispatch round, as `dispatch_loop` runs it: answers the take's
    /// expired jobs, runs its batch on `echo`, and returns its job count.
    fn serve(queue: &JobQueue) -> usize {
        let mut take = Take::with_capacity(1);
        assert!(queue.collect_into(&mut take), "the queue has left");
        let jobs = take.batch.len();
        dispatch(0, &echo_registry(), &mut take, None, &queue.metrics);
        jobs
    }

    /// The batch-size histogram as (observations, batches) pairs.
    fn batch_sizes(metrics: &Metrics) -> Vec<(usize, usize)> {
        let snapshot = metrics.snapshot_json();
        let hist = snapshot.get("batch_size_hist").unwrap().as_array().unwrap();
        hist.iter()
            .filter_map(|b| {
                let size = b.get("size").and_then(jsonio::Json::as_usize)?;
                Some((size, b.get("count").and_then(jsonio::Json::as_usize)?))
            })
            .collect()
    }

    #[test]
    fn jobs_round_trip_with_per_job_slicing() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig::default(),
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
        // A long hold, and both jobs queued before the take: the second
        // must be carried over, not merged past the cap.
        let queue = queue(4, Duration::from_millis(200), 16);
        let first = push(&queue, &[1.0, 2.0, 3.0], None).unwrap();
        let second = push(&queue, &[4.0, 5.0, 6.0], None).unwrap();
        assert_eq!(serve(&queue), 1, "the job past the cap waits");
        assert_eq!(first.try_recv().unwrap(), Ok(vec![1, 2, 3]));
        // A drain ends the carried job's hold: it runs at once.
        queue.drain_close();
        assert_eq!(serve(&queue), 1);
        assert_eq!(second.try_recv().unwrap(), Ok(vec![4, 5, 6]));
        // Two dispatches of 3 observations — never one of 6.
        assert_eq!(batch_sizes(&queue.metrics), vec![(3, 2)]);
        assert_eq!(queue.metrics.total_batches(), 2);
    }

    #[test]
    fn zero_max_batch_degrades_to_single_job_batches() {
        // A zero cap must not spin the worker or strand a job: it behaves
        // as batches of one job, like the old channel dispatcher.
        let queue = queue(0, Duration::from_micros(100), 4);
        let replies = [8.0, 9.0].map(|value| (value, push(&queue, &[value], None).unwrap()));
        for (value, rx) in replies {
            assert_eq!(serve(&queue), 1);
            assert_eq!(rx.try_recv().unwrap(), Ok(vec![value as usize]));
        }
    }

    #[test]
    fn expired_jobs_are_shed_with_a_typed_expiry() {
        let queue = queue(32, Duration::ZERO, 16);
        // A deadline of "now" has passed by the take, whenever that is; a
        // generous one has not.
        let now = Instant::now();
        let stale = push(&queue, &[2.0], Some(now)).unwrap();
        let fresh = push(&queue, &[3.0], Some(now + Duration::from_secs(30))).unwrap();
        assert_eq!(serve(&queue), 1);
        assert_eq!(stale.try_recv().unwrap(), Err(JobFailure::Expired));
        assert_eq!(fresh.try_recv().unwrap(), Ok(vec![3]));
        assert_eq!(queue.metrics.jobs_expired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_opt_in_hold_ends_at_the_earliest_held_deadline() {
        // A lone job held in a 200 ms window must neither be kept past its
        // 20 ms deadline nor shed for a deadline that passed while the
        // worker, not the queue, held it. Checked in virtual time.
        let mut schedule = Schedule::new(16, 32, Duration::from_millis(200), 1);
        let (tx, _rx) = mpsc::sync_channel(1);
        let admitted = Instant::now();
        let deadline = admitted + Duration::from_millis(20);
        let mut held = job("echo", vec![obs(-5.0)], tx);
        held.deadline = Some(deadline);
        schedule.push(held).unwrap();
        let mut take = Take::with_capacity(1);
        let decision = schedule.take(admitted, &mut take);
        assert_eq!(decision, Decision::WaitUntil(deadline));
        assert_eq!(schedule.take(deadline, &mut take), Decision::Run);
        assert_eq!((take.batch.len(), take.expired.len()), (1, 0));
    }

    #[test]
    fn coalescing_comes_from_the_queue_not_a_window() {
        // The default config holds nothing, so a batch of several jobs can
        // only form from what queued while the one worker was busy.
        let default = BatcherConfig::default();
        assert!(default.max_wait.is_zero());
        let queue = queue(default.max_batch, default.max_wait, default.queue_cap);
        let first = push(&queue, &[1.0], None).unwrap();
        assert_eq!(serve(&queue), 1, "a lone job runs at once");
        let queued = [2.0, 3.0, 4.0].map(|value| (value, push(&queue, &[value], None).unwrap()));
        assert_eq!(serve(&queue), 3);
        for (value, rx) in std::iter::once((1.0, first)).chain(queued) {
            assert_eq!(rx.try_recv().unwrap(), Ok(vec![value as usize]));
        }
        assert_eq!(batch_sizes(&queue.metrics), vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn full_queue_reports_busy() {
        // The one slot is full until the worker takes its job.
        let queue = queue(1, Duration::ZERO, 1);
        let first = push(&queue, &[2.0], None).unwrap();
        assert_eq!(push(&queue, &[2.0], None).err(), Some(SubmitError::Busy));
        assert_eq!(serve(&queue), 1);
        let second = push(&queue, &[2.0], None).unwrap();
        assert_eq!(push(&queue, &[2.0], None).err(), Some(SubmitError::Busy));
        assert_eq!(serve(&queue), 1);
        for rx in [first, second] {
            assert_eq!(rx.try_recv().unwrap(), Ok(vec![2]));
        }
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
                let client = &client;
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
        let (client, handles) =
            start(registry, BatcherConfig::default(), Arc::new(Metrics::new())).unwrap();
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
        let (client, handles) =
            start(registry, BatcherConfig::default(), Arc::clone(&metrics)).unwrap();

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
                faults: Some(Arc::new(FaultPlan::worker_panic(
                    std::num::NonZeroU64::new(2).unwrap(),
                ))),
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
    fn a_hold_past_any_instant_serves_and_drains() {
        // `max_wait` after the first take cannot be represented, so the
        // hold ends only when the batch fills, a held deadline passes or
        // the queue closes: here the drain ends it.
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
                max_wait: Duration::MAX,
                ..BatcherConfig::default()
            },
            Arc::new(Metrics::new()),
        )
        .unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        client.submit(job("echo", vec![obs(-8.0)], tx)).unwrap();
        client.drain();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(vec![8])
        );
        assert!(client.await_drained(Duration::from_secs(5)));
        drop(client);
        join_all(handles);
    }

    #[test]
    fn drain_completes_queued_jobs_then_refuses_new_ones() {
        let metrics = Arc::new(Metrics::new());
        let (client, handles) = start(
            echo_registry(),
            BatcherConfig {
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
}
