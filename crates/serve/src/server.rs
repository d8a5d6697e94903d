//! The TCP front end: accept loop, per-connection handler threads, request
//! routing, and the server lifecycle handle.
//!
//! Endpoints:
//!
//! | route | behaviour |
//! |---|---|
//! | `POST /v1/localize` | decode → enqueue on the micro-batcher → wait for the batch's predictions (`400` with the reason when the model refuses the observations, `503` + `Retry-After` when the queue is full, `504` + `Retry-After` when the job's deadline passed in the queue) |
//! | `POST /admin/drain` | begin graceful shutdown: stop admitting (`503`), finish queued jobs, then stop accepting |
//! | `GET /v1/models` | the catalog of hosted models (name + kind), including checkpoints that failed to load (status `degraded`) |
//! | `GET /healthz` | liveness: `ok` / `degraded` (some models failed to load) / `503` while draining or with no live worker |
//! | `GET /metrics` | counters, batch-size histogram, latency percentiles, queue depth, fault-tolerance counters |
//!
//! The server degrades instead of dying: a panic in a batch — the model's
//! or one injected by the fault harness — fails only that batch's jobs
//! (500s naming the panic) while its dispatch worker goes on serving, and
//! a corrupt checkpoint at boot skips that one model. `/healthz` reports
//! the degraded boot so orchestrators can route around the replica.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use jsonio::Json;

use crate::batcher::{self, BatcherClient, BatcherConfig, Job, JobFailure, SubmitError};
use crate::codec;
use crate::http::{self, Conn, Method, Request, Response};
use crate::metrics::Metrics;
use crate::registry::Registry;

/// Idle timeout on connection reads; a peer that goes silent this long is
/// disconnected so handler threads cannot leak forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Backstop on how long a handler waits for its job's reply before
/// answering 500. Orders of magnitude above the slowest plausible batch —
/// it exists so a wedged dispatch layer cannot strand connections forever,
/// not as a serving deadline (that is what `deadline_ms` is for).
const REPLY_WAIT_CAP: Duration = Duration::from_secs(120);

/// How long the `/admin/drain` finisher thread waits for queued jobs
/// before stopping the accept loop anyway.
const DRAIN_GRACE: Duration = Duration::from_secs(600);

/// Everything needed to start a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Micro-batching knobs.
    pub batcher: BatcherConfig,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` (`None` = no default): jobs still queued past it are
    /// shed with `504` at dispatch time, so overload sheds stale work
    /// instead of serving it late.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig::default(),
            default_deadline: None,
        }
    }
}

/// Shared state every connection handler gets.
struct Shared {
    metrics: Arc<Metrics>,
    batcher: BatcherClient,
    /// `(name, kind)` catalog for `/v1/models` and request validation.
    catalog: Vec<(String, String)>,
    /// `(name, error)` for checkpoints that failed to load at boot.
    degraded: Vec<(String, String)>,
    /// Accept-loop stop flag.
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain flag: set before `shutdown`, refuses new localize
    /// admissions while queued work completes.
    draining: AtomicBool,
    default_deadline: Option<Duration>,
    addr: SocketAddr,
}

/// A handle that can initiate a graceful drain from outside the server —
/// the `vital-serve` signal watcher, tests, embedded callers.
#[derive(Clone)]
pub struct DrainTrigger {
    shared: Arc<Shared>,
}

impl DrainTrigger {
    /// Runs the drain sequence: stop admitting (new localize requests get
    /// `503`), let the dispatch workers finish everything queued, then
    /// stop the accept loop. Blocks up to `grace` for the queued jobs;
    /// returns whether the drain completed in time (the accept loop is
    /// stopped either way).
    pub fn drain(&self, grace: Duration) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.batcher.drain();
        let drained = self.shared.batcher.await_drained(grace);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.shared.addr);
        drained
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop; in-flight connections finish their current request.
/// [`Server::drain`] is the graceful variant: queued jobs complete first.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Metrics>,
}

impl Server {
    /// Binds, spawns the dispatch workers over the already-loaded
    /// `registry` (models are `Send + Sync`, so the registry is built once
    /// — typically on the main thread via [`Registry::from_checkpoint_dir`]
    /// — and shared by every worker) and starts accepting connections.
    ///
    /// # Errors
    /// Bind failures and worker-spawn failures, as a message.
    pub fn start(config: ServerConfig, registry: Registry) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;

        let metrics = Arc::new(Metrics::with_workers(config.batcher.workers.max(1)));
        let catalog = registry.catalog();
        let degraded = registry.degraded().to_vec();
        let (batcher, dispatchers) = batcher::start(
            Arc::new(registry),
            config.batcher.clone(),
            Arc::clone(&metrics),
        )?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            metrics: Arc::clone(&metrics),
            batcher,
            catalog,
            degraded,
            shutdown,
            draining: AtomicBool::new(false),
            default_deadline: config.default_deadline,
            addr,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("vital-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?;

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            dispatchers,
            metrics,
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics (shared with the `/metrics` endpoint).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A cloneable handle for initiating graceful drains from other
    /// threads (the binary's signal watcher uses this).
    pub fn drain_trigger(&self) -> DrainTrigger {
        DrainTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the accept loop exits (on [`Server::shutdown`] or a
    /// completed drain — "serve until stopped" for the binary), then joins
    /// the batcher threads.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
    }

    /// Graceful in-process shutdown: stop admitting, complete everything
    /// queued (up to `grace`), then stop the accept loop and join every
    /// server thread. Returns whether the queue fully drained in time.
    ///
    /// This is the teardown for back-to-back in-process servers: when it
    /// returns, no dispatch worker or accept thread from this server is
    /// still running, so the next server cannot race it for the port or
    /// CPU.
    pub fn drain(&mut self, grace: Duration) -> bool {
        let drained = self.drain_trigger().drain(grace);
        self.shutdown();
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
        drained
    }

    /// Stops accepting connections and joins the accept loop. Handler
    /// threads drain naturally as their connections close. Queued jobs are
    /// **not** waited for — use [`Server::drain`] for that.
    pub fn shutdown(&mut self) {
        // No early-out on an already-set flag: a drain sets the flag
        // before the accept loop has necessarily exited, and this must
        // still join it. Idempotence comes from `accept.take()`.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let shared = Arc::clone(shared);
                // Handler threads are detached: they hold a BatcherClient
                // clone and exit when their connection closes or idles out.
                let _ = std::thread::Builder::new()
                    .name("vital-serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut conn = Conn::new(&stream);
    loop {
        let request = match conn.read_request() {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean close between requests
            Err(error) => {
                // Answer protocol errors that still have a client to talk
                // to, then drop the connection either way.
                if let Some(status) = error.status() {
                    shared
                        .metrics
                        .requests_total
                        .fetch_add(1, Ordering::Relaxed);
                    count_status(&shared.metrics, status);
                    let body = codec::error_response(&error.to_string());
                    let _ =
                        http::write_response(&mut (&stream), &json_response(status, &body), false);
                }
                return;
            }
        };
        shared
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let response = route(&request, shared);
        count_status(&shared.metrics, response.status);
        if http::write_response(&mut (&stream), &response, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Folds a response status into the error counters (2xx are counted at the
/// localize site, where latency is also recorded).
fn count_status(metrics: &Metrics, status: u16) {
    match status {
        400..=499 => {
            metrics.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        // Backpressure 503s and deadline 504s are intentional shedding,
        // tracked separately (`rejected_busy` / `jobs_expired`) — only
        // other 5xx count as server errors.
        500..=599 if status != 503 && status != 504 => {
            metrics.server_errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
}

fn json_response(status: u16, body: &Json) -> Response {
    Response::new(status, body.to_json_string().into_bytes())
        .with_header("content-type", "application/json")
}

fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    match (request.method, request.target.as_str()) {
        (Method::Get, "/healthz") => healthz(shared),
        (Method::Get, "/v1/models") => {
            let mut entries: Vec<Json> = shared
                .catalog
                .iter()
                .map(|(name, kind)| {
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("kind", Json::from(kind.as_str())),
                        ("status", Json::from("ok")),
                    ])
                })
                .collect();
            // Checkpoints that failed to load are listed too — a fleet
            // controller diffing /v1/models against its rollout plan must
            // see the hole, not silently shortened output.
            entries.extend(shared.degraded.iter().map(|(name, error)| {
                Json::obj([
                    ("name", Json::from(name.as_str())),
                    ("status", Json::from("degraded")),
                    ("error", Json::from(error.as_str())),
                ])
            }));
            json_response(200, &Json::obj([("models", Json::Arr(entries))]))
        }
        (Method::Get, "/metrics") => json_response(200, &shared.metrics.snapshot_json()),
        (Method::Post, "/v1/localize") => localize(request, shared),
        (Method::Post, "/admin/drain") => admin_drain(shared),
        (Method::Get, _) => json_response(404, &codec::error_response("no such endpoint")),
        (Method::Post, _) => json_response(404, &codec::error_response("no such endpoint")),
    }
}

/// Liveness with degradation states (see the module table). The body
/// always carries `status`, model counts and worker gauges so probes can
/// alert on partial degradation, not just the status code.
fn healthz(shared: &Shared) -> Response {
    let live = shared.batcher.live_workers();
    let workers = shared.batcher.configured_workers();
    let degraded_models = shared.degraded.len();
    let body = |status: &str| {
        Json::obj([
            ("status", Json::from(status)),
            ("models", Json::from(shared.catalog.len())),
            ("degraded_models", Json::from(degraded_models)),
            ("workers", Json::from(workers)),
            ("live_workers", Json::from(live)),
        ])
    };
    if shared.draining.load(Ordering::SeqCst) {
        return json_response(503, &body("draining"));
    }
    if live == 0 {
        return json_response(503, &body("dead"));
    }
    if degraded_models > 0 {
        return json_response(200, &body("degraded"));
    }
    json_response(200, &body("ok"))
}

/// `POST /admin/drain`: flips the server into draining mode and answers
/// immediately with `202`; a detached finisher thread waits for the queue
/// to empty and then stops the accept loop. Idempotent — repeat calls
/// observe `already_draining`.
fn admin_drain(shared: &Arc<Shared>) -> Response {
    let already = shared.draining.swap(true, Ordering::SeqCst);
    if !already {
        shared.batcher.drain();
        let finisher = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("vital-serve-drain".into())
            .spawn(move || {
                let _ = finisher.batcher.await_drained(DRAIN_GRACE);
                finisher.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(finisher.addr);
            });
    }
    json_response(
        202,
        &Json::obj([
            ("status", Json::from("draining")),
            (
                "queued",
                Json::from(shared.metrics.queue_depth.load(Ordering::Relaxed)),
            ),
            ("already_draining", Json::from(already)),
        ]),
    )
}

fn localize(request: &Request, shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return json_response(
            503,
            &codec::error_response("server is draining; retry against another replica"),
        )
        .with_header("retry-after", "1");
    }
    let started = Instant::now();
    let decoded = match codec::parse_localize_request(&request.body) {
        Ok(decoded) => decoded,
        Err(error) => return json_response(400, &codec::error_response(&error.to_string())),
    };

    // Resolve the model name against the catalog up front so the
    // dispatch workers only ever see valid names.
    let model = match &decoded.model {
        Some(name) => match shared.catalog.iter().find(|(n, _)| n == name) {
            Some((name, _)) => name.clone(),
            None => {
                return json_response(
                    404,
                    &codec::error_response(&format!("model {name:?} is not hosted")),
                )
            }
        },
        // With exactly one hosted model the name may be omitted; otherwise
        // it is required.
        None => match shared.catalog.as_slice() {
            [(name, _)] => name.clone(),
            _ => {
                return json_response(
                    400,
                    &codec::error_response(
                        "several models are hosted; name one with the \"model\" field",
                    ),
                )
            }
        },
    };

    // Per-request deadline beats the server default; both are capped by
    // the codec at 24 h, so the Instant arithmetic cannot overflow.
    let deadline = decoded
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.default_deadline)
        .and_then(|budget| started.checked_add(budget));

    // Capacity 1 is exact: the dispatch worker sends one reply per job, so
    // the send never blocks and the channel never buffers unboundedly.
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let submitted = shared.batcher.submit(Job {
        model: model.clone(),
        observations: decoded.observations,
        admitted: started,
        deadline,
        reply: reply_tx,
    });
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Busy) => {
            shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            return json_response(
                503,
                &codec::error_response("dispatch queue is full; retry shortly"),
            )
            .with_header("retry-after", "1");
        }
        Err(SubmitError::Closed) => {
            return json_response(500, &codec::error_response("dispatch workers are gone"));
        }
    }

    match reply_rx.recv_timeout(REPLY_WAIT_CAP) {
        Ok(Ok(predictions)) => {
            shared.metrics.localize_ok.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .latency
                .record_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            json_response(
                200,
                &codec::predictions_response(&model, &predictions, decoded.bulk),
            )
        }
        Ok(Err(JobFailure::Expired)) => json_response(
            504,
            &codec::error_response(
                "deadline exceeded while queued; the server is shedding stale work",
            ),
        )
        .with_header("retry-after", "1"),
        Ok(Err(JobFailure::Refused(reason))) => json_response(400, &codec::error_response(&reason)),
        Ok(Err(JobFailure::Failed(message))) => {
            json_response(500, &codec::error_response(&message))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => json_response(
            500,
            &codec::error_response("a dispatch worker dropped the job"),
        ),
        Err(mpsc::RecvTimeoutError::Timeout) => json_response(
            500,
            &codec::error_response("timed out waiting for a dispatch worker"),
        ),
    }
}
