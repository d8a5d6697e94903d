//! The TCP front end: the accept loop, the per-connection handler threads
//! and the server lifecycle handle. What a connection *says* — parsing,
//! routing, validation, encoding — is the crate's session, a pure state
//! machine; this module is its blocking shell. A handler thread reads only
//! when its session asks for bytes, submits the job the session asks for,
//! waits for its reply, and writes what the session encodes.
//!
//! Endpoints:
//!
//! | route | behaviour |
//! |---|---|
//! | `POST /v1/localize` | decode → hold to the model's input contract → enqueue on the micro-batcher → wait for the batch's predictions (`400` naming both counts when an observation has another access-point count than the model's, before anything is queued; `503` + `Retry-After` when the queue is full, `504` + `Retry-After` when the job's deadline passed in the queue) |
//! | `POST /admin/drain` | begin graceful shutdown: stop admitting (`503`), finish queued jobs, then stop accepting |
//! | `GET /v1/models` | the catalog of hosted models (name, kind and `num_aps`, the access-point count each observation must have), including checkpoints that failed to load (status `degraded`) |
//! | `GET /healthz` | liveness: `ok` / `degraded` (some models failed to load) / `503` while draining or with no live worker |
//! | `GET /metrics` | counters, batch-size histogram, latency percentiles, queue depth, fault-tolerance counters |
//!
//! Live handler threads are bounded by construction: each holds a permit,
//! and there are `queue_cap + workers × max_batch` of them (288 by
//! default), one per job the queue and the running batches can hold. A
//! connection accepted when none is free is answered `503` +
//! `Retry-After: 1` and closed (`rejected_connections`). An idle
//! keep-alive connection keeps its permit until its read times out (30 s),
//! so a server whose permits are all held by idle connections refuses new
//! ones until a client closes or idles out. Every read and write on a
//! connection times out after those 30 s.
//!
//! The server degrades instead of dying: a panic in a batch — the model's
//! or one injected by the fault harness — fails only that batch's jobs
//! (500s naming the panic) while its dispatch worker goes on serving, and
//! a corrupt checkpoint at boot skips that one model. `/healthz` reports
//! the degraded boot so orchestrators can route around the replica.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::batcher::{self, BatcherClient, BatcherConfig};
use crate::codec;
use crate::http;
use crate::metrics::Metrics;
use crate::registry::Registry;
use crate::session::{self, Action, Outcome, Service, Session, READ_CHUNK};

/// Timeout on every connection read and write: a peer that goes silent,
/// or stops reading, this long is disconnected, so a handler thread and
/// its permit cannot be held forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Backstop on how long a handler waits for its job's reply before
/// answering 500. Orders of magnitude above the slowest plausible batch —
/// it exists so a wedged dispatch layer cannot strand connections forever,
/// not as a serving deadline (that is what `deadline_ms` is for). A
/// batcher hold this long would turn every under-full batch into that
/// 500, so [`Server::start`] refuses one.
const REPLY_WAIT_CAP: Duration = Duration::from_secs(120);

/// How long a drain started by `/admin/drain` or by `vital-serve`'s
/// SIGINT/SIGTERM watcher waits for queued jobs before stopping the accept
/// loop anyway.
pub const DRAIN_GRACE: Duration = Duration::from_secs(600);

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
    /// What each connection's session reads.
    service: Service,
    batcher: BatcherClient,
    /// Live handler threads: each holds a [`Permit`].
    handlers: AtomicUsize,
    /// The cap on `handlers` (see [`handler_bound`]).
    max_handlers: usize,
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
        self.shared.service.draining.store(true, Ordering::SeqCst);
        self.shared.batcher.drain();
        let drained = self.shared.batcher.await_drained(grace);
        self.shared.service.shutdown.store(true, Ordering::SeqCst);
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
    /// A `max_wait` at or above the reply backstop (checked before
    /// binding), bind failures and worker-spawn failures, as a message.
    pub fn start(config: ServerConfig, registry: Registry) -> Result<Server, String> {
        if config.batcher.max_wait >= REPLY_WAIT_CAP {
            return Err(format!(
                "max_wait {} us must be below the {} us a handler waits for its reply",
                config.batcher.max_wait.as_micros(),
                REPLY_WAIT_CAP.as_micros()
            ));
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;

        let metrics = Arc::new(Metrics::with_workers(config.batcher.workers.max(1)));
        let service = Service {
            metrics: Arc::clone(&metrics),
            catalog: registry.catalog(),
            degraded: registry.degraded().to_vec(),
            default_deadline: config.default_deadline,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        };
        let (batcher, dispatchers) = batcher::start(
            Arc::new(registry),
            config.batcher.clone(),
            Arc::clone(&metrics),
        )?;

        let shared = Arc::new(Shared {
            service,
            batcher,
            handlers: AtomicUsize::new(0),
            max_handlers: handler_bound(&config.batcher),
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
    /// the batcher threads. Handler threads are not joined: a keep-alive
    /// handler lives until its client closes or its 30 s read timeout.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
    }

    /// Graceful in-process shutdown: stop admitting, complete everything
    /// queued (up to `grace`), then stop the accept loop and join it and
    /// the dispatch workers. Returns whether the queue fully drained in
    /// time.
    ///
    /// This is the teardown for back-to-back in-process servers: when it
    /// returns, no dispatch worker or accept thread from this server is
    /// still running, so the next server cannot race it for the port or
    /// CPU. Handler threads are not joined: each ends when its client
    /// closes or its 30 s read timeout passes.
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
        self.shared.service.shutdown.store(true, Ordering::SeqCst);
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

/// Live handler threads a server allows: `queue_cap + workers ×
/// max_batch`, each read as the schedule reads it (zero as one). Every job
/// in the queue, and every job of a running batch (at most `max_batch`
/// one-observation jobs per worker), has a handler waiting on it, so this
/// many handlers can keep the dispatch layer full; more would only wait
/// for a `503` from the queue. The default configuration allows 288.
fn handler_bound(config: &BatcherConfig) -> usize {
    let per_worker = config.max_batch.max(1);
    config.queue_cap.max(1) + config.workers.max(1) * per_worker
}

/// A live handler's claim on one of [`Shared::max_handlers`] slots.
/// Dropping it frees the slot, on every exit path of the handler — and
/// with the closure of a handler thread that failed to spawn.
struct Permit {
    shared: Arc<Shared>,
}

impl Permit {
    fn acquire(shared: &Arc<Shared>) -> Option<Permit> {
        shared
            .handlers
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
                (live < shared.max_handlers).then_some(live + 1)
            })
            .ok()?;
        Some(Permit {
            shared: Arc::clone(shared),
        })
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.shared.handlers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.service.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Some(permit) = Permit::acquire(shared) else {
                    refuse(&stream, &shared.service.metrics);
                    continue;
                };
                // Handler threads are detached: each holds its permit, and
                // through it the shared state, batcher client included, and
                // exits when its connection closes or times out.
                let _ = std::thread::Builder::new()
                    .name("vital-serve-conn".into())
                    .spawn(move || run_session(&stream, &permit.shared));
            }
            Err(_) if shared.service.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        }
    }
}

/// Answers a connection no handler may take with `503` + `Retry-After` and
/// closes it. The write is non-blocking, so a peer that does not read
/// cannot hold up the accept loop: a refusal with no room in the socket's
/// send buffer is dropped with the connection.
fn refuse(stream: &TcpStream, metrics: &Metrics) {
    metrics.rejected_connections.fetch_add(1, Ordering::Relaxed);
    if stream.set_nonblocking(true).is_ok() {
        let body = codec::error_response("every connection handler is busy; retry shortly");
        let response = session::json_response(503, &body).with_header("retry-after", "1");
        let _ = (&*stream).write_all(&http::encode_response(&response, false));
    }
}

/// The shell around one connection's [`Session`]: it does what the
/// session asks, and everything that blocks.
fn run_session(stream: &TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let service = &shared.service;
    let mut session = Session::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut action = session.poll(service, Instant::now());
    loop {
        action = match action {
            Action::Read => {
                // A failed read (the timeout, a reset) ends the connection
                // unanswered, like an EOF mid-request.
                let Ok(n) = (&*stream).read(&mut chunk) else {
                    return;
                };
                session.received(chunk.get(..n).unwrap_or_default());
                session.poll(service, Instant::now())
            }
            Action::Submit { job, answer } => {
                let outcome = match shared.batcher.submit(job) {
                    Ok(()) => answer
                        .recv_timeout(REPLY_WAIT_CAP)
                        .map_or_else(Outcome::Lost, Outcome::Replied),
                    Err(refused) => Outcome::Refused(refused),
                };
                session.answered(service, outcome, Instant::now())
            }
            Action::Write { bytes, close } => {
                if (&*stream).write_all(&bytes).is_err() || close {
                    return;
                }
                session.poll(service, Instant::now())
            }
            Action::Drain(then) => {
                start_drain(shared);
                *then
            }
            Action::Close => return,
        };
    }
}

/// The drain `POST /admin/drain` started: the queue closes before the
/// `202` is written, and a detached finisher thread waits for it to empty
/// and then stops the accept loop.
fn start_drain(shared: &Arc<Shared>) {
    // The finisher's drain repeats this, a no-op on a closed queue.
    shared.batcher.drain();
    let finisher = DrainTrigger {
        shared: Arc::clone(shared),
    };
    let _ = std::thread::Builder::new()
        .name("vital-serve-drain".into())
        .spawn(move || finisher.drain(DRAIN_GRACE));
}
