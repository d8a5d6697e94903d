//! One connection's HTTP exchange as a pure state machine.
//!
//! A [`Session`] owns everything between a connection's bytes and the
//! dispatch queue: the parse buffer, routing, the request's validation,
//! the answers of `/healthz`, `/v1/models`, `/metrics` and
//! `/admin/drain`, and the encoding of every response. It holds no
//! socket, reads no clock and never blocks. It is fed what the peer
//! sent ([`Session::received`]; empty means EOF, as in `h11`), the outcome
//! of the job it asked for ([`Session::answered`]) and the current
//! instant, and it answers with the next [`Action`]: read more bytes,
//! submit a job, write bytes (then keep the connection or close it), start
//! the drain, or close.
//!
//! `server.rs`'s handler loop is the shell that does what blocks: socket
//! reads and writes, `BatcherClient::submit` and the wait for the reply.
//! The session asks for bytes only while its buffer holds no complete
//! request, so a pipelining client is held back by TCP, and the buffer
//! never holds more than [`MAX_HEAD_BYTES`] + [`MAX_BODY_BYTES`] plus one
//! [`READ_CHUNK`]. The crate's simulator (tests only) drives sessions the
//! same way, in virtual time.
//!
//! [`MAX_HEAD_BYTES`]: crate::http::MAX_HEAD_BYTES
//! [`MAX_BODY_BYTES`]: crate::http::MAX_BODY_BYTES

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jsonio::Json;

use crate::batcher::{Job, JobFailure, SubmitError};
use crate::codec;
use crate::http::{self, Method, Parse, Request, Response};
use crate::metrics::Metrics;

/// The most bytes the shell reads for one [`Action::Read`].
pub(crate) const READ_CHUNK: usize = 4096;

/// What every session of one server reads: the catalog, the metrics and
/// the lifecycle flags.
pub(crate) struct Service {
    pub(crate) metrics: Arc<Metrics>,
    /// `(name, kind, num_aps)` catalog for `/v1/models` and request
    /// validation.
    pub(crate) catalog: Vec<(String, String, usize)>,
    /// `(name, error)` for checkpoints that failed to load at boot.
    pub(crate) degraded: Vec<(String, String)>,
    pub(crate) default_deadline: Option<Duration>,
    /// Graceful-drain flag: set before `shutdown`, refuses new localize
    /// admissions while queued work completes.
    pub(crate) draining: AtomicBool,
    /// Accept-loop stop flag; no connection is kept alive past it.
    pub(crate) shutdown: AtomicBool,
}

/// What the shell does next for a session.
pub(crate) enum Action {
    /// Read up to [`READ_CHUNK`] bytes and pass them to
    /// [`Session::received`], then poll.
    Read,
    /// Submit `job`, wait for its reply on `answer` and pass what became of
    /// it to [`Session::answered`].
    Submit {
        job: Job,
        answer: Receiver<Result<Vec<usize>, JobFailure>>,
    },
    /// Write these bytes; then close the connection if `close`, else poll.
    Write { bytes: Vec<u8>, close: bool },
    /// Start the graceful drain, then do this.
    Drain(Box<Action>),
    /// Close the connection.
    Close,
}

/// What became of a submitted job.
pub(crate) enum Outcome {
    /// `submit` refused it.
    Refused(SubmitError),
    /// A dispatch worker's reply.
    Replied(Result<Vec<usize>, JobFailure>),
    /// No reply came: the job was dropped, or the wait hit its backstop.
    Lost(RecvTimeoutError),
}

/// The submitted request a reply answers.
struct Waiting {
    /// Index of the model in the catalog.
    model: usize,
    bulk: bool,
    started: Instant,
    keep_alive: bool,
}

/// One connection's state between its bytes and the dispatch queue.
pub(crate) struct Session {
    buf: Vec<u8>,
    eof: bool,
    waiting: Option<Waiting>,
}

impl Session {
    pub(crate) fn new() -> Session {
        Session {
            buf: Vec::with_capacity(READ_CHUNK),
            eof: false,
            waiting: None,
        }
    }

    /// Bytes the peer sent; an empty read is its EOF.
    pub(crate) fn received(&mut self, bytes: &[u8]) {
        self.eof |= bytes.is_empty();
        self.buf.extend_from_slice(bytes);
    }

    /// The next action at `now`: answer the next buffered request, or ask
    /// for more bytes, or close once the peer has.
    pub(crate) fn poll(&mut self, service: &Service, now: Instant) -> Action {
        let request = match http::parse_request(&self.buf) {
            Ok(Parse::Complete { value, consumed }) => {
                self.buf.drain(..consumed);
                value
            }
            // A clean close between requests, or EOF mid-request: nobody
            // is left to answer.
            Ok(Parse::Partial) if self.eof => return Action::Close,
            Ok(Parse::Partial) => return Action::Read,
            // Answer protocol errors that still have a client to talk to,
            // then close either way.
            Err(error) => {
                let Some(status) = error.status() else {
                    return Action::Close;
                };
                service
                    .metrics
                    .requests_total
                    .fetch_add(1, Ordering::Relaxed);
                let body = codec::error_response(&error.to_string());
                return respond(service, &json_response(status, &body), false);
            }
        };
        service
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive && !service.shutdown.load(Ordering::SeqCst);
        self.route(&request, service, now, keep_alive)
    }

    /// The response to the submitted job, given what became of it at `now`.
    pub(crate) fn answered(&mut self, service: &Service, outcome: Outcome, now: Instant) -> Action {
        let Some(waiting) = self.waiting.take() else {
            return Action::Close;
        };
        let model = service
            .catalog
            .get(waiting.model)
            .map_or("", |(name, _, _)| name.as_str());
        let response = match outcome {
            Outcome::Replied(Ok(predictions)) => {
                service.metrics.localize_ok.fetch_add(1, Ordering::Relaxed);
                let elapsed = now.saturating_duration_since(waiting.started);
                service
                    .metrics
                    .latency
                    .record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
                json_response(
                    200,
                    &codec::predictions_response(model, &predictions, waiting.bulk),
                )
            }
            Outcome::Refused(SubmitError::Busy) => {
                service
                    .metrics
                    .rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
                json_response(
                    503,
                    &codec::error_response("dispatch queue is full; retry shortly"),
                )
                .with_header("retry-after", "1")
            }
            Outcome::Refused(SubmitError::Closed) => {
                json_response(500, &codec::error_response("dispatch workers are gone"))
            }
            Outcome::Replied(Err(JobFailure::Expired)) => json_response(
                504,
                &codec::error_response(
                    "deadline exceeded while queued; the server is shedding stale work",
                ),
            )
            .with_header("retry-after", "1"),
            Outcome::Replied(Err(JobFailure::Failed(message))) => {
                json_response(500, &codec::error_response(&message))
            }
            Outcome::Lost(RecvTimeoutError::Disconnected) => json_response(
                500,
                &codec::error_response("a dispatch worker dropped the job"),
            ),
            Outcome::Lost(RecvTimeoutError::Timeout) => json_response(
                500,
                &codec::error_response("timed out waiting for a dispatch worker"),
            ),
        };
        respond(service, &response, waiting.keep_alive)
    }

    /// Answers `request`, or asks the shell to submit its job or start the
    /// drain first.
    fn route(
        &mut self,
        request: &Request,
        service: &Service,
        now: Instant,
        keep_alive: bool,
    ) -> Action {
        let response = match (request.method, request.target.as_str()) {
            (Method::Get, "/healthz") => healthz(service),
            (Method::Get, "/v1/models") => {
                let mut entries: Vec<Json> = service
                    .catalog
                    .iter()
                    .map(|(name, kind, num_aps)| {
                        Json::obj([
                            ("name", Json::from(name.as_str())),
                            ("kind", Json::from(kind.as_str())),
                            ("num_aps", Json::from(*num_aps)),
                            ("status", Json::from("ok")),
                        ])
                    })
                    .collect();
                // Checkpoints that failed to load are listed too — a fleet
                // controller diffing /v1/models against its rollout plan
                // must see the hole, not silently shortened output.
                entries.extend(service.degraded.iter().map(|(name, error)| {
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("status", Json::from("degraded")),
                        ("error", Json::from(error.as_str())),
                    ])
                }));
                json_response(200, &Json::obj([("models", Json::Arr(entries))]))
            }
            (Method::Get, "/metrics") => json_response(200, &service.metrics.snapshot_json()),
            (Method::Post, "/v1/localize") => {
                match self.localize(request, service, now, keep_alive) {
                    Ok(submit) => return submit,
                    Err(refusal) => refusal,
                }
            }
            (Method::Post, "/admin/drain") => {
                let (response, starts) = admin_drain(service);
                let write = respond(service, &response, keep_alive);
                return if starts {
                    Action::Drain(Box::new(write))
                } else {
                    write
                };
            }
            (Method::Get | Method::Post, _) => {
                json_response(404, &codec::error_response("no such endpoint"))
            }
        };
        respond(service, &response, keep_alive)
    }

    /// `POST /v1/localize` up to the wait for its reply: the submission
    /// of a valid request, or the refusal of any other.
    fn localize(
        &mut self,
        request: &Request,
        service: &Service,
        started: Instant,
        keep_alive: bool,
    ) -> Result<Action, Response> {
        if service.draining.load(Ordering::SeqCst) {
            return Err(json_response(
                503,
                &codec::error_response("server is draining; retry against another replica"),
            )
            .with_header("retry-after", "1"));
        }
        let refuse = |status, message: &str| json_response(status, &codec::error_response(message));
        let decoded = match codec::parse_localize_request(&request.body) {
            Ok(decoded) => decoded,
            Err(error) => return Err(refuse(400, &error.to_string())),
        };

        // Resolve the model name against the catalog up front so the
        // dispatch workers only ever see valid names.
        let (index, (model, _, num_aps)) = match &decoded.model {
            Some(name) => match service
                .catalog
                .iter()
                .enumerate()
                .find(|(_, (n, _, _))| n == name)
            {
                Some(entry) => entry,
                None => return Err(refuse(404, &format!("model {name:?} is not hosted"))),
            },
            // With exactly one hosted model the name may be omitted; otherwise
            // it is required.
            None => match service.catalog.as_slice() {
                [only] => (0, only),
                _ => {
                    return Err(refuse(
                        400,
                        "several models are hosted; name one with the \"model\" field",
                    ))
                }
            },
        };
        // The model's input contract, held here so that no batch can form
        // around an observation its model would refuse.
        if let Err(error) = vital::check_widths(*num_aps, &decoded.observations) {
            return Err(refuse(
                400,
                &format!("model {model:?} refuses the input: {error}"),
            ));
        }

        // Per-request deadline beats the server default; both are capped by
        // the codec at 24 h, so the Instant arithmetic cannot overflow.
        let deadline = decoded
            .deadline_ms
            .map(Duration::from_millis)
            .or(service.default_deadline)
            .and_then(|budget| started.checked_add(budget));
        // Capacity 1 is exact: the dispatch worker sends one reply per job, so
        // the send never blocks and the channel never buffers unboundedly.
        let (reply, answer) = mpsc::sync_channel(1);
        self.waiting = Some(Waiting {
            model: index,
            bulk: decoded.bulk,
            started,
            keep_alive,
        });
        let job = Job {
            model: model.clone(),
            observations: decoded.observations,
            admitted: started,
            deadline,
            reply,
        };
        Ok(Action::Submit { job, answer })
    }
}

/// Counts `response` and encodes it for the shell to write.
fn respond(service: &Service, response: &Response, keep_alive: bool) -> Action {
    count_status(&service.metrics, response.status);
    Action::Write {
        bytes: http::encode_response(response, keep_alive),
        close: !keep_alive,
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

pub(crate) fn json_response(status: u16, body: &Json) -> Response {
    Response::new(status, body.to_json_string().into_bytes())
        .with_header("content-type", "application/json")
}

/// Liveness with degradation states (see the `server` module table). The
/// body always carries `status`, model counts and worker gauges so probes
/// can alert on partial degradation, not just the status code.
fn healthz(service: &Service) -> Response {
    let live = service.metrics.live_workers.load(Ordering::Relaxed);
    let workers = service.metrics.workers();
    let degraded_models = service.degraded.len();
    let body = |status: &str| {
        Json::obj([
            ("status", Json::from(status)),
            ("models", Json::from(service.catalog.len())),
            ("degraded_models", Json::from(degraded_models)),
            ("workers", Json::from(workers)),
            ("live_workers", Json::from(live)),
        ])
    };
    if service.draining.load(Ordering::SeqCst) {
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
/// `202`, and says whether this call starts the drain, which the shell
/// runs before it writes the answer: the queue closes, and a finisher
/// waits for it to empty and then stops the accept loop. Idempotent —
/// repeat calls observe `already_draining`.
fn admin_drain(service: &Service) -> (Response, bool) {
    let already = service.draining.swap(true, Ordering::SeqCst);
    let response = json_response(
        202,
        &Json::obj([
            ("status", Json::from("draining")),
            (
                "queued",
                Json::from(service.metrics.queue_depth.load(Ordering::Relaxed)),
            ),
            ("already_draining", Json::from(already)),
        ]),
    );
    (response, !already)
}

#[cfg(test)]
impl Session {
    /// Bytes received and not yet consumed by a request.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len()
    }
}
