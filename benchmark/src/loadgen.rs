//! The HTTP load generator: a fixed number of threads, one keep-alive
//! connection each, taking requests from one shared schedule.
//!
//! This is the only place the benchmark sleeps: an open-loop thread sleeps
//! until its next request is due.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;
use jsonio::Json;
use serve::codec;
use serve::http::{self, Conn, Method};

use crate::trace::{Span, SpanLog};

/// A wedged server must fail the run, not hang it.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

pub fn prepare(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
}

/// The wire bytes of one `POST /v1/localize` carrying `observations`.
pub fn request_bytes(observations: &[FingerprintObservation]) -> Vec<u8> {
    let body = codec::localize_request_body(None, observations);
    let mut bytes = Vec::new();
    http::write_request(
        &mut bytes,
        Method::Post,
        "/v1/localize",
        &[("content-type", "application/json")],
        body.as_bytes(),
    )
    .expect("writing to a Vec cannot fail");
    bytes
}

/// One answered request.
pub struct Answer {
    pub written: Instant,
    pub read: Instant,
    pub parsed: Instant,
    pub predictions: Vec<usize>,
}

/// Why a request got no usable answer.
#[derive(Debug)]
pub enum Failure {
    /// The connection is unusable; the generator reconnects.
    Transport(String),
    /// The server answered, but not with predictions.
    Refused(String),
}

impl From<Failure> for String {
    fn from(failure: Failure) -> String {
        match failure {
            Failure::Transport(message) | Failure::Refused(message) => message,
        }
    }
}

/// Writes `bytes`, reads one response and decodes its predictions.
///
/// # Errors
/// Transport failures, non-200 statuses and undecodable bodies.
pub fn exchange(
    mut stream: &TcpStream,
    conn: &mut Conn<&TcpStream>,
    bytes: &[u8],
) -> Result<Answer, Failure> {
    stream
        .write_all(bytes)
        .map_err(|e| Failure::Transport(format!("write: {e}")))?;
    let written = Instant::now();
    let response = conn
        .read_response()
        .map_err(|e| Failure::Transport(format!("read: {e}")))?;
    let read = Instant::now();
    if response.status != 200 {
        return Err(Failure::Refused(format!(
            "status {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        )));
    }
    let predictions =
        codec::parse_predictions(&response.body).map_err(|e| Failure::Refused(e.to_string()))?;
    Ok(Answer {
        written,
        read,
        parsed: Instant::now(),
        predictions,
    })
}

/// `GET target` on a fresh connection, decoded as JSON.
pub fn get_json(addr: SocketAddr, target: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    prepare(&stream);
    http::write_request(
        &mut (&stream),
        Method::Get,
        target,
        &[("connection", "close")],
        &[],
    )
    .map_err(|e| format!("write: {e}"))?;
    let response = Conn::new(&stream)
        .read_response()
        .map_err(|e| format!("read: {e}"))?;
    let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
    jsonio::parse(text).map_err(|e| e.to_string())
}

/// When requests are sent.
pub enum Arrivals {
    /// Open loop: request `i` is due `due_s[i]` seconds after the start
    /// whatever happened to the ones before it.
    Open { due_s: Vec<f64> },
    /// Closed loop: each connection sends its next request when the
    /// previous answer arrived, until `seconds` have passed.
    Closed { seconds: f64 },
}

/// What is sent and what must come back.
pub struct Target<'a> {
    pub addr: SocketAddr,
    /// Wire bytes of each distinct request.
    pub requests: &'a [Vec<u8>],
    /// The offline predictions each request must be answered with.
    pub expected: &'a [Vec<usize>],
    /// Which request the `i`-th send carries (cycled through).
    pub order: &'a [usize],
}

/// One request as the generator saw it; times in seconds from the start.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub ok: bool,
}

pub struct Load {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

/// Drives `target` from `connections` threads and returns every request's
/// timing in completion order. Latency is counted from a
/// request's due time: in the open loop a stall therefore charges the
/// requests that queued behind it.
pub fn drive(target: &Target<'_>, arrivals: &Arrivals, connections: usize, traced: bool) -> Load {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let lanes: Vec<(Vec<Sample>, Vec<Span>, Option<String>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|lane| {
                let next = &next;
                scope.spawn(move || client(target, arrivals, next, start, lane, traced))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut load = Load {
        samples: Vec::new(),
        spans: Vec::new(),
        first_error: None,
    };
    for (samples, spans, error) in lanes {
        load.samples.extend(samples);
        load.spans.extend(spans);
        load.first_error = load.first_error.or(error);
    }
    load.samples.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    load
}

fn client(
    target: &Target<'_>,
    arrivals: &Arrivals,
    next: &AtomicUsize,
    start: Instant,
    lane: usize,
    traced: bool,
) -> (Vec<Sample>, Vec<Span>, Option<String>) {
    let mut samples = Vec::new();
    let mut log = SpanLog::new(traced, start, lane);
    let mut first_error = None;
    // A transport failure costs the request it hit and the connection;
    // the outer loop reconnects and carries on.
    'connection: loop {
        let stream = match TcpStream::connect(target.addr) {
            Ok(stream) => stream,
            Err(e) => {
                first_error.get_or_insert(format!("connect: {e}"));
                break;
            }
        };
        prepare(&stream);
        let mut conn = Conn::new(&stream);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let due = match arrivals {
                Arrivals::Open { due_s } => match due_s.get(i) {
                    Some(&s) => start + Duration::from_secs_f64(s),
                    None => break 'connection,
                },
                Arrivals::Closed { seconds } => {
                    let now = Instant::now();
                    if (now - start).as_secs_f64() >= *seconds {
                        break 'connection;
                    }
                    now
                }
            };
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                // The benchmark's one pacing sleep: an open-loop client
                // with nothing due has nothing to wait on but the clock.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(wait);
            }
            let entry = target.order[i % target.order.len()];
            let sent = Instant::now();
            let answer = exchange(&stream, &mut conn, &target.requests[entry]);
            let done = Instant::now();
            let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
            let outcome = answer.and_then(|a| {
                if a.predictions == target.expected[entry] {
                    Ok(a)
                } else {
                    Err(Failure::Refused(format!(
                        "request {i}: served {:?}, offline {:?}",
                        a.predictions, target.expected[entry]
                    )))
                }
            });
            samples.push(Sample {
                due_s: since(due),
                sent_s: since(sent),
                done_s: since(done),
                ok: outcome.is_ok(),
            });
            let request = i as u64;
            let root = log.open("request", None, request, due);
            log.record("loadgen.conn_wait", Some(root), request, due, sent);
            match outcome {
                Ok(a) => {
                    log.record("http.write_request", Some(root), request, sent, a.written);
                    log.record("server.round_trip", Some(root), request, a.written, a.read);
                    log.record(
                        "codec.parse_predictions",
                        Some(root),
                        request,
                        a.read,
                        a.parsed,
                    );
                    log.close(root, done);
                }
                Err(failure) => {
                    log.close(root, done);
                    let reconnect = matches!(failure, Failure::Transport(_));
                    first_error.get_or_insert(failure.into());
                    if reconnect {
                        continue 'connection;
                    }
                }
            }
        }
    }
    (samples, log.into_spans(), first_error)
}
