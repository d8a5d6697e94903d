//! A connection flood over real sockets: live handler threads are bounded
//! by construction.
//!
//! With `queue_cap` 4, one worker and `max_batch` 2 the server allows
//! 4 + 1 × 2 = 6 live handlers. Six held keep-alive connections take every
//! permit; each of 64 more is answered `503` + `Retry-After: 1` at accept
//! and closed, and counted in `rejected_connections`, while the process's
//! thread count stays bounded. A held connection is still served, and once
//! the held connections close a new one is served.
//!
//! The thread count is the whole process's, so this binary holds one test.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fingerprint::{FingerprintDataset, FingerprintObservation};
use jsonio::Json;
use serve::codec;
use serve::http::{self, Conn, Method, Response};
use serve::{BatcherConfig, Registry, Server, ServerConfig};
use vital::{Localizer, Result as VitalResult};

/// `queue_cap + workers × max_batch` for the configuration below.
const BOUND: usize = 6;
const FLOOD: usize = 64;
/// Threads besides handlers and dispatch workers: the harness's main
/// thread, this test's thread and the accept loop.
const OTHER_THREADS: usize = 3;

/// A one-access-point model that predicts 0.
struct Zero;

impl Localizer for Zero {
    fn name(&self) -> &str {
        "Zero"
    }
    fn num_aps(&self) -> usize {
        1
    }
    fn fit(&mut self, _: &FingerprintDataset) -> VitalResult<()> {
        Ok(())
    }
    fn localize_batch(&self, observations: &[FingerprintObservation]) -> VitalResult<Vec<usize>> {
        Ok(vec![0; observations.len()])
    }
}

/// Sends one localize request on `stream` and reads its response.
fn localize(stream: &TcpStream) -> Response {
    let observation = FingerprintObservation {
        rp_label: 0,
        device: String::new(),
        min: vec![-70.0],
        max: vec![-60.0],
        mean: vec![-65.0],
    };
    let body = codec::localize_request_body(None, &[observation]);
    http::write_request(
        &mut (&*stream),
        Method::Post,
        "/v1/localize",
        &[("content-type", "application/json")],
        body.as_bytes(),
    )
    .expect("send");
    Conn::new(stream).read_response().expect("response")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// This process's thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads line")
}

#[test]
fn a_flood_past_the_handler_bound_is_refused_at_accept() {
    let server = Server::start(
        ServerConfig {
            batcher: BatcherConfig {
                queue_cap: 4,
                workers: 1,
                max_batch: 2,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        Registry::from_models(vec![("zero".into(), Box::new(Zero))]),
    )
    .expect("server start");
    let addr = server.addr();

    // Each held connection is served once, so its handler is running and
    // holds its permit.
    let held: Vec<TcpStream> = (0..BOUND)
        .map(|_| {
            let stream = connect(addr);
            assert_eq!(localize(&stream).status, 200);
            stream
        })
        .collect();
    let flood: Vec<TcpStream> = (0..FLOOD).map(|_| connect(addr)).collect();
    for stream in &flood {
        let mut conn = Conn::new(stream);
        let refused = conn.read_response().expect("a refusal");
        assert_eq!(refused.status, 503);
        assert_eq!(refused.header("retry-after"), Some("1"));
        assert_eq!(refused.header("connection"), Some("close"));
        let mut rest = [0u8; 1];
        assert_eq!(
            (&*stream).read(&mut rest).expect("EOF"),
            0,
            "closed after the 503"
        );
    }
    let rejected = server.metrics().snapshot_json();
    assert_eq!(
        rejected
            .get("rejected_connections")
            .and_then(Json::as_usize),
        Some(FLOOD)
    );
    let live = threads();
    assert!(
        live <= BOUND + 1 + OTHER_THREADS,
        "{live} threads for {BOUND} handlers and one worker"
    );

    // A held connection is still served.
    assert_eq!(localize(&held[0]).status, 200);

    // Closing the held connections frees their permits as their handlers
    // read EOF; a new connection is served once one has.
    drop(held);
    drop(flood);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stream = connect(addr);
        http::write_request(&mut (&stream), Method::Get, "/healthz", &[], b"").expect("send");
        match Conn::new(&stream).read_response().map(|r| r.status) {
            Ok(200) => break,
            Ok(503) | Err(_) => assert!(
                Instant::now() < deadline,
                "no permit came back 10 s after the held connections closed"
            ),
            Ok(other) => panic!("/healthz answered {other}"),
        }
    }
}
