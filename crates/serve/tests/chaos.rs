//! Chaos tests: deterministic fault injection against a real server.
//!
//! The acceptance story for the fault-tolerance work: inject a worker
//! panic mid-load and assert (a) only that batch's jobs fail, (b) the
//! supervisor restarts the worker, (c) `/healthz` recovers and
//! post-recovery responses are **bit-identical** to the offline reference.
//! Plus the other injectable faults: a panicking *model* is contained to
//! its batch without costing the worker, latency injection stalls only the
//! named model, and a corrupt checkpoint degrades one model instead of the
//! whole boot.

// Chaos tests pace polls against a live server with real sleeps — exempt
// from the workspace ban on blocking sleeps in request handling.
#![allow(clippy::disallowed_methods)]

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::{FeatureMode, KnnLocalizer};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset, FingerprintObservation};
use jsonio::Json;
use serve::codec;
use serve::http::{self, Conn, Method, Response};
use serve::{BatcherConfig, FaultPlan, Registry, Server, ServerConfig};
use sim_radio::building_1;
use vital::{Localizer, Result as VitalResult};

/// Small deterministic dataset (seed-fixed), same as the integration suite.
fn dataset() -> FingerprintDataset {
    FingerprintDataset::collect(
        &building_1(),
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 1234,
        },
    )
}

fn fitted_knn(data: &FingerprintDataset) -> KnnLocalizer {
    let mut knn = KnnLocalizer::new(3, FeatureMode::Ssd);
    knn.fit(data).expect("fit KNN");
    knn
}

fn post_localize(conn: &mut Conn<&TcpStream>, stream: &TcpStream, body: &[u8]) -> Response {
    http::write_request(
        &mut (&*stream),
        Method::Post,
        "/v1/localize",
        &[("content-type", "application/json")],
        body,
    )
    .expect("send request");
    conn.read_response().expect("read response")
}

fn get(addr: std::net::SocketAddr, target: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    http::write_request(&mut (&stream), Method::Get, target, &[], b"").expect("send");
    Conn::new(&stream).read_response().expect("response")
}

/// Polls `/healthz` until it reports 200 with every worker live, or panics
/// after `deadline`.
fn await_healthy(addr: std::net::SocketAddr, workers: usize, deadline: Duration) {
    let give_up = Instant::now() + deadline;
    loop {
        let health = get(addr, "/healthz");
        if health.status == 200 {
            let doc = jsonio::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
            if doc.get("live_workers").and_then(Json::as_usize) == Some(workers) {
                return;
            }
        }
        assert!(
            Instant::now() < give_up,
            "server did not recover within {deadline:?} (last /healthz: {} {})",
            health.status,
            String::from_utf8_lossy(&health.body)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The headline acceptance test: a worker panic injected mid-load fails
/// exactly the batch it hit, the supervisor restarts the worker, and the
/// recovered server serves bit-identical predictions.
#[test]
fn injected_worker_panic_fails_one_batch_and_the_server_recovers_bit_identical() {
    let data = dataset();
    let observations: Vec<FingerprintObservation> = data.observations().to_vec();
    let offline = fitted_knn(&data);
    let expected = offline
        .localize_batch(&observations)
        .expect("offline predictions");

    // Panic on the 3rd collected batch. Requests are sent sequentially, so
    // each forms its own batch: request index 2 is the victim.
    let faults = Arc::new(FaultPlan::parse("worker_panic=3").expect("plan"));
    let registry = Registry::from_models(vec![("knn".into(), Box::new(fitted_knn(&data)))]);
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                max_batch: 16,
                max_wait: Duration::from_micros(100),
                queue_cap: 64,
                workers: 1,
                threads: Some(1),
                restart_backoff: Duration::from_millis(10),
                faults: Some(faults),
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server start");
    let addr = server.addr();

    // (a) Only the batch the panic hit fails; every other request matches
    // the offline reference bit for bit. Each request uses a fresh
    // connection: the victim's handler answers 500 and may drop the line.
    let mut failures = Vec::new();
    for (i, observation) in observations.iter().take(8).enumerate() {
        let body = codec::localize_request_body(Some("knn"), std::slice::from_ref(observation));
        let stream = TcpStream::connect(addr).expect("connect");
        let mut conn = Conn::new(&stream);
        let response = post_localize(&mut conn, &stream, body.as_bytes());
        if response.status == 200 {
            let predictions = codec::parse_predictions(&response.body).expect("parse");
            assert_eq!(
                predictions,
                vec![expected[i]],
                "request {i} diverged from the offline reference"
            );
        } else {
            assert_eq!(response.status, 500, "request {i}");
            failures.push(i);
        }
        // Give the supervisor time to restart the worker after the victim,
        // so later requests are served rather than queued into a 500.
        if !failures.is_empty() && failures.len() == 1 && i == failures[0] {
            await_healthy(addr, 1, Duration::from_secs(10));
        }
    }
    assert_eq!(
        failures,
        vec![2],
        "exactly the batch the panic hit must fail"
    );

    // (b) The supervisor restarted the worker, visibly.
    let metrics = server.metrics().snapshot_json();
    assert_eq!(
        metrics.get("worker_restarts").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(
        metrics.get("live_workers").and_then(Json::as_usize),
        Some(1)
    );

    // (c) Healthy again, and a post-recovery bulk pass over every
    // observation is bit-identical to the offline reference.
    await_healthy(addr, 1, Duration::from_secs(10));
    let body = codec::localize_request_body(Some("knn"), &observations);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, body.as_bytes());
    assert_eq!(response.status, 200);
    let predictions = codec::parse_predictions(&response.body).expect("parse");
    assert_eq!(
        predictions, expected,
        "post-recovery predictions must be bit-identical"
    );
}

/// The same fault under concurrent load: eight closed-loop clients against
/// one worker that panics on its 25th batch. Every request gets exactly one
/// typed outcome, nobody is left waiting, the worker comes back, and the
/// server still drains.
#[test]
fn a_worker_panic_under_concurrent_load_strands_no_client() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 40;
    /// Far beyond the 500 ms deadline plus a restart: a read that takes
    /// this long is a stranded client.
    const STRANDED_AFTER: Duration = Duration::from_secs(20);

    let data = dataset();
    let chunks: Vec<&[FingerprintObservation]> = data.observations().chunks(4).collect();
    let offline = fitted_knn(&data);
    let expected: Vec<Vec<usize>> = chunks
        .iter()
        .map(|chunk| offline.localize_batch(chunk).expect("offline predictions"))
        .collect();

    let faults = Arc::new(FaultPlan::parse("worker_panic=25").expect("plan"));
    let registry = Registry::from_models(vec![("knn".into(), Box::new(fitted_knn(&data)))]);
    let mut server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                max_batch: 8,
                queue_cap: 32,
                workers: 1,
                threads: Some(1),
                restart_backoff: Duration::from_millis(10),
                faults: Some(faults),
                ..BatcherConfig::default()
            },
            default_deadline: Some(Duration::from_millis(500)),
        },
        registry,
    )
    .expect("server start");
    let addr = server.addr();

    // Each client returns the statuses it saw; a fresh connection per
    // request, because a 500's handler may drop the line.
    let statuses: Vec<Vec<u16>> = std::thread::scope(|scope| {
        let (chunks, expected) = (&chunks, &expected);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    (0..REQUESTS_PER_CLIENT)
                        .map(|request| {
                            let chunk = (client + request * CLIENTS) % chunks.len();
                            let body = codec::localize_request_body(Some("knn"), chunks[chunk]);
                            let stream = TcpStream::connect(addr).expect("connect");
                            stream.set_read_timeout(Some(STRANDED_AFTER)).unwrap();
                            let mut conn = Conn::new(&stream);
                            let response = post_localize(&mut conn, &stream, body.as_bytes());
                            match response.status {
                                200 => assert_eq!(
                                    codec::parse_predictions(&response.body).expect("parse"),
                                    expected[chunk],
                                    "client {client} request {request} diverged from offline"
                                ),
                                // Shed by the queue bound or the deadline:
                                // back off as a real client would.
                                503 | 504 => std::thread::sleep(Duration::from_millis(2)),
                                500 => {}
                                other => panic!("client {client} request {request}: {other}"),
                            }
                            response.status
                        })
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client panicked or was stranded"))
            .collect()
    });
    let count = |status: u16| statuses.iter().flatten().filter(|s| **s == status).count();
    assert!(count(500) >= 1, "the panicking batch must fail its jobs");
    assert!(count(200) >= 1, "requests after the restart must be served");

    let restarts = server.metrics().snapshot_json();
    let restarts = restarts.get("worker_restarts").and_then(Json::as_usize);
    assert!(restarts >= Some(1), "worker_restarts = {restarts:?}");
    await_healthy(addr, 1, Duration::from_secs(10));

    let body = codec::localize_request_body(Some("knn"), data.observations());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, body.as_bytes());
    assert_eq!(response.status, 200);
    assert_eq!(
        codec::parse_predictions(&response.body).expect("parse"),
        expected.concat(),
        "post-recovery predictions must be bit-identical"
    );
    assert!(
        server.drain(Duration::from_secs(30)),
        "the recovered server must still drain"
    );
}

/// A localizer that panics on every call — the "poisoned model" case.
struct PanickingLocalizer;

impl Localizer for PanickingLocalizer {
    fn name(&self) -> &str {
        "Boom"
    }
    fn fit(&mut self, _: &FingerprintDataset) -> VitalResult<()> {
        Ok(())
    }
    fn localize_batch(&self, _: &[FingerprintObservation]) -> VitalResult<Vec<usize>> {
        std::panic::panic_any("model blew up".to_string())
    }
}

/// A panicking *model* is contained by `catch_unwind`: its batch fails
/// with typed 500s, but the worker survives (no restart) and keeps
/// serving the healthy model.
#[test]
fn a_panicking_model_fails_its_batch_without_costing_the_worker() {
    let data = dataset();
    let registry = Registry::from_models(vec![
        ("boom".into(), Box::new(PanickingLocalizer) as _),
        ("knn".into(), Box::new(fitted_knn(&data)) as _),
    ]);
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server start");
    let addr = server.addr();
    let observation = &data.observations()[0];

    let boom_body = codec::localize_request_body(Some("boom"), std::slice::from_ref(observation));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, boom_body.as_bytes());
    assert_eq!(response.status, 500);
    let doc = jsonio::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    let message = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        message.contains("panicked") && message.contains("model blew up"),
        "the 500 must carry the panic context, got: {message}"
    );

    // Same worker, healthy model, immediately afterwards.
    let knn_body = codec::localize_request_body(Some("knn"), std::slice::from_ref(observation));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, knn_body.as_bytes());
    assert_eq!(response.status, 200);

    let metrics = server.metrics().snapshot_json();
    assert!(metrics.get("jobs_failed").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(
        metrics.get("worker_restarts").and_then(Json::as_usize),
        Some(0),
        "a caught model panic must not cost a worker restart"
    );
    assert_eq!(get(addr, "/healthz").status, 200);
}

/// Latency injection stalls only the named model's dispatches.
#[test]
fn injected_latency_delays_the_named_model() {
    let data = dataset();
    let faults = Arc::new(FaultPlan::parse("latency=knn:80:1").expect("plan"));
    let registry = Registry::from_models(vec![("knn".into(), Box::new(fitted_knn(&data)))]);
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                workers: 1,
                threads: Some(1),
                faults: Some(faults),
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server start");
    let addr = server.addr();

    let observation = &data.observations()[0];
    let body = codec::localize_request_body(Some("knn"), std::slice::from_ref(observation));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let started = Instant::now();
    let response = post_localize(&mut conn, &stream, body.as_bytes());
    let elapsed = started.elapsed();
    assert_eq!(response.status, 200);
    assert!(
        elapsed >= Duration::from_millis(80),
        "latency fault did not stall the dispatch (took {elapsed:?})"
    );
}

/// A corrupt checkpoint degrades that one model: the registry still loads
/// the healthy one, `/v1/models` reports both with statuses, `/healthz`
/// says `degraded`, and the healthy model serves.
#[test]
fn a_corrupt_checkpoint_degrades_one_model_not_the_boot() {
    let data = dataset();
    let knn = fitted_knn(&data);

    // Two identical checkpoints on disk; the fault plan corrupts only
    // `bad` at load time.
    let dir = std::env::temp_dir().join(format!(
        "vital-chaos-ckpt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    knn.save(&dir.join("good.vckpt")).expect("save good");
    knn.save(&dir.join("bad.vckpt")).expect("save bad");

    let faults = FaultPlan::parse("corrupt=bad").expect("plan");
    let registry =
        Registry::from_checkpoint_dir_with_faults(&dir, Some(&faults)).expect("degraded boot");
    assert_eq!(registry.len(), 1, "only the healthy checkpoint loads");
    assert_eq!(registry.degraded().len(), 1);
    assert_eq!(registry.degraded()[0].0, "bad");
    assert!(
        registry.degraded()[0].1.contains("fault injection"),
        "the degradation reason must name the injected corruption: {}",
        registry.degraded()[0].1
    );

    // Control: without the plan both checkpoints load — the corruption is
    // injected, not on disk.
    let clean = Registry::from_checkpoint_dir(&dir).expect("clean boot");
    assert_eq!(clean.len(), 2);
    assert!(clean.degraded().is_empty());

    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                workers: 1,
                threads: Some(1),
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server start");
    let addr = server.addr();

    // /v1/models lists the degraded model alongside the healthy one.
    let models = get(addr, "/v1/models");
    let doc = jsonio::parse(std::str::from_utf8(&models.body).unwrap()).unwrap();
    let listed = doc.get("models").and_then(Json::as_array).unwrap().to_vec();
    assert_eq!(listed.len(), 2);
    let status_of = |name: &str| {
        listed
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|m| m.get("status").and_then(Json::as_str))
            .map(String::from)
    };
    assert_eq!(status_of("good").as_deref(), Some("ok"));
    assert_eq!(status_of("bad").as_deref(), Some("degraded"));

    // /healthz serves 200 but reports the degradation.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let health_json = jsonio::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
    assert_eq!(
        health_json.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    assert_eq!(
        health_json.get("degraded_models").and_then(Json::as_usize),
        Some(1)
    );

    // The healthy model still localizes.
    let observation = &data.observations()[0];
    let body = codec::localize_request_body(Some("good"), std::slice::from_ref(observation));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    assert_eq!(
        post_localize(&mut conn, &stream, body.as_bytes()).status,
        200
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
