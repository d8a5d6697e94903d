//! Chaos tests: deterministic faults against a real server.
//!
//! The acceptance story for the fault-tolerance work: inject a worker
//! panic mid-load and assert (a) only that batch's jobs fail, with a `500`
//! naming the panic, (b) `/healthz` answers `200 ok` with every worker
//! live straight afterwards — the worker never died — and (c) later
//! responses are **bit-identical** to the offline reference. The other
//! faults come from the tests themselves: a panicking *model* is contained
//! to its batch without costing the worker, and checkpoint files damaged on
//! disk degrade their own models instead of the whole boot.

// Chaos tests pace polls against a live server with real sleeps — exempt
// from the workspace ban on blocking sleeps in request handling.
#![allow(clippy::disallowed_methods)]

use std::net::TcpStream;
use std::num::NonZeroU64;
use std::sync::Arc;
use std::time::Duration;

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

/// Asserts `/healthz` answers `200 ok` with all `workers` live, at once:
/// there is no restart to wait for.
fn assert_healthy(addr: std::net::SocketAddr, workers: usize) {
    let health = get(addr, "/healthz");
    let body = String::from_utf8_lossy(&health.body).into_owned();
    assert_eq!(health.status, 200, "/healthz: {body}");
    let doc = jsonio::parse(&body).unwrap();
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("ok"),
        "{body}"
    );
    assert_eq!(
        doc.get("live_workers").and_then(Json::as_usize),
        Some(workers),
        "{body}"
    );
}

/// The `error` text of a JSON error response.
fn error_message(response: &Response) -> String {
    let doc = jsonio::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    doc.get("error")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The headline acceptance test: a worker panic injected mid-load fails
/// exactly the batch it hit with a `500` naming the panic, the worker
/// serves on without a restart, and every other answer is bit-identical
/// to offline.
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
    let faults = Arc::new(FaultPlan::worker_panic(NonZeroU64::new(3).unwrap()));
    let registry = Registry::from_models(vec![("knn".into(), Box::new(fitted_knn(&data)))]);
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                max_batch: 16,
                max_wait: Duration::from_micros(100),
                queue_cap: 64,
                workers: 1,
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
            let message = error_message(&response);
            assert!(
                message.contains("worker_panic on batch 3"),
                "the 500 must name the injected panic, got: {message}"
            );
            failures.push(i);
            // (b) Straight after the victim the one worker is still live.
            assert_healthy(addr, 1);
        }
    }
    assert_eq!(
        failures,
        vec![2],
        "exactly the batch the panic hit must fail"
    );
    let metrics = server.metrics().snapshot_json();
    assert_eq!(metrics.get("jobs_failed").and_then(Json::as_usize), Some(1));

    // (c) A bulk pass over every observation is bit-identical to the
    // offline reference.
    let body = codec::localize_request_body(Some("knn"), &observations);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, body.as_bytes());
    assert_eq!(response.status, 200);
    let predictions = codec::parse_predictions(&response.body).expect("parse");
    assert_eq!(
        predictions, expected,
        "predictions after the panic must be bit-identical"
    );
}

/// The same fault under concurrent load: eight closed-loop clients against
/// one worker that panics on its 25th batch. Every request gets exactly one
/// typed outcome, nobody is left waiting, the worker serves on, and the
/// server still drains.
#[test]
fn a_worker_panic_under_concurrent_load_strands_no_client() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 40;
    /// Far beyond the 500 ms deadline: a read that takes this long is a
    /// stranded client.
    const STRANDED_AFTER: Duration = Duration::from_secs(20);

    let data = dataset();
    let chunks: Vec<&[FingerprintObservation]> = data.observations().chunks(4).collect();
    let offline = fitted_knn(&data);
    let expected: Vec<Vec<usize>> = chunks
        .iter()
        .map(|chunk| offline.localize_batch(chunk).expect("offline predictions"))
        .collect();

    let faults = Arc::new(FaultPlan::worker_panic(NonZeroU64::new(25).unwrap()));
    let registry = Registry::from_models(vec![("knn".into(), Box::new(fitted_knn(&data)))]);
    let mut server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                max_batch: 8,
                queue_cap: 32,
                workers: 1,
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
                                500 => {
                                    let message = error_message(&response);
                                    assert!(
                                        message.contains("worker_panic on batch 25"),
                                        "client {client} request {request}: a 500 must name \
                                         the injected panic, got: {message}"
                                    );
                                    // The victim's worker is live straight away.
                                    assert_healthy(addr, 1);
                                }
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
    assert!(count(200) >= 1, "requests after the panic must be served");

    let body = codec::localize_request_body(Some("knn"), data.observations());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, body.as_bytes());
    assert_eq!(response.status, 200);
    assert_eq!(
        codec::parse_predictions(&response.body).expect("parse"),
        expected.concat(),
        "predictions after the panic must be bit-identical"
    );
    assert!(
        server.drain(Duration::from_secs(30)),
        "the server must still drain"
    );
}

/// A localizer that panics on every call — the "poisoned model" case.
struct PanickingLocalizer;

impl Localizer for PanickingLocalizer {
    fn name(&self) -> &str {
        "Boom"
    }
    fn num_aps(&self) -> usize {
        building_1().access_points().len()
    }
    fn fit(&mut self, _: &FingerprintDataset) -> VitalResult<()> {
        Ok(())
    }
    fn localize_batch(&self, _: &[FingerprintObservation]) -> VitalResult<Vec<usize>> {
        std::panic::panic_any("model blew up".to_string())
    }
}

/// A panicking *model* is contained by `catch_unwind`: its batch fails
/// with typed 500s, but the worker survives and keeps serving the healthy
/// model.
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
    assert_healthy(addr, 1);
}

/// Each corrupt checkpoint degrades its own model: a flipped magic byte
/// and a truncated payload each fail with their typed reason, the registry
/// still loads the healthy one, `/v1/models` reports all three with
/// statuses, `/healthz` says `degraded`, and the healthy model serves.
#[test]
fn a_corrupt_checkpoint_degrades_one_model_not_the_boot() {
    let data = dataset();
    let knn = fitted_knn(&data);

    // Three identical checkpoints on disk, two of them then damaged.
    let dir = std::env::temp_dir().join(format!(
        "vital-chaos-ckpt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    for name in ["good", "bad_magic", "truncated"] {
        knn.save(&dir.join(format!("{name}.vckpt")))
            .expect("save checkpoint");
    }
    let mut bytes = std::fs::read(dir.join("bad_magic.vckpt")).expect("read bad_magic");
    bytes[0] ^= 0xAA;
    std::fs::write(dir.join("bad_magic.vckpt"), &bytes).expect("write bad_magic");
    let bytes = std::fs::read(dir.join("truncated.vckpt")).expect("read truncated");
    std::fs::write(dir.join("truncated.vckpt"), &bytes[..bytes.len() / 2])
        .expect("write truncated");

    let registry = Registry::from_checkpoint_dir(&dir).expect("degraded boot");
    assert_eq!(registry.len(), 1, "only the healthy checkpoint loads");
    let [(magic_name, magic_error), (truncated_name, truncated_error)] = registry.degraded() else {
        panic!("two degraded models, got {:?}", registry.degraded());
    };
    assert_eq!(magic_name, "bad_magic");
    assert!(
        magic_error.contains("cannot parse checkpoint") && magic_error.contains("bad magic"),
        "the flipped magic byte must be named: {magic_error}"
    );
    assert_eq!(truncated_name, "truncated");
    assert!(
        truncated_error.contains("cannot parse checkpoint")
            && truncated_error.contains("corrupt checkpoint payload"),
        "the truncated payload must be named: {truncated_error}"
    );

    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                workers: 1,
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
    assert_eq!(listed.len(), 3);
    let status_of = |name: &str| {
        listed
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|m| m.get("status").and_then(Json::as_str))
            .map(String::from)
    };
    assert_eq!(status_of("good").as_deref(), Some("ok"));
    assert_eq!(status_of("bad_magic").as_deref(), Some("degraded"));
    assert_eq!(status_of("truncated").as_deref(), Some("degraded"));

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
        Some(2)
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

/// An ANVIL checkpoint written before ANVIL stored its access-point count
/// fails to load with the typed missing-entry error; in a checkpoint
/// directory that degrades only that model, and the boot goes on.
#[test]
fn an_anvil_checkpoint_without_its_access_point_count_degrades_only_itself() {
    let data = dataset();
    let dir = std::env::temp_dir().join(format!(
        "vital-chaos-anvil-v1-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    fitted_knn(&data)
        .save(&dir.join("knn.vckpt"))
        .expect("save knn");
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../baselines/tests/data/anvil_v1.vckpt");
    std::fs::copy(fixture, dir.join("anvil.vckpt")).expect("copy the v1 ANVIL fixture");

    let registry = Registry::from_checkpoint_dir(&dir).expect("degraded boot");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(registry.len(), 1, "the KNN checkpoint still loads");
    assert_eq!(registry.catalog()[0].0, "knn");
    let [(name, error)] = registry.degraded() else {
        panic!("one degraded model, got {:?}", registry.degraded());
    };
    assert_eq!(name, "anvil");
    assert!(
        error.contains("missing entry \"num_aps\""),
        "the degradation must name the missing entry: {error}"
    );
}
