//! End-to-end tests over real sockets: a server on an ephemeral port,
//! concurrent bulk requests over keep-alive connections, and the headline
//! guarantee — responses produced through the micro-batching scheduler are
//! **bit-identical** to an offline `localize_batch` call on the same
//! observations, with four workers sharing the same weights. Plus
//! multi-worker metrics semantics, the error surface of the HTTP API, the
//! input contract of every kind, and the lifecycle. None of them sleeps:
//! what depends on timing (coalescing, a full queue, stale deadlines, the
//! drain's refusals) is checked in virtual time by the crate's simulator.

use std::net::TcpStream;
use std::time::Duration;

use baselines::{
    AnvilLocalizer, CnnLocLocalizer, FeatureMode, KnnLocalizer, SherpaLocalizer, WiDeepLocalizer,
};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset, FingerprintObservation};
use jsonio::Json;
use serve::codec;
use serve::http::{self, Conn, Method, Response};
use serve::{BatcherConfig, Registry, Server, ServerConfig};
use sim_radio::building_1;
use vital::{Localizer, VitalConfig, VitalModel};

/// Small deterministic dataset (seed-fixed): training and query sets for
/// the KNN model both server and offline reference are built from.
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

/// A fitted KNN localizer — deterministic, so building it twice (once for
/// the server, once offline) yields the same model.
fn fitted_knn(data: &FingerprintDataset) -> KnnLocalizer {
    let mut knn = KnnLocalizer::new(3, FeatureMode::Ssd);
    knn.fit(data).expect("fit KNN");
    knn
}

/// The registry is built on the *test* (main) thread — localizers are
/// `Send + Sync`, so it moves straight into the server and is shared by
/// every dispatch worker.
fn knn_server(batcher: BatcherConfig) -> Server {
    let registry = Registry::from_models(vec![("knn".into(), Box::new(fitted_knn(&dataset())))]);
    Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher,
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server start")
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

/// Fires `CLIENTS` concurrent keep-alive clients at the server, covering
/// every observation in disjoint bulk slices, and asserts each response is
/// bit-identical to the offline reference. Returns the total observations
/// served.
fn assert_concurrent_bit_exactness(
    addr: std::net::SocketAddr,
    observations: &[FingerprintObservation],
    expected: &[usize],
    clients: usize,
    bulk: usize,
) {
    let results: Vec<(usize, Vec<usize>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..clients {
            handles.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut conn = Conn::new(&stream);
                let mut got = Vec::new();
                let mut start = client * bulk;
                while start < observations.len() {
                    let end = (start + bulk).min(observations.len());
                    let body = codec::localize_request_body(None, &observations[start..end]);
                    let response = post_localize(&mut conn, &stream, body.as_bytes());
                    assert_eq!(
                        response.status,
                        200,
                        "body: {}",
                        String::from_utf8_lossy(&response.body)
                    );
                    let predictions =
                        codec::parse_predictions(&response.body).expect("parse predictions");
                    got.push((start, predictions));
                    start += clients * bulk;
                }
                got
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Every slice, from every client, matches the offline reference
    // exactly.
    let mut covered = 0;
    for (start, predictions) in results {
        assert_eq!(
            predictions,
            expected[start..start + predictions.len()].to_vec(),
            "server diverged from offline localize_batch at offset {start}"
        );
        covered += predictions.len();
    }
    assert_eq!(covered, observations.len(), "every observation was served");
}

#[test]
fn four_workers_serve_bit_identical_predictions_from_shared_weights() {
    // The concurrency-determinism guarantee of the `--workers` refactor:
    // the same observations, dispatched concurrently from many client
    // threads against 4 dispatch workers sharing ONE model, yield
    // predictions bit-identical to a sequential offline `localize_batch`.
    let data = dataset();
    let observations: Vec<FingerprintObservation> = data.observations().to_vec();
    let offline = fitted_knn(&data);
    let expected = offline
        .localize_batch(&observations)
        .expect("offline predictions");

    let server = knn_server(BatcherConfig {
        max_batch: 16,
        // A short window keeps several batches in flight at once, so the
        // four workers genuinely overlap.
        max_wait: Duration::from_micros(500),
        queue_cap: 256,
        workers: 4,
        ..BatcherConfig::default()
    });

    // Two passes over the data from 8 concurrent clients: plenty of
    // opportunity for worker interleaving to corrupt results if weights
    // were not safely shared.
    for _ in 0..2 {
        assert_concurrent_bit_exactness(server.addr(), &observations, &expected, 8, 3);
    }

    // Multi-worker metrics semantics: the snapshot reports all 4 workers,
    // the per-worker dispatch counters account for every recorded batch,
    // and the drained queue reads depth 0 (global, not per worker).
    let metrics = server.metrics().snapshot_json();
    assert_eq!(metrics.get("workers").and_then(Json::as_usize), Some(4));
    let per_worker: Vec<u64> = metrics
        .get("batches_dispatched")
        .and_then(Json::as_array)
        .expect("batches_dispatched array")
        .iter()
        .map(|c| c.as_f64().expect("numeric counter") as u64)
        .collect();
    assert_eq!(per_worker.len(), 4);
    let hist_total: u64 = metrics
        .get("batch_size_hist")
        .and_then(Json::as_array)
        .expect("batch histogram")
        .iter()
        .filter_map(|b| b.get("count").and_then(Json::as_usize))
        .map(|c| c as u64)
        .sum();
    assert_eq!(
        per_worker.iter().sum::<u64>(),
        hist_total,
        "per-worker dispatch counters must account for every batch"
    );
    assert!(hist_total > 0, "no batches recorded");
    assert_eq!(metrics.get("queue_depth").and_then(Json::as_usize), Some(0));
}

#[test]
fn single_and_bulk_forms_round_trip_and_models_are_listed() {
    let data = dataset();
    let offline = fitted_knn(&data);
    let server = knn_server(BatcherConfig {
        ..BatcherConfig::default()
    });
    let addr = server.addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let health_json = jsonio::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
    assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));

    let models = get(addr, "/v1/models");
    let models_json = jsonio::parse(std::str::from_utf8(&models.body).unwrap()).unwrap();
    let listed = models_json.get("models").and_then(Json::as_array).unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("name").and_then(Json::as_str), Some("knn"));
    // `Registry::from_models` advertises each model's `Localizer::name` as
    // its kind (checkpoint-dir loads advertise the envelope's kind string).
    assert_eq!(
        listed[0].get("kind").and_then(Json::as_str),
        Some("KNN-SSD")
    );
    // The input contract a client must meet: each observation carries the
    // survey's access points.
    assert_eq!(
        listed[0].get("num_aps").and_then(Json::as_usize),
        Some(data.num_aps())
    );

    // Single-observation form (named model) matches offline predict.
    let observation = &data.observations()[7];
    let expected = offline.predict(observation).unwrap();
    let body = Json::obj([
        ("model", Json::from("knn")),
        ("observation", codec::observation_to_json(observation)),
    ])
    .to_json_string();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    let response = post_localize(&mut conn, &stream, body.as_bytes());
    assert_eq!(response.status, 200);
    let doc = jsonio::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("prediction").and_then(Json::as_usize),
        Some(expected)
    );
    assert_eq!(doc.get("model").and_then(Json::as_str), Some("knn"));

    // Error surface: unknown model → 404, malformed body → 400, wrong
    // route → 404, over the same keep-alive connection.
    let unknown = Json::obj([
        ("model", Json::from("nope")),
        ("observation", codec::observation_to_json(observation)),
    ])
    .to_json_string();
    let response = post_localize(&mut conn, &stream, unknown.as_bytes());
    assert_eq!(response.status, 404);
    let response = post_localize(&mut conn, &stream, b"{\"not\": \"valid\"}");
    assert_eq!(response.status, 400);
    http::write_request(&mut (&stream), Method::Get, "/nope", &[], b"").unwrap();
    assert_eq!(conn.read_response().unwrap().status, 404);

    // Metrics reflect what happened.
    let metrics = server.metrics().snapshot_json();
    assert!(metrics.get("requests_total").unwrap().as_f64().unwrap() >= 5.0);
    assert!(metrics.get("client_errors").unwrap().as_f64().unwrap() >= 2.0);
}

/// A survey small enough to fit every framework in a blink: building 1's
/// 18 access points, its first 10 reference points, two devices.
fn tiny_survey() -> FingerprintDataset {
    let dataset = FingerprintDataset::collect(
        &building_1(),
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 21,
        },
    );
    let subset: Vec<_> = dataset
        .observations()
        .iter()
        .filter(|o| o.rp_label < 10)
        .cloned()
        .collect();
    FingerprintDataset::from_observations(dataset.building(), dataset.num_aps(), 10, subset)
}

/// The six kinds, fitted on `survey` with a training budget of an epoch.
fn fitted_six(survey: &FingerprintDataset) -> Vec<(String, Box<dyn Localizer>)> {
    let mut config = VitalConfig::fast(survey.num_aps(), survey.num_rps());
    config.image_size = 16;
    config.patch_size = 4;
    config.d_model = 24;
    config.msa_heads = 4;
    config.train.epochs = 1;
    let mut six: Vec<(&str, Box<dyn Localizer>)> = vec![
        ("vital", Box::new(VitalModel::new(config).expect("config"))),
        ("knn", Box::new(KnnLocalizer::new(3, FeatureMode::Ssd))),
        ("sherpa", Box::new(SherpaLocalizer::new(5).with_epochs(1))),
        (
            "cnnloc",
            Box::new(
                CnnLocLocalizer::new(6)
                    .with_epochs(1)
                    .with_pretrain_epochs(1),
            ),
        ),
        (
            "wideep",
            Box::new(WiDeepLocalizer::new(7).with_pretrain_epochs(1)),
        ),
        ("anvil", Box::new(AnvilLocalizer::new(8).with_epochs(1))),
    ];
    for (_, model) in &mut six {
        model.fit(survey).expect("fit");
    }
    six.into_iter()
        .map(|(name, model)| (name.to_string(), model))
        .collect()
}

/// Sends `body` on a connection of its own.
fn post_alone(addr: std::net::SocketAddr, body: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    post_localize(&mut Conn::new(&stream), &stream, body.as_bytes())
}

#[test]
fn every_kind_refuses_another_access_point_count_before_it_queues() {
    let survey = tiny_survey();
    let aps = survey.num_aps();
    let well_formed = &survey.observations()[..4];
    let six = fitted_six(&survey);
    let expected: Vec<(String, Vec<usize>)> = six
        .iter()
        .map(|(name, model)| {
            let offline = model.localize_batch(well_formed).expect("offline");
            (name.clone(), offline)
        })
        .collect();
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                workers: 1,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        Registry::from_models(six),
    )
    .expect("server start");
    let addr = server.addr();
    let batch_sizes = || {
        server
            .metrics()
            .snapshot_json()
            .get("batch_size_hist")
            .cloned()
    };

    let mut refusals = 0;
    for (name, offline) in &expected {
        for width in [aps - 3, aps + 3] {
            let mut other = well_formed[0].clone();
            for channel in [&mut other.min, &mut other.max, &mut other.mean] {
                channel.resize(width, -100.0);
            }
            let refused_body = codec::localize_request_body(Some(name), &[other]);
            let assert_refused = |response: &Response| {
                assert_eq!(response.status, 400, "{name}, {width} APs");
                let doc = jsonio::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
                let reason = doc.get("error").and_then(Json::as_str).unwrap_or_default();
                assert!(
                    reason.contains(&format!("has {width} access points"))
                        && reason.contains(&format!("expects {aps}")),
                    "{name}: {reason}"
                );
            };

            // Alone: refused before it is queued, so no batch forms.
            let before = batch_sizes();
            assert_refused(&post_alone(addr, &refused_body));
            assert_eq!(batch_sizes(), before, "{name}: a refused request ran");

            // Beside a well-formed request, which is served as offline.
            let good_body = codec::localize_request_body(Some(name), well_formed);
            let bodies = [refused_body, good_body];
            let start = std::sync::Barrier::new(bodies.len());
            let [refused, served] = std::thread::scope(|scope| {
                let clients = bodies.each_ref().map(|body| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        post_alone(addr, body)
                    })
                });
                clients.map(|client| client.join().expect("client thread"))
            });
            assert_refused(&refused);
            refusals += 2;
            assert_eq!(served.status, 200, "{name}");
            assert_eq!(
                &codec::parse_predictions(&served.body).expect("parse"),
                offline,
                "{name}: served diverged from offline localize_batch"
            );
        }
    }

    // Only well-formed observations were ever dispatched, and a refusal is
    // the client's error, not a model fault.
    let metrics = server.metrics().snapshot_json();
    let dispatched: usize = metrics
        .get("batch_size_hist")
        .and_then(Json::as_array)
        .expect("batch histogram")
        .iter()
        .map(|b| {
            let size = b.get("size").and_then(Json::as_usize).unwrap();
            size * b.get("count").and_then(Json::as_usize).unwrap()
        })
        .sum();
    assert_eq!(dispatched, expected.len() * 2 * well_formed.len());
    let counter = |name: &str| metrics.get(name).and_then(Json::as_usize);
    assert_eq!(counter("client_errors"), Some(refusals));
    assert_eq!(counter("jobs_failed"), Some(0));
    assert_eq!(counter("server_errors"), Some(0));
}

#[test]
fn shutdown_is_idempotent_and_frees_the_port() {
    let mut server = knn_server(BatcherConfig {
        ..BatcherConfig::default()
    });
    let addr = server.addr();
    assert_eq!(get(addr, "/healthz").status, 200);
    server.shutdown();
    server.shutdown(); // second call is a no-op
    drop(server); // Drop after explicit shutdown must not hang or panic
}

#[test]
fn admin_drain_completes_queued_work_then_stops_accepting() {
    // The shell's half of the drain. Over a real socket, `POST
    // /admin/drain` to an idle server answers 202 and stops the accept
    // loop, so `join` returns. What the drain completes and refuses is
    // checked by the simulator's
    // `admin_drain_completes_queued_work_then_refuses_new_work`.
    let server = knn_server(BatcherConfig::default());
    let stream = TcpStream::connect(server.addr()).expect("connect");
    http::write_request(&mut (&stream), Method::Post, "/admin/drain", &[], b"").expect("send");
    let response = Conn::new(&stream).read_response().expect("response");
    assert_eq!(response.status, 202);
    let doc = jsonio::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("draining"));
    server.join();
}

#[test]
fn drain_api_finishes_queued_jobs_and_joins_every_thread() {
    let mut server = knn_server(BatcherConfig {
        workers: 2,
        ..BatcherConfig::default()
    });
    let addr = server.addr();
    let data = dataset();
    let observation = &data.observations()[0];
    let body = codec::localize_request_body(Some("knn"), std::slice::from_ref(observation));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut conn = Conn::new(&stream);
    assert_eq!(
        post_localize(&mut conn, &stream, body.as_bytes()).status,
        200
    );

    assert!(
        server.drain(Duration::from_secs(5)),
        "an idle server must drain within the grace period"
    );
    assert!(TcpStream::connect(addr).is_err(), "port must be released");
    let metrics = server.metrics().snapshot_json();
    assert_eq!(metrics.get("queue_depth").and_then(Json::as_usize), Some(0));
    assert_eq!(
        metrics.get("live_workers").and_then(Json::as_usize),
        Some(0),
        "drain must join every dispatch worker"
    );
}
