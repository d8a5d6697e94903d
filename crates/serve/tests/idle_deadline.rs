//! An idle server meets a deadline shorter than any batching window: the
//! default batcher is work-conserving, so a lone request with
//! `"deadline_ms": 1` is taken by its worker at once and answered `200`.
//!
//! This is its own test binary on purpose. The deadline covers the
//! request's decode, its enqueue and the worker's wake-up; beside the
//! CPU-heavy cases of `server_integration.rs` on a 2-vCPU host, the
//! wake-up alone sometimes took longer than 1 ms.

use std::net::TcpStream;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use jsonio::Json;
use serve::codec;
use serve::http::{self, Conn, Method};
use serve::{BatcherConfig, Registry, Server, ServerConfig};
use vital::{Localizer, Result as VitalResult};

/// Predicts `round(-mean[0])`: an instant model, one access point wide.
struct EchoLocalizer;

impl Localizer for EchoLocalizer {
    fn name(&self) -> &str {
        "Echo"
    }
    fn num_aps(&self) -> usize {
        1
    }
    fn fit(&mut self, _: &FingerprintDataset) -> VitalResult<()> {
        Ok(())
    }
    fn localize_batch(&self, observations: &[FingerprintObservation]) -> VitalResult<Vec<usize>> {
        Ok(observations.iter().map(|o| (-o.mean[0]) as usize).collect())
    }
}

#[test]
fn an_idle_default_server_serves_a_one_millisecond_deadline() {
    let registry = Registry::from_models(vec![("echo".into(), Box::new(EchoLocalizer))]);
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig {
                threads: Some(1),
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server start");
    let observation = FingerprintObservation {
        rp_label: 0,
        device: String::new(),
        min: vec![-7.0],
        max: vec![-7.0],
        mean: vec![-7.0],
    };
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut conn = Conn::new(&stream);
    let mut localize = |deadline_ms| {
        let body = codec::localize_request_body_with_deadline(
            None,
            deadline_ms,
            std::slice::from_ref(&observation),
        );
        http::write_request(
            &mut (&stream),
            Method::Post,
            "/v1/localize",
            &[("content-type", "application/json")],
            body.as_bytes(),
        )
        .expect("send request");
        conn.read_response().expect("read response")
    };
    // A first request without a deadline warms the connection's handler
    // thread and the worker, so the timed one measures the batcher only.
    assert_eq!(localize(None).status, 200);
    let response = localize(Some(1));
    assert_eq!(
        response.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(
        codec::parse_predictions(&response.body).expect("parse predictions"),
        vec![7]
    );
    let metrics = server.metrics().snapshot_json();
    assert_eq!(
        metrics.get("jobs_expired").and_then(Json::as_usize),
        Some(0)
    );
}
