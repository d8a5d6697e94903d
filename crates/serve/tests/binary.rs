//! The shipped `vital-serve` binary, started as a process: argument wiring,
//! the checkpoint-directory registry, answers bit-identical to offline for
//! a baseline and for the paper's model — trained and saved by this
//! process, reloaded and served by another — the SIGTERM drain, and the
//! refusals to boot on a `VITAL_SIMD` that names no dispatch level, on a
//! hold as long as the reply backstop and on a flag it does not know.

#![cfg(unix)]
// The wait for the child's exit is paced with real sleeps — exempt from the
// workspace ban on blocking sleeps in request handling.
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use baselines::{FeatureMode, KnnLocalizer};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use serve::codec;
use serve::http::{self, Conn, Method, Response};
use sim_radio::building_1;
use vital::{Localizer, VitalConfig, VitalModel};

/// How long the drained process may take to exit after SIGTERM.
const EXIT_WAIT: Duration = Duration::from_secs(30);

fn request(addr: &str, method: Method, target: &str, body: &[u8]) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let headers = [("content-type", "application/json")];
    http::write_request(&mut (&stream), method, target, &headers, body).expect("send");
    Conn::new(&stream).read_response().expect("response")
}

#[test]
fn the_binary_serves_bit_identical_answers_and_drains_on_sigterm() {
    let data = FingerprintDataset::collect(
        &building_1(),
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 1234,
        },
    );
    let mut knn = KnnLocalizer::new(3, FeatureMode::Ssd);
    knn.fit(&data).expect("fit KNN");
    // The tiny configuration `baselines/tests/training_bits.rs` pins.
    let mut config = VitalConfig::fast(data.num_aps(), data.num_rps());
    config.image_size = 16;
    config.patch_size = 4;
    config.d_model = 24;
    config.train.epochs = 2;
    config.train.batch_size = 8;
    let mut vital = VitalModel::new(config).expect("valid config");
    vital.fit(&data).expect("fit VITAL");

    let dir = std::env::temp_dir().join(format!("vital-serve-binary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    knn.save(&dir.join("knn.vckpt")).expect("save checkpoint");
    vital
        .save(&dir.join("vital.vckpt"))
        .expect("save checkpoint");

    let mut child = Command::new(env!("CARGO_BIN_EXE_vital-serve"))
        .arg("--checkpoint-dir")
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start vital-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read the banner");
    let addr = banner
        .strip_prefix("vital-serve listening on http://")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listening line, got {banner:?}"))
        .to_string();
    assert!(banner.contains("workers=2 "), "{banner}");
    // Work-conserving by default: no hold unless asked for.
    assert!(banner.contains("max_wait_us=0 "), "{banner}");
    // The child inherits this process's environment and CPU, so its level.
    let simd = format!("simd={}", simd::active_level().name());
    assert!(banner.contains(&simd), "{banner}");

    assert_eq!(request(&addr, Method::Get, "/healthz", b"").status, 200);
    let models: [(&str, &dyn Localizer); 2] = [("knn", &knn), ("vital", &vital)];
    for (name, model) in models {
        let expected = model.localize_batch(data.observations()).expect("offline");
        let body = codec::localize_request_body(Some(name), data.observations());
        let response = request(&addr, Method::Post, "/v1/localize", body.as_bytes());
        assert_eq!(response.status, 200, "{name}");
        assert_eq!(
            codec::parse_predictions(&response.body).expect("parse"),
            expected,
            "the binary's {name} answers must be bit-identical to offline localize_batch"
        );
    }

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let give_up = Instant::now() + EXIT_WAIT;
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for vital-serve") {
            break status;
        }
        if Instant::now() >= give_up {
            let _ = child.kill();
            panic!("vital-serve still running {EXIT_WAIT:?} after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut out, mut err) = (String::new(), String::new());
    stdout.read_to_string(&mut out).expect("rest of stdout");
    let mut stderr = child.stderr.take().expect("piped stderr");
    stderr.read_to_string(&mut err).expect("stderr");
    assert!(status.success(), "exit {status}; stderr: {err}");
    assert!(err.contains("signal received"), "stderr: {err}");
    assert!(out.contains("vital-serve: stopped"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts `vital-serve` on `dir` with `args` and `env`, expecting it to
/// refuse to boot: waits up to [`EXIT_WAIT`] for it to exit (killing it and
/// failing past that) and returns its status, stdout and stderr.
fn refused_boot(
    dir: &std::path::Path,
    args: &[&str],
    env: &[(&str, &str)],
) -> (std::process::ExitStatus, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vital-serve"))
        .arg("--checkpoint-dir")
        .arg(dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start vital-serve");
    let give_up = Instant::now() + EXIT_WAIT;
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for vital-serve") {
            break status;
        }
        if Instant::now() >= give_up {
            let _ = child.kill();
            panic!("vital-serve {args:?} {env:?} still running after {EXIT_WAIT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut out, mut err) = (String::new(), String::new());
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_to_string(&mut out).expect("stdout");
    let mut stderr = child.stderr.take().expect("piped stderr");
    stderr.read_to_string(&mut err).expect("stderr");
    (status, out, err)
}

#[test]
fn an_unknown_vital_simd_stops_the_boot_and_names_the_value() {
    let dir = std::env::temp_dir().join(format!("vital-serve-simd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let (status, out, err) = refused_boot(&dir, &[], &[("VITAL_SIMD", "avx9")]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!status.success(), "exit {status}");
    assert!(err.contains(r#"VITAL_SIMD="avx9""#), "stderr: {err}");
    assert!(!out.contains("listening"), "stdout: {out}");
}

#[test]
fn a_hold_as_long_as_the_reply_backstop_stops_the_boot() {
    let data = FingerprintDataset::collect(
        &building_1(),
        &base_devices()[..1],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 1,
            seed: 99,
        },
    );
    let mut knn = KnnLocalizer::new(1, FeatureMode::Ssd);
    knn.fit(&data).expect("fit KNN");
    let dir = std::env::temp_dir().join(format!("vital-serve-hold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    knn.save(&dir.join("knn.vckpt")).expect("save checkpoint");
    let (status, out, err) = refused_boot(&dir, &["--max-wait-us", "120000000"], &[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("max_wait 120000000 us"), "stderr: {err}");
    assert!(
        err.contains("120000000 us a handler waits"),
        "stderr: {err}"
    );
    assert!(!out.contains("listening"), "stdout: {out}");
}

#[test]
fn a_retired_threads_flag_stops_the_boot_and_names_the_flag() {
    // Parsing fails before the directory is read, so it need not exist.
    let dir = std::env::temp_dir().join(format!("vital-serve-flags-{}", std::process::id()));
    let (status, out, err) = refused_boot(&dir, &["--threads", "1"], &[]);
    assert!(!status.success(), "exit {status}");
    assert!(err.contains("unknown flag --threads"), "stderr: {err}");
    assert!(!out.contains("listening"), "stdout: {out}");
}
