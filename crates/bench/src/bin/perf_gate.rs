//! CI performance-regression gate: compares freshly generated benchmark
//! reports against the committed thresholds in `ci/perf-thresholds.json`
//! and exits non-zero if any metric regressed below its floor.
//!
//! ```text
//! perf_gate [--perf BENCH_perf.json] [--thresholds ci/perf-thresholds.json]
//!           [--serve BENCH_serve.json] [--serve-only] [--chaos]
//! ```
//!
//! The compute floors (`gemm`, `vit`) are checked against `--perf` (from
//! the `perf_summary` binary). When `--serve` is given, the serving floors
//! are additionally checked against the `serve_loadgen` report; with
//! `--serve-only` the compute floors are skipped (the `serve-smoke` CI job
//! runs the load gate without regenerating the compute report). With
//! `--chaos`, the `--serve` report is a `serve_loadgen --chaos` run and is
//! held to the `chaos` recovery floors instead of the steady-state serving
//! floors: bounded time-to-recovery after the injected worker panic,
//! post-recovery throughput and p99, no stranded clients, a visible
//! supervisor restart, and a clean drain.
//!
//! Threshold schema:
//!
//! ```json
//! {
//!   "gemm":  [ {"m": 256, "min_dispatch_speedup": 1.8, "min_gflops": 12.0} ],
//!   "simd":  { "min_simd_speedup": 2.0,
//!              "kernels": [ {"kernel": "softmax", "min_gbps": 1.5} ] },
//!   "vit":   { "batch": 32, "min_speedup": 1.3, "require_agreement": true,
//!              "max_batch_ms_per_sample": 2.0,
//!              "max_allocs_per_request": 8, "min_alloc_reduction": 10,
//!              "min_fused_speedup": 0.7 },
//!   "serve": { "min_rps": 500, "max_p99_ms": 50, "max_errors": 0,
//!              "require_verified": true },
//!   "chaos": { "max_recovery_ms": 3000, "min_post_rps": 100,
//!              "max_p99_ms": 200, "max_stranded": 0,
//!              "min_worker_restarts": 1, "require_verified": true,
//!              "require_drained": true }
//! }
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use jsonio::{parse, Json};
use serve::cli;

struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, label: &str, actual: f64, floor: f64) {
        if actual >= floor {
            println!("PASS  {label}: {actual:.3} >= {floor:.3}");
        } else {
            println!("FAIL  {label}: {actual:.3} < {floor:.3}");
            self.failures
                .push(format!("{label}: {actual:.3} below floor {floor:.3}"));
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn num(json: &Json, context: &str, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{context} is missing numeric field {key:?}"))
}

/// Inverted check for "must not exceed" floors (error counts, p99 caps).
impl Gate {
    fn check_max(&mut self, label: &str, actual: f64, ceiling: f64) {
        if actual <= ceiling {
            println!("PASS  {label}: {actual:.3} <= {ceiling:.3}");
        } else {
            println!("FAIL  {label}: {actual:.3} > {ceiling:.3}");
            self.failures
                .push(format!("{label}: {actual:.3} above ceiling {ceiling:.3}"));
        }
    }

    fn require(&mut self, label: &str, ok: bool) {
        if ok {
            println!("PASS  {label}");
        } else {
            println!("FAIL  {label}");
            self.failures.push(label.to_string());
        }
    }
}

/// Checks the serving floors from a `serve_loadgen` report.
fn check_serve(gate: &mut Gate, serve: &Json, thresholds: &Json) -> Result<(), String> {
    let rps = num(serve, "serve report", "rps")?;
    gate.check(
        "serve sustained throughput (req/s)",
        rps,
        num(thresholds, "serve threshold", "min_rps")?,
    );
    let p99_ms = serve
        .get("latency_ms")
        .and_then(|l| l.get("p99"))
        .and_then(Json::as_f64)
        .ok_or("serve report is missing latency_ms.p99")?;
    gate.check_max(
        "serve p99 latency (ms)",
        p99_ms,
        num(thresholds, "serve threshold", "max_p99_ms")?,
    );
    gate.check_max(
        "serve error responses",
        num(serve, "serve report", "errors")?,
        thresholds
            .get("max_errors")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    let require_verified = thresholds
        .get("require_verified")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if require_verified {
        gate.require(
            "serve responses bit-identical to offline localize_batch",
            serve.get("verified").and_then(Json::as_bool) == Some(true),
        );
    }

    // Worker-scaling floor: the report's `worker_sweep` (from
    // `serve_loadgen --sweep-workers`) must show the 2-worker run
    // sustaining at least `min_worker_scaling` × the 1-worker throughput —
    // the regression guard for the shared-weight multi-worker dispatcher.
    if let Some(min_scaling) = thresholds.get("min_worker_scaling").and_then(Json::as_f64) {
        let sweep = serve
            .get("worker_sweep")
            .and_then(Json::as_array)
            .ok_or("serve report has no worker_sweep (run serve_loadgen with --sweep-workers)")?;
        let row_at = |workers: f64| {
            sweep
                .iter()
                .find(|r| r.get("workers").and_then(Json::as_f64) == Some(workers))
                .ok_or_else(|| format!("worker_sweep has no row for {workers} worker(s)"))
        };
        let one = num(row_at(1.0)?, "worker_sweep[workers=1]", "rps")?;
        let two = num(row_at(2.0)?, "worker_sweep[workers=2]", "rps")?;
        let scaling = if one > 0.0 { two / one } else { 0.0 };
        gate.check(
            "serve 2-worker vs 1-worker throughput scaling",
            scaling,
            min_scaling,
        );
        for row in sweep {
            let workers = num(row, "worker_sweep row", "workers")?;
            gate.check_max(
                &format!("serve sweep errors at {workers} worker(s)"),
                num(row, "worker_sweep row", "errors")?,
                thresholds
                    .get("max_errors")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            );
            if require_verified {
                gate.require(
                    &format!(
                        "serve sweep responses bit-identical to offline at {workers} worker(s)"
                    ),
                    row.get("verified").and_then(Json::as_bool) == Some(true),
                );
            }
        }
    }
    Ok(())
}

/// Checks the chaos-recovery floors from a `serve_loadgen --chaos` report.
fn check_chaos(gate: &mut Gate, report: &Json, thresholds: &Json) -> Result<(), String> {
    let chaos = report
        .get("chaos")
        .ok_or("chaos report has no chaos section (run serve_loadgen with --chaos)")?;
    // A null time_to_recovery means either no hard failure was observed
    // (the panic never fired — the experiment is broken) or no success
    // followed the outage (the server never recovered). Both must fail.
    let recovery_ms = chaos
        .get("time_to_recovery_ms")
        .and_then(Json::as_f64)
        .ok_or("chaos report has no measured time_to_recovery_ms — no outage or no recovery")?;
    gate.check_max(
        "chaos time to recovery (ms)",
        recovery_ms,
        num(thresholds, "chaos threshold", "max_recovery_ms")?,
    );
    gate.check(
        "chaos post-recovery throughput (req/s)",
        num(chaos, "chaos report", "post_recovery_rps")?,
        num(thresholds, "chaos threshold", "min_post_rps")?,
    );
    gate.check_max(
        "chaos post-recovery p99 latency (ms)",
        num(chaos, "chaos report", "post_recovery_p99_ms")?,
        num(thresholds, "chaos threshold", "max_p99_ms")?,
    );
    gate.check_max(
        "chaos stranded clients",
        num(chaos, "chaos report", "stranded")?,
        thresholds
            .get("max_stranded")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    gate.check(
        "chaos supervisor worker restarts",
        num(chaos, "chaos report", "worker_restarts")?,
        num(thresholds, "chaos threshold", "min_worker_restarts")?,
    );
    if thresholds
        .get("require_verified")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        gate.require(
            "chaos post-fault responses bit-identical to offline localize_batch",
            chaos.get("verified").and_then(Json::as_bool) == Some(true),
        );
    }
    if thresholds
        .get("require_drained")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        gate.require(
            "chaos server drained cleanly after the run",
            chaos.get("drained_cleanly").and_then(Json::as_bool) == Some(true),
        );
    }
    Ok(())
}

fn run(
    perf_path: &Path,
    thresholds_path: &Path,
    serve_path: Option<&Path>,
    serve_only: bool,
    chaos: bool,
) -> Result<Vec<String>, String> {
    let thresholds = load(thresholds_path)?;
    let mut gate = Gate {
        failures: Vec::new(),
    };

    if let Some(serve_path) = serve_path {
        let serve = load(serve_path)?;
        if chaos {
            let chaos_thresholds = thresholds
                .get("chaos")
                .ok_or("thresholds file has no chaos section")?;
            check_chaos(&mut gate, &serve, chaos_thresholds)?;
        } else {
            let serve_thresholds = thresholds
                .get("serve")
                .ok_or("thresholds file has no serve section")?;
            check_serve(&mut gate, &serve, serve_thresholds)?;
        }
    } else if serve_only {
        return Err("--serve-only requires --serve PATH".into());
    } else if chaos {
        return Err("--chaos requires --serve PATH (a serve_loadgen --chaos report)".into());
    }
    if serve_only {
        return Ok(gate.failures);
    }

    let perf = load(perf_path)?;

    // GEMM dispatch floors: each threshold row names a square size `m`
    // that must be present in the measured `simd.gemm` rows. The
    // dispatched tile must beat the forced-scalar packed kernel and clear
    // an absolute GFLOPS rate — but only when a vector level is active,
    // same SKIP regime as the simd kernel floors below (on a scalar host
    // the "dispatched" run IS the scalar run and the ratio is 1.0 by
    // construction).
    for threshold in thresholds
        .get("gemm")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let size = num(threshold, "gemm threshold", "m")?;
        let dispatch_floor = threshold.get("min_dispatch_speedup").and_then(Json::as_f64);
        let gflops_floor = threshold.get("min_gflops").and_then(Json::as_f64);
        if dispatch_floor.is_some() || gflops_floor.is_some() {
            let level = perf
                .get("simd")
                .and_then(|s| s.get("level"))
                .and_then(Json::as_str)
                .ok_or("BENCH_perf.json has no simd.level for the gemm dispatch floors")?;
            let dispatch_rows = perf
                .get("simd")
                .and_then(|s| s.get("gemm"))
                .and_then(Json::as_array)
                .ok_or("BENCH_perf.json has no simd.gemm dispatch array")?;
            let dispatch_row = dispatch_rows
                .iter()
                .find(|r| r.get("m").and_then(Json::as_f64) == Some(size))
                .ok_or_else(|| format!("no measured gemm dispatch row for m = {size}"))?;
            if level == "scalar" {
                println!(
                    "SKIP  gemm {size}\u{b3} dispatch speedup + GFLOPS floors: \
                     active level is scalar"
                );
            } else {
                if let Some(floor) = dispatch_floor {
                    gate.check(
                        &format!("gemm {size}\u{b3} {level} dispatch speedup vs forced scalar"),
                        num(dispatch_row, "gemm dispatch row", "speedup")?,
                        floor,
                    );
                }
                if let Some(floor) = gflops_floor {
                    gate.check(
                        &format!("gemm {size}\u{b3} {level} dispatched rate (GFLOPS)"),
                        num(dispatch_row, "gemm dispatch row", "gflops")?,
                        floor,
                    );
                }
            }
        }
    }

    // SIMD dispatch floors: whenever a vector level is actually active,
    // each kernel row must clear its effective-bandwidth floor and beat the
    // forced-scalar sweep by `min_simd_speedup`. On a scalar-only host both
    // checks are skipped with a visible note — the speedup would compare
    // scalar with scalar, and the bandwidth floors are calibrated against
    // vector rates; scalar correctness stays covered by the parity tests.
    if let Some(simd_thresholds) = thresholds.get("simd") {
        let report = perf
            .get("simd")
            .ok_or("BENCH_perf.json has no simd object")?;
        let level = report
            .get("level")
            .and_then(Json::as_str)
            .ok_or("simd report has no level")?;
        let measured = report
            .get("kernels")
            .and_then(Json::as_array)
            .ok_or("simd report has no kernels array")?;
        let min_speedup = num(simd_thresholds, "simd threshold", "min_simd_speedup")?;
        for threshold in simd_thresholds
            .get("kernels")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let name = threshold
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or("simd kernel threshold has no kernel name")?;
            let row = measured
                .iter()
                .find(|r| r.get("kernel").and_then(Json::as_str) == Some(name))
                .ok_or_else(|| format!("no measured simd row for kernel {name:?}"))?;
            if level == "scalar" {
                println!("SKIP  simd {name} bandwidth + speedup floors: active level is scalar");
                continue;
            }
            gate.check(
                &format!("simd {name} {level} effective bandwidth (GB/s)"),
                num(row, "simd row", "gbps")?,
                num(threshold, "simd kernel threshold", "min_gbps")?,
            );
            gate.check(
                &format!("simd {name} {level} speedup vs scalar"),
                num(row, "simd row", "speedup")?,
                min_speedup,
            );
        }
    }

    // Batched-ViT speedup + prediction agreement.
    if let Some(vit_threshold) = thresholds.get("vit") {
        let vit = perf.get("vit").ok_or("BENCH_perf.json has no vit object")?;
        let expected_batch = num(vit_threshold, "vit threshold", "batch")?;
        let measured_batch = num(vit, "vit report", "batch")?;
        if measured_batch != expected_batch {
            return Err(format!(
                "vit report measured batch {measured_batch}, thresholds expect {expected_batch}"
            ));
        }
        let floor = num(vit_threshold, "vit threshold", "min_speedup")?;
        let speedup = num(vit, "vit report", "batch_speedup")?;
        gate.check(
            &format!("vit batch-{expected_batch} speedup"),
            speedup,
            floor,
        );
        // Compiled-plan floors: allocations/request is the headline of the
        // graph compiler (arena reuse -> zero steady-state allocations);
        // the fused floor only guards against a pathologically slow
        // compiled path, since wall-time vs eager is near parity at quick
        // scale.
        // Absolute end-to-end latency ceiling: unlike the ratio floors it
        // cannot be satisfied by the baseline getting slower too.
        if let Some(ceiling) = vit_threshold
            .get("max_batch_ms_per_sample")
            .and_then(Json::as_f64)
        {
            gate.check_max(
                &format!("vit batch-{expected_batch} compiled latency (ms/sample)"),
                num(vit, "vit report", "batch_ms_per_sample")?,
                ceiling,
            );
        }
        if let Some(ceiling) = vit_threshold
            .get("max_allocs_per_request")
            .and_then(Json::as_f64)
        {
            gate.check_max(
                "vit compiled allocations per request",
                num(vit, "vit report", "compiled_allocs_per_request")?,
                ceiling,
            );
        }
        if let Some(floor) = vit_threshold
            .get("min_alloc_reduction")
            .and_then(Json::as_f64)
        {
            gate.check(
                "vit eager-vs-compiled allocation reduction",
                num(vit, "vit report", "alloc_reduction")?,
                floor,
            );
        }
        if let Some(floor) = vit_threshold
            .get("min_fused_speedup")
            .and_then(Json::as_f64)
        {
            gate.check(
                &format!("vit batch-{expected_batch} fused speedup vs eager"),
                num(vit, "vit report", "fused_speedup_vs_eager")?,
                floor,
            );
        }
        if vit_threshold
            .get("require_agreement")
            .and_then(Json::as_bool)
            .unwrap_or(false)
        {
            let agree = vit
                .get("predictions_agree")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if agree {
                println!("PASS  vit batched predictions agree with single-sample path");
            } else {
                gate.failures
                    .push("vit batched predictions disagree with single-sample path".into());
                println!("FAIL  vit batched predictions disagree with single-sample path");
            }
        }
    }
    Ok(gate.failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let perf = cli::parse_path(&args, "--perf", "BENCH_perf.json");
    let thresholds = cli::parse_path(&args, "--thresholds", "ci/perf-thresholds.json");
    let serve = cli::value(&args, "--serve").map(PathBuf::from);
    let serve_only = cli::has_flag(&args, "--serve-only");
    let chaos = cli::has_flag(&args, "--chaos");

    match run(&perf, &thresholds, serve.as_deref(), serve_only, chaos) {
        Ok(failures) if failures.is_empty() => {
            println!("perf gate: all thresholds met");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("perf gate: {} regression(s):", failures.len());
            for failure in failures {
                eprintln!("  - {failure}");
            }
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perf gate: {message}");
            ExitCode::FAILURE
        }
    }
}
