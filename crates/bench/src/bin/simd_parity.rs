//! SIMD dispatch-level parity tool for the CI `simd-matrix` job.
//!
//! `dump` runs a seeded, untrained smoke ViT (the same deterministic
//! construction every time) through **both** inference paths — eager
//! logits and compiled-plan predictions — under the currently active
//! `VITAL_SIMD` level, and writes the predictions plus the raw logit bit
//! patterns to a JSON report. `compare` diffs two such reports:
//!
//! ```text
//! VITAL_SIMD=scalar simd_parity dump --out parity-scalar.json
//! VITAL_SIMD=avx2   simd_parity dump --out parity-avx2.json
//! simd_parity compare parity-scalar.json parity-avx2.json            # bit-exact
//! VITAL_SIMD=fma    simd_parity dump --out parity-fma.json
//! simd_parity compare parity-scalar.json parity-fma.json --ulp 1024  # ULP-bounded
//! ```
//!
//! Without `--ulp`, logits must be **bit-identical** — the determinism
//! contract between the scalar and AVX2 dispatch levels. With `--ulp N`,
//! each logit pair may differ by at most `N` units in the last place —
//! the contract for the opt-in FMA level, whose fused multiply-adds round
//! once instead of twice. Predictions must match exactly in both modes.
//!
//! Each report also carries `gemm_bits`: a GEMM-heavy leg that runs the
//! dispatched band microkernels through all four transpose variants at
//! sizes off the vector tile's band and panel edges, on cancellation-free
//! operands so the FMA leg's ULP distance is meaningful there (the smoke
//! ViT's matmuls run the same kernels, on signed data). The same bit/ULP
//! bound applies.

use std::process::ExitCode;

use jsonio::{parse, Json};
use tensor::rng::SeededRng;
use tensor::{MatmulSpec, Tensor};
use vital::{VisionTransformer, VitalConfig};

/// The fixed smoke model + batch every dump uses: seeded weights, seeded
/// inputs, no training, so any cross-report difference is the dispatch
/// level and nothing else.
fn smoke_logits_and_predictions() -> (Tensor, Vec<usize>) {
    let mut config = VitalConfig::fast(18, 8);
    config.image_size = 60;
    config.patch_size = 12;
    config.encoder_blocks = 2;
    let mut rng = SeededRng::new(2023);
    let vit = VisionTransformer::new(&mut rng, &config).expect("smoke config is valid");
    let batch: Vec<Tensor> = (0..8)
        .map(|i| {
            SeededRng::new(5000 + i as u64).uniform_tensor(
                &[vit.num_patches(), vit.patch_dim()],
                -1.0,
                1.0,
            )
        })
        .collect();
    let tape = autograd::Tape::new();
    let mut session = nn::Session::new(&tape, false, 0);
    let logits = vit
        .forward_batch(&mut session, &batch)
        .expect("smoke forward")
        .value();
    let predictions = vit.predict_batch(&batch).expect("smoke predict");
    (logits, predictions)
}

/// GEMM output bits at the active level: all four transpose variants at
/// `37 × 33 × 129` — every dimension sits one off a tile/panel multiple
/// (m = 6·6+1, n = 16·8+1), so a one-row last band and padded edge panels
/// are part of the dump. Operands are positive so the accumulations are
/// cancellation-free: near-zero outputs would make the FMA leg's ULP
/// distance meaningless (a tiny absolute difference spans thousands of
/// ULP next to zero).
fn gemm_bits() -> Vec<u32> {
    let level = simd::active_level();
    let (m, k, n) = (37, 33, 129);
    let mut rng = SeededRng::new(77);
    let a = rng.uniform_tensor(&[m, k], 0.1, 2.0).as_slice().to_vec();
    let b = rng.uniform_tensor(&[k, n], 0.1, 2.0).as_slice().to_vec();
    let mut bits = Vec::new();
    for spec in [
        MatmulSpec::NN,
        MatmulSpec::TN,
        MatmulSpec::NT,
        MatmulSpec::TT,
    ] {
        let mut out = vec![0.0f32; m * n];
        tensor::gemm_ex_into_at(level, m, k, n, &a, &b, spec, &mut out);
        bits.extend(out.iter().map(|v| v.to_bits()));
    }
    bits
}

fn dump(out: &str) {
    let (logits, predictions) = smoke_logits_and_predictions();
    let json = Json::obj([
        ("level", Json::from(simd::active_level().name())),
        ("rows", Json::from(logits.rows().expect("matrix"))),
        ("cols", Json::from(logits.cols().expect("matrix"))),
        (
            "predictions",
            Json::arr(predictions.iter().map(|&p| Json::from(p))),
        ),
        (
            "logits_bits",
            Json::arr(
                logits
                    .as_slice()
                    .iter()
                    .map(|v| Json::from(u64::from(v.to_bits()))),
            ),
        ),
        (
            "gemm_bits",
            Json::arr(gemm_bits().into_iter().map(|b| Json::from(u64::from(b)))),
        ),
    ])
    .to_json_pretty();
    std::fs::write(out, &json).expect("write parity report");
    eprintln!(
        "simd_parity: dumped level={} predictions={:?} -> {out}",
        simd::active_level().name(),
        predictions
    );
}

/// Distance in units-in-the-last-place between two f32 bit patterns,
/// walking through zero for opposite signs (the same metric the simd
/// crate's accuracy tests use).
fn ulp_diff(a: u32, b: u32) -> u64 {
    let rank = |bits: u32| {
        let sign = bits >> 31;
        let mag = i64::from(bits & 0x7fff_ffff);
        if sign == 0 {
            mag
        } else {
            -mag
        }
    };
    rank(a).abs_diff(rank(b))
}

fn load_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn bits_array(report: &Json, path: &str, field: &str) -> Result<Vec<u32>, String> {
    report
        .get(field)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path} has no {field} array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|f| f as u32)
                .ok_or_else(|| format!("{path} has a non-numeric logit bit pattern"))
        })
        .collect()
}

fn compare(path_a: &str, path_b: &str, max_ulp: u64) -> Result<(), String> {
    let a = load_report(path_a)?;
    let b = load_report(path_b)?;
    let level_a = a.get("level").and_then(Json::as_str).unwrap_or("?");
    let level_b = b.get("level").and_then(Json::as_str).unwrap_or("?");

    let preds = |r: &Json, p: &str| -> Result<Vec<usize>, String> {
        r.get("predictions")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{p} has no predictions array"))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| format!("{p} has a non-integer prediction"))
            })
            .collect()
    };
    let preds_a = preds(&a, path_a)?;
    let preds_b = preds(&b, path_b)?;
    if preds_a != preds_b {
        return Err(format!(
            "predictions diverge between {level_a} and {level_b}: {preds_a:?} vs {preds_b:?}"
        ));
    }

    for field in ["logits_bits", "gemm_bits"] {
        let bits_a = bits_array(&a, path_a, field)?;
        let bits_b = bits_array(&b, path_b, field)?;
        if bits_a.len() != bits_b.len() {
            return Err(format!(
                "{field} counts differ: {} vs {}",
                bits_a.len(),
                bits_b.len()
            ));
        }
        let mut worst: u64 = 0;
        let mut diffs: usize = 0;
        for (i, (&ba, &bb)) in bits_a.iter().zip(&bits_b).enumerate() {
            let d = ulp_diff(ba, bb);
            if d > 0 {
                diffs += 1;
            }
            if d > worst {
                worst = d;
            }
            if d > max_ulp {
                return Err(format!(
                    "{field}[{i}] differs by {d} ULP (> {max_ulp}): {:?} vs {:?} \
                     between {level_a} and {level_b}",
                    f32::from_bits(ba),
                    f32::from_bits(bb)
                ));
            }
        }
        println!(
            "simd_parity: {level_a} vs {level_b}: predictions identical, {} {field}, \
             {diffs} differing, worst {worst} ULP (bound {max_ulp})",
            bits_a.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: simd_parity dump --out FILE | simd_parity compare A B [--ulp N]";
    match args.get(1).map(String::as_str) {
        Some("dump") => {
            let Some(out) = serve::cli::value(&args, "--out") else {
                eprintln!("{usage}");
                return ExitCode::FAILURE;
            };
            dump(out);
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(2), args.get(3)) else {
                eprintln!("{usage}");
                return ExitCode::FAILURE;
            };
            let max_ulp = serve::cli::value(&args, "--ulp")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            match compare(a, b, max_ulp) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("simd_parity: FAIL: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}
