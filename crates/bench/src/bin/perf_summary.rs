//! Performance summary: times the dispatched SIMD kernels (transcendentals
//! and the packed GEMM) against forced-scalar, and single vs. batched ViT
//! inference, writing a machine-readable `BENCH_perf.json` at the repo root.
//!
//! This seeds the performance trajectory of the workspace: every future
//! optimisation PR reruns this binary and compares the JSON against the
//! committed history.
//!
//! Scale is controlled by `VITAL_SCALE` (`quick` default / `full`) or the
//! `--quick` / `--full` CLI flags; thread count by `VITAL_THREADS`.

use std::time::Instant;

use bench::Scale;
use jsonio::Json;
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{VisionTransformer, VitalConfig};

/// Median wall-clock milliseconds of `reps` runs of `f` (one warmup run).
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct SimdRow {
    kernel: &'static str,
    scalar_ms: f64,
    simd_ms: f64,
    /// Effective bandwidth of the dispatched kernel, counting one f32 read
    /// and one f32 write per element per call — a fixed traffic convention
    /// (internal passes are *not* multiplied in), so the number is
    /// comparable across kernels and runs even though e.g. softmax sweeps
    /// its rows three times.
    gbps: f64,
}

/// Times the runtime-dispatched math kernels at the active level against
/// the forced-scalar level on identical buffers.
fn bench_simd(scale: Scale, reps: usize) -> (&'static str, Vec<SimdRow>) {
    let level = simd::active_level();
    // Rows × cols chosen so the working set spills L1/L2 and the timing is
    // bandwidth-shaped rather than call-overhead-shaped.
    let (rows, cols) = match scale {
        Scale::Quick => (512, 256),
        Scale::Full => (2048, 512),
    };
    let n = rows * cols;
    let src = SeededRng::new(11).uniform_tensor(&[rows, cols], -4.0, 4.0);
    let gamma = vec![1.0f32; cols];
    let beta = vec![0.0f32; cols];
    let bytes = (2 * 4 * n) as f64;
    // Each closure re-applies the kernel in place on a warm buffer; the
    // outputs stay finite under re-application (softmax of a softmax,
    // layer-norm of a layer-norm, GELU of a GELU), so every rep measures
    // the same bandwidth-bound sweep.
    let mut rows_out = Vec::new();
    type SimdKernel = Box<dyn Fn(simd::Level, &mut [f32])>;
    let kernels: [(&'static str, SimdKernel); 3] = [
        (
            "softmax",
            Box::new(move |lv, data: &mut [f32]| simd::softmax_rows_at(lv, data, cols)),
        ),
        (
            "layer_norm",
            Box::new(move |lv, data: &mut [f32]| {
                simd::layer_norm_rows_at(lv, data, cols, &gamma, &beta, 1e-5)
            }),
        ),
        (
            "gelu",
            Box::new(|lv, data: &mut [f32]| simd::apply_act_at(lv, simd::Act::Gelu, data)),
        ),
    ];
    for (name, kernel) in &kernels {
        let mut scalar_buf = src.as_slice().to_vec();
        let scalar_ms = time_ms(reps, || {
            kernel(simd::Level::Scalar, &mut scalar_buf);
            std::hint::black_box(scalar_buf[0]);
        });
        let mut simd_buf = src.as_slice().to_vec();
        let simd_ms = time_ms(reps, || {
            kernel(level, &mut simd_buf);
            std::hint::black_box(simd_buf[0]);
        });
        let gbps = bytes / (simd_ms * 1e6);
        eprintln!(
            "simd {name:>10}  scalar {scalar_ms:>7.3} ms  {} {simd_ms:>7.3} ms  \
             speedup {:>5.2}×  {gbps:>6.2} GB/s",
            level.name(),
            scalar_ms / simd_ms,
        );
        rows_out.push(SimdRow {
            kernel: name,
            scalar_ms,
            simd_ms,
            gbps,
        });
    }
    (level.name(), rows_out)
}

struct GemmDispatchRow {
    size: usize,
    scalar_ms: f64,
    dispatched_ms: f64,
}

/// Times the packed GEMM pinned at `Level::Scalar` against the runtime-
/// dispatched level on identical buffers — the dispatch win the `gemm`
/// floors in `ci/perf-thresholds.json` gate.
fn bench_gemm_dispatch(sizes: &[usize], reps: usize) -> (&'static str, Vec<GemmDispatchRow>) {
    let level = simd::active_level();
    let rows = sizes
        .iter()
        .map(|&size| {
            let a = SeededRng::new(5)
                .uniform_tensor(&[size, size], -1.0, 1.0)
                .as_slice()
                .to_vec();
            let b = SeededRng::new(6)
                .uniform_tensor(&[size, size], -1.0, 1.0)
                .as_slice()
                .to_vec();
            let mut out = vec![0.0f32; size * size];
            let mut run = |lv: simd::Level| {
                tensor::gemm_ex_into_at(
                    lv,
                    size,
                    size,
                    size,
                    &a,
                    &b,
                    tensor::MatmulSpec::NN,
                    &mut out,
                );
                std::hint::black_box(out[0]);
            };
            let scalar_ms = time_ms(reps, || run(simd::Level::Scalar));
            let dispatched_ms = time_ms(reps, || run(level));
            eprintln!(
                "gemm-dispatch {size:>4}³  scalar {scalar_ms:>8.2} ms  {} {dispatched_ms:>8.2} ms  \
                 speedup {:>5.2}×",
                level.name(),
                scalar_ms / dispatched_ms,
            );
            GemmDispatchRow {
                size,
                scalar_ms,
                dispatched_ms,
            }
        })
        .collect();
    (level.name(), rows)
}

struct VitResult {
    batch: usize,
    single_ms_per_sample: f64,
    batch_ms_per_sample: f64,
    eager_ms_per_sample: f64,
    predictions_agree: bool,
    /// Tensor materialisations for one compiled batch request (warm plan).
    compiled_allocs_per_request: u64,
    /// Tensor materialisations for one eager batch request.
    eager_allocs_per_request: u64,
}

/// Tensor allocations of one `f()` call (caller warms caches first).
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = tensor::alloc_count::tensor_allocs();
    f();
    tensor::alloc_count::tensor_allocs() - before
}

fn bench_vit(scale: Scale, reps: usize) -> VitResult {
    // Paper-scale geometry (§VI.B: 206×206 image, 20×20 patches) at full
    // scale; a reduced image in quick mode so CI stays fast.
    let config = match scale {
        Scale::Full => VitalConfig::paper(206, 82),
        Scale::Quick => {
            let mut c = VitalConfig::paper(206, 82);
            c.image_size = 60;
            c.patch_size = 12;
            c
        }
    };
    let mut rng = SeededRng::new(3);
    let vit = VisionTransformer::new(&mut rng, &config).unwrap();
    let batch_size = 32;
    let batch: Vec<Tensor> = (0..batch_size)
        .map(|i| {
            SeededRng::new(100 + i as u64).uniform_tensor(
                &[vit.num_patches(), vit.patch_dim()],
                -1.0,
                1.0,
            )
        })
        .collect();

    let single_ms = time_ms(reps, || {
        for patches in &batch {
            std::hint::black_box(vit.predict(patches).unwrap());
        }
    });
    let batch_ms = time_ms(reps, || {
        std::hint::black_box(vit.predict_batch(&batch).unwrap());
    });
    let eager_ms = time_ms(reps, || {
        std::hint::black_box(vit.predict_batch_eager(&batch).unwrap());
    });
    // Allocations per request: both paths already warm from the timing
    // runs, so this is the steady-state cost — the compiled plan executes
    // out of a pooled arena and should sit orders of magnitude below the
    // eager tape's one-tensor-per-op traffic.
    let compiled_allocs = count_allocs(|| {
        std::hint::black_box(vit.predict_batch(&batch).unwrap());
    });
    let eager_allocs = count_allocs(|| {
        std::hint::black_box(vit.predict_batch_eager(&batch).unwrap());
    });
    let singles: Vec<usize> = batch.iter().map(|p| vit.predict(p).unwrap()).collect();
    let batched = vit.predict_batch(&batch).unwrap();
    let eager = vit.predict_batch_eager(&batch).unwrap();
    let result = VitResult {
        batch: batch_size,
        single_ms_per_sample: single_ms / batch_size as f64,
        batch_ms_per_sample: batch_ms / batch_size as f64,
        eager_ms_per_sample: eager_ms / batch_size as f64,
        predictions_agree: singles == batched && batched == eager,
        compiled_allocs_per_request: compiled_allocs,
        eager_allocs_per_request: eager_allocs,
    };
    eprintln!(
        "vit batch-{batch_size}  single {:.3} ms/sample  batched {:.3} ms/sample  eager-batch \
         {:.3} ms/sample  speedup {:.2}×  fused-vs-eager {:.2}×  allocs/request {} vs {} eager  \
         agree {}",
        result.single_ms_per_sample,
        result.batch_ms_per_sample,
        result.eager_ms_per_sample,
        result.single_ms_per_sample / result.batch_ms_per_sample,
        result.eager_ms_per_sample / result.batch_ms_per_sample,
        result.compiled_allocs_per_request,
        result.eager_allocs_per_request,
        result.predictions_agree,
    );
    result
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::from_env()
    };
    // Quick-scale gemm sizes take ~0.1-3 ms per call, so a 3-rep median is
    // one scheduler hiccup away from a 2x swing on a busy 1-core runner;
    // 9 reps keeps the quick job fast while making the median robust.
    let (sizes, gemm_reps, vit_reps): (&[usize], usize, usize) = match scale {
        Scale::Quick => (&[64, 128, 256], 9, 3),
        Scale::Full => (&[64, 128, 256, 384, 512], 9, 5),
    };
    let threads = parallel::num_threads();
    eprintln!(
        "perf_summary: scale={scale:?} threads={threads} (override with VITAL_THREADS/--full)"
    );

    let (simd_level, simd_rows) = bench_simd(scale, gemm_reps.max(5));
    let (_, gemm_dispatch) = bench_gemm_dispatch(sizes, gemm_reps);
    let vit = bench_vit(scale, vit_reps);

    // Round to the precision the hand-formatted report used to commit.
    let r4 = |x: f64| Json::from((x * 1e4).round() / 1e4);
    let r3 = |x: f64| Json::from((x * 1e3).round() / 1e3);
    let json = Json::obj([
        (
            "scale",
            Json::from(match scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            }),
        ),
        ("threads", Json::from(threads)),
        (
            "simd",
            Json::obj([
                ("level", Json::from(simd_level)),
                (
                    "kernels",
                    Json::arr(simd_rows.iter().map(|r| {
                        Json::obj([
                            ("kernel", Json::from(r.kernel)),
                            ("scalar_ms", r4(r.scalar_ms)),
                            ("simd_ms", r4(r.simd_ms)),
                            ("speedup", r3(r.scalar_ms / r.simd_ms)),
                            ("gbps", r3(r.gbps)),
                        ])
                    })),
                ),
                (
                    "gemm",
                    Json::arr(gemm_dispatch.iter().map(|r| {
                        let gflops = 2.0 * (r.size as f64).powi(3) / (r.dispatched_ms * 1e6);
                        Json::obj([
                            ("m", Json::from(r.size)),
                            ("scalar_ms", r4(r.scalar_ms)),
                            ("dispatched_ms", r4(r.dispatched_ms)),
                            ("speedup", r3(r.scalar_ms / r.dispatched_ms)),
                            ("gflops", Json::from((gflops * 1e2).round() / 1e2)),
                        ])
                    })),
                ),
            ]),
        ),
        (
            "vit",
            Json::obj([
                ("batch", Json::from(vit.batch)),
                ("single_ms_per_sample", r4(vit.single_ms_per_sample)),
                ("batch_ms_per_sample", r4(vit.batch_ms_per_sample)),
                (
                    "batch_speedup",
                    r3(vit.single_ms_per_sample / vit.batch_ms_per_sample),
                ),
                ("eager_ms_per_sample", r4(vit.eager_ms_per_sample)),
                (
                    "fused_speedup_vs_eager",
                    r3(vit.eager_ms_per_sample / vit.batch_ms_per_sample),
                ),
                (
                    "compiled_allocs_per_request",
                    Json::from(vit.compiled_allocs_per_request),
                ),
                (
                    "eager_allocs_per_request",
                    Json::from(vit.eager_allocs_per_request),
                ),
                (
                    "alloc_reduction",
                    r3(vit.eager_allocs_per_request as f64
                        / (vit.compiled_allocs_per_request.max(1)) as f64),
                ),
                ("predictions_agree", Json::from(vit.predictions_agree)),
            ]),
        ),
    ])
    .to_json_pretty();

    // The bench crate lives at <repo>/crates/bench, so the repo root is two
    // levels up from the compile-time manifest dir.
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_perf.json");
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");
    println!("{json}");
    eprintln!("wrote {}", out_path.display());
}
