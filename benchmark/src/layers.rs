//! Per-layer probes of the traced run: every number here comes from
//! timing calls into public functions of one layer, on the workload's own
//! model, bytes and batch shape.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;
use jsonio::Json;
use serve::batcher::{self, Job};
use serve::http::{self, Parse, Response};
use serve::{codec, Metrics, Registry};
use tensor::rng::SeededRng;
use tensor::{Tensor, UnaryOp};
use vital::{Checkpoint, Localizer, VitalConfig, VitalModel};

use crate::fixture::{batcher_config, Fixture, Served, MODEL_NAME};
use crate::stats::median;
use crate::trace::{Span, SpanLog};

pub type Metrics64 = BTreeMap<String, f64>;

/// Time a probe may take; enough repetitions for a steady median without
/// the traced run outgrowing the untraced one.
const BUDGET: Duration = Duration::from_millis(150);
const REPLAY_BUDGET: Duration = Duration::from_millis(2500);

/// Calls `f` until `budget` is spent, at least `min` times; returns each
/// call's duration in milliseconds.
fn sample_ms(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || started.elapsed() < budget {
        let from = Instant::now();
        f();
        times.push(from.elapsed().as_secs_f64() * 1e3);
    }
    times
}

fn median_ms(min: usize, f: impl FnMut()) -> f64 {
    median(&sample_ms(BUDGET, min, f))
}

/// `tensor::matmul`'s private `SMALL_KN` cutoff: products with `k·n` at or
/// under it take the serial unpacked path, the rest the packed kernel.
const SMALL_KN: usize = 4096;

#[derive(Clone, Copy)]
enum Gemm {
    Nn,
    Tn,
    Nt,
}

/// One row of the shape table: an `[m,k]×[k,n]` product as the models
/// issue it.
struct ShapeRow {
    stem: &'static str,
    op: Gemm,
    m: usize,
    k: usize,
    n: usize,
}

/// The GEMM shapes of the two configurations, derived from them.
fn shape_rows() -> Vec<ShapeRow> {
    let paper = VitalConfig::paper(30, 81);
    let fast = VitalConfig::fast(30, 81);
    let batch = paper.train.batch_size;
    let (p, d_in, d) = (paper.num_patches(), paper.patch_dim(), paper.d_model);
    let row = |stem, op, m, k, n| ShapeRow { stem, op, m, k, n };
    vec![
        row(
            "tensor.matmul.paper_embed_b16",
            Gemm::Nn,
            batch * p,
            d_in,
            d,
        ),
        row("tensor.matmul.paper_embed_b1", Gemm::Nn, p, d_in, d),
        row(
            "tensor.matmul.paper_attn_scores",
            Gemm::Nn,
            p,
            d / paper.msa_heads,
            p,
        ),
        row(
            "tensor.matmul.fast_embed_b1",
            Gemm::Nn,
            fast.num_patches(),
            fast.patch_dim(),
            fast.d_model,
        ),
        // dW = Xᵀ·dY and dX = dY·Wᵀ of the same embedding, one step.
        row(
            "tensor.matmul_tn.paper_embed_wgrad",
            Gemm::Tn,
            d_in,
            batch * p,
            d,
        ),
        row(
            "tensor.matmul_nt.paper_embed_dx",
            Gemm::Nt,
            batch * p,
            d,
            d_in,
        ),
    ]
}

fn filled(rng: &mut SeededRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
    Tensor::from_vec(data, &[rows, cols]).expect("rows × cols values were generated")
}

/// Times the shape table; returns its rows for the trace file.
fn tensor_table(out: &mut Metrics64) -> Json {
    let mut rng = SeededRng::new(11);
    let rows = shape_rows().into_iter().map(|row| {
        let ShapeRow { stem, op, m, k, n } = row;
        // Operands laid out as the op reads them.
        let (a, b) = match op {
            Gemm::Nn => (filled(&mut rng, m, k), filled(&mut rng, k, n)),
            Gemm::Tn => (filled(&mut rng, k, m), filled(&mut rng, k, n)),
            Gemm::Nt => (filled(&mut rng, m, k), filled(&mut rng, n, k)),
        };
        let ms = median_ms(5, || {
            let product = match op {
                Gemm::Nn => black_box(&a).matmul(black_box(&b)),
                Gemm::Tn => black_box(&a).matmul_tn(black_box(&b)),
                Gemm::Nt => black_box(&a).matmul_nt(black_box(&b)),
            };
            black_box(product.expect("operand shapes agree by construction"));
        });
        let flops = 2.0 * (m * k * n) as f64;
        let bytes = 4.0 * (m * k + k * n + m * n) as f64;
        let gflops = flops / (ms * 1e6);
        out.insert(format!("{stem}_ms"), ms);
        out.insert(format!("{stem}_gflops"), gflops);
        Json::obj([
            ("name", Json::from(stem)),
            ("m", Json::from(m)),
            ("k", Json::from(k)),
            ("n", Json::from(n)),
            ("flops", Json::from(flops)),
            ("bytes", Json::from(bytes)),
            (
                "path",
                Json::from(if k * n <= SMALL_KN {
                    "small (k*n <= SMALL_KN)"
                } else {
                    "packed"
                }),
            ),
            ("ms", Json::from(ms)),
            ("gflops", Json::from(gflops)),
        ])
    });
    Json::arr(rows.collect::<Vec<_>>())
}

/// Row-wise kernels at the paper model's widths, through the tensor ops.
fn simd_rates(out: &mut Metrics64) {
    let paper = VitalConfig::paper(30, 81);
    let batch = paper.train.batch_size;
    let p = paper.num_patches();
    let mut rng = SeededRng::new(12);
    // Bytes read plus bytes written, per millisecond, as GB/s.
    let gbps = |elements: usize, ms: f64| 8.0 * elements as f64 / (ms * 1e6);

    let scores = filled(&mut rng, batch * paper.msa_heads * p, p);
    let ms = median_ms(5, || {
        black_box(black_box(&scores).softmax_rows().expect("rank 2"));
    });
    out.insert("simd.softmax_gbps".into(), gbps(scores.len(), ms));

    let tokens = filled(&mut rng, batch * p, paper.d_model);
    let gamma = filled(&mut rng, 1, paper.d_model);
    let beta = filled(&mut rng, 1, paper.d_model);
    let (gamma, beta) = (
        Tensor::from_vec(gamma.as_slice().to_vec(), &[paper.d_model]).expect("d_model values"),
        Tensor::from_vec(beta.as_slice().to_vec(), &[paper.d_model]).expect("d_model values"),
    );
    let ms = median_ms(5, || {
        black_box(
            black_box(&tokens)
                .layer_norm_rows(&gamma, &beta, 1e-5)
                .expect("widths agree"),
        );
    });
    out.insert("simd.layer_norm_gbps".into(), gbps(tokens.len(), ms));

    let hidden = filled(&mut rng, batch * p, paper.encoder_mlp_hidden[0]);
    let ms = median_ms(5, || {
        black_box(black_box(&hidden).apply(UnaryOp::Gelu));
    });
    out.insert("simd.gelu_gbps".into(), gbps(hidden.len(), ms));
}

/// What opening a parallel region costs: an empty-body
/// `parallel_chunks_mut` over two chunks at 2 threads minus at 1.
fn parallel_overhead(out: &mut Metrics64) {
    let mut data = [0u8; 2];
    let mut region_us = |threads| {
        parallel::with_threads(threads, || {
            median_ms(200, || {
                parallel::parallel_chunks_mut(black_box(&mut data), 1, |_, _| {})
            }) * 1e3
        })
    };
    let inline = region_us(1);
    let spawned = region_us(2);
    out.insert("parallel.region_overhead_us".into(), spawned - inline);
}

/// The evaluation pass at 2 threads against the timed phase's 1: the one
/// place a workload's own calls open `parallel` regions. (The issue timed
/// `offline_eval` itself at 2 threads; identical runs then disagreed by
/// 16% on the reference host, so per its demotion rule this is a layer
/// metric.) Only where the fixture has the baselines.
pub fn two_thread_pass(
    fixture: &Fixture,
    pass_1t_ms: f64,
    out: &mut Metrics64,
) -> Result<(), String> {
    if fixture.baselines.is_empty() {
        return Ok(());
    }
    let localizers = fixture.localizers();
    let mut failure = None;
    let times = parallel::with_threads(2, || {
        sample_ms(4 * BUDGET, 5, || {
            for (name, localizer) in &localizers {
                if let Err(e) = localizer.localize_batch(&fixture.pool) {
                    failure.get_or_insert(format!("{name} at 2 threads: {e}"));
                }
            }
        })
    });
    if let Some(failure) = failure {
        return Err(failure);
    }
    let pass_2t_ms = median(&times);
    out.insert("parallel.pass_2t_ms".into(), pass_2t_ms);
    out.insert("parallel.speedup_2t".into(), pass_1t_ms / pass_2t_ms);
    Ok(())
}

/// Layer probes that need no fixture.
pub fn kernels(out: &mut Metrics64) -> Json {
    simd_rates(out);
    parallel_overhead(out);
    tensor_table(out)
}

/// `core` on the fixture's model at `batch` observations per call, and
/// the checkpoint and plan-build costs that set-up pays.
pub fn core(fixture: &Fixture, batch: usize, out: &mut Metrics64) -> Result<(), String> {
    let model = &fixture.vital;
    let pool = &fixture.pool;
    let batch_obs: Vec<FingerprintObservation> = pool.iter().cycle().take(batch).cloned().collect();
    let fail = |e: vital::VitalError| e.to_string();

    let mut next = 0;
    let mut next_obs = || {
        next += 1;
        &pool[next % pool.len()]
    };
    let mut rng = SeededRng::new(0);
    for (name, training) in [
        ("core.prepare_patches_us", false),
        ("core.prepare_patches_train_us", true),
    ] {
        let ms = median_ms(20, || {
            black_box(model.prepare_patches(next_obs(), training, &mut rng).ok());
        });
        out.insert(name.into(), ms * 1e3);
    }
    let ms = median_ms(10, || {
        black_box(model.predict(next_obs()).ok());
    });
    out.insert("core.predict_single_ms".into(), ms);

    model.localize_batch(&batch_obs).map_err(fail)?;
    // Already there when the serve replay timed it next to the batcher.
    let batch_ms = *out
        .entry("core.localize_batch_ms".into())
        .or_insert_with(|| {
            median_ms(5, || {
                black_box(model.localize_batch(black_box(&batch_obs)).ok());
            })
        });
    out.insert(
        "core.forward_ms".into(),
        batch_ms - batch as f64 * out["core.prepare_patches_us"] / 1e3,
    );
    out.entry("core.vital.obs_per_s".into())
        .or_insert(batch as f64 / (batch_ms / 1e3));

    let checkpoint = model.to_checkpoint().map_err(fail)?;
    let bytes = checkpoint.to_bytes().map_err(fail)?;
    let ms = median_ms(5, || {
        black_box(checkpoint.to_bytes().ok());
    });
    out.insert("core.checkpoint.to_bytes_ms".into(), ms);
    let ms = median_ms(5, || {
        black_box(Checkpoint::from_bytes(black_box(&bytes)).ok());
    });
    out.insert("core.checkpoint.from_bytes_ms".into(), ms);
    let ms = median_ms(5, || {
        black_box(VitalModel::from_checkpoint(black_box(&checkpoint)).ok());
    });
    out.insert("core.model.from_checkpoint_ms".into(), ms);

    // A freshly loaded model has no plan yet: its first call compiles one,
    // its second reuses it. One chunk of `train.batch_size` is the largest
    // shape `localize_batch` ever plans for, whatever the batch.
    let chunk = &batch_obs[..batch.min(model.config().train.batch_size)];
    let mut build_ms = Vec::new();
    let started = Instant::now();
    while build_ms.len() < 5 || started.elapsed() < BUDGET {
        let fresh = VitalModel::from_checkpoint(&checkpoint).map_err(fail)?;
        let from = Instant::now();
        fresh.localize_batch(chunk).map_err(fail)?;
        let first = from.elapsed().as_secs_f64();
        let from = Instant::now();
        fresh.localize_batch(chunk).map_err(fail)?;
        let warm = from.elapsed().as_secs_f64();
        build_ms.push((first - warm) * 1e3);
    }
    out.insert("graph.plan_build_ms".into(), median(&build_ms));

    let timings = &fixture.timings;
    out.insert("core.vital_fit_s".into(), timings.vital_fit_s);
    out.entry("core.fit_epoch_ms".into())
        .or_insert(timings.vital_fit_s * 1e3 / fixture.fit_epochs() as f64);
    out.entry("train_samples_per_s".into())
        .or_insert((fixture.train.len() * fixture.fit_epochs()) as f64 / timings.vital_fit_s);
    out.insert("baselines.fit_s".into(), timings.baselines_fit_s);
    out.insert(
        "fingerprint.collect_obs_per_s".into(),
        timings.collect_obs as f64 / timings.collect_s,
    );
    Ok(())
}

/// The `serve` layers, stage by stage, on the workload's request bytes:
/// a staged replay of `http::parse_request` → `codec::parse_localize_request`
/// → batcher submit/reply → `codec::predictions_response` →
/// `http::write_response`, with `in_flight` requests submitted together as
/// the workload's clients do, which also makes the batch the model sees
/// the dispatched one. Returns the replay's spans.
pub fn serve(
    fixture: &Fixture,
    in_flight: usize,
    client_p50_ms: f64,
    out: &mut Metrics64,
) -> Result<Vec<Span>, String> {
    let per_request = fixture.workload.obs_per_request();
    let wires = fixture.request_wires();
    let epoch = Instant::now();
    let mut log = SpanLog::new(true, epoch, 7);

    let registry = Arc::new(Registry::from_checkpoint_dir(&fixture.dir)?);
    let metrics = Arc::new(Metrics::with_workers(1));
    let (client, workers) = batcher::start(registry, batcher_config(), metrics)?;

    let mut stage: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut batches: Vec<Vec<FingerprintObservation>> = Vec::new();
    let mut body_bytes = 0usize;
    let started = Instant::now();
    let mut round = 0u64;
    // Whole rounds of `in_flight` requests: a thousand where a round is a
    // few milliseconds, thirty where it is a paper-model batch.
    while round < 30 || (round < 1000 && started.elapsed() < REPLAY_BUDGET) {
        let root = log.open("replay.round", None, round, Instant::now());
        let mut stamp = |name: &'static str, from: Instant| {
            let to = Instant::now();
            log.record(name, Some(root), round, from, to);
            stage
                .entry(name)
                .or_default()
                .push((to - from).as_secs_f64() * 1e6);
            to
        };
        let mut jobs = Vec::with_capacity(in_flight);
        let mut observations = Vec::new();
        for lane in 0..in_flight {
            let wire = &wires[(round as usize * in_flight + lane) % wires.len()];
            let from = Instant::now();
            let request = match http::parse_request(wire).map_err(|e| e.to_string())? {
                Parse::Complete { value, .. } => value,
                Parse::Partial => return Err("a whole request parsed as partial".into()),
            };
            let from = stamp("serve.http.parse_request", from);
            let decoded =
                codec::parse_localize_request(&request.body).map_err(|e| e.to_string())?;
            stamp("serve.codec.parse_request", from);
            body_bytes = request.body.len();
            let from = Instant::now();
            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            black_box(jsonio::parse(text).map_err(|e| e.to_string())?);
            stamp("jsonio.parse", from);
            observations.extend_from_slice(&decoded.observations);
            jobs.push(decoded);
        }

        let submitted = Instant::now();
        let mut replies = Vec::with_capacity(in_flight);
        for decoded in jobs {
            let (reply, answer) = mpsc::sync_channel(1);
            client
                .submit(Job {
                    model: MODEL_NAME.to_string(),
                    observations: decoded.observations,
                    admitted: submitted,
                    deadline: None,
                    reply,
                })
                .map_err(|e| format!("batcher refused the replay job: {e:?}"))?;
            replies.push(answer);
        }
        let mut predictions = Vec::new();
        for answer in replies {
            predictions = answer
                .recv()
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            stamp("serve.batcher.submit_to_reply", submitted);
        }

        let from = Instant::now();
        let body = codec::predictions_response(MODEL_NAME, &predictions, true).to_json_string();
        let from = stamp("serve.codec.encode_response", from);
        let response =
            Response::new(200, body.into_bytes()).with_header("content-type", "application/json");
        let mut wire = Vec::new();
        http::write_response(&mut wire, &response, true).map_err(|e| e.to_string())?;
        black_box(&wire);
        stamp("serve.http.write_response", from);
        log.close(root, Instant::now());
        batches.push(observations);
        round += 1;
    }
    client.drain();
    client.await_drained(Duration::from_secs(5));
    drop(client);
    for worker in workers {
        worker
            .join()
            .map_err(|_| "a replay batcher thread panicked")?;
    }

    // The same batches straight into the model, right after rather than in
    // between: two threads taking turns at the model evict each other's
    // caches and slow both. What the batcher adds is the difference.
    fixture
        .vital
        .localize_batch(&batches[0])
        .map_err(|e| e.to_string())?;
    for (round, observations) in batches.iter().enumerate() {
        let from = Instant::now();
        fixture
            .vital
            .localize_batch(observations)
            .map_err(|e| e.to_string())?;
        let to = Instant::now();
        log.record("core.localize_batch", None, round as u64, from, to);
        stage
            .entry("core.localize_batch")
            .or_default()
            .push((to - from).as_secs_f64() * 1e6);
    }

    let us = |name: &str| median(&stage[name]);
    let edge = [
        "serve.http.parse_request",
        "serve.codec.parse_request",
        "serve.codec.encode_response",
        "serve.http.write_response",
    ];
    for stem in edge {
        out.insert(format!("{stem}_us"), us(stem));
    }
    out.insert(
        "jsonio.parse_mb_per_s".into(),
        body_bytes as f64 / us("jsonio.parse"),
    );
    let submit_ms = us("serve.batcher.submit_to_reply") / 1e3;
    let direct_ms = us("core.localize_batch") / 1e3;
    out.insert("serve.batcher.submit_to_reply_ms".into(), submit_ms);
    out.insert("serve.batcher.wait_ms".into(), submit_ms - direct_ms);
    out.insert("core.localize_batch_ms".into(), direct_ms);
    // By construction the staged medians, the model and this remainder sum
    // to the latency the client saw. It holds sockets, accept and the
    // hand-off between handler and worker threads.
    let staged_ms = edge.into_iter().map(us).sum::<f64>() / 1e3 + submit_ms;
    out.insert(
        "serve.server.unattributed_ms".into(),
        client_p50_ms - staged_ms,
    );

    // Lifecycle: what a restart costs, from the checkpoint on disk.
    let ms = median_ms(5, || {
        black_box(Registry::from_checkpoint_dir(&fixture.dir).ok());
    });
    out.insert("serve.registry.load_ms".into(), ms);
    let first = &fixture.pool[..per_request];
    let expected = fixture
        .vital
        .localize_batch(first)
        .map_err(|e| e.to_string())?;
    let mut cold_ms = Vec::new();
    for _ in 0..15 {
        let from = Instant::now();
        let cold = Served::boot(&fixture.dir)?;
        cold.first_answer(first, &expected)?;
        cold_ms.push(from.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("serve.cold_start_ms".into(), median(&cold_ms));
    Ok(log.into_spans())
}
