//! The benchmark's names: workloads, metrics, units, directions and bounds.
//!
//! This table is the single definition; `BENCHMARK.json` at the repo root
//! repeats it for the driver and a test holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["serve_single", "serve_bulk", "offline_eval", "train_fit"];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen; `0.0` is
    /// absolute (any worsening fails).
    pub bound: f64,
    /// `true`: defined, non-zero and steady on all four workloads, so it
    /// is in `BENCHMARK.json`'s `end_to_end` list and gated by the driver.
    /// `false`: the driver contract cannot hold it (see README, "Demoted
    /// metrics"); `run` and `compare` still report it on `workloads`, and
    /// the traced run reports it as a layer metric.
    pub gated: bool,
    /// Workloads `run` prints it for and `compare` judges it on.
    pub workloads: &'static [&'static str],
}

/// The issue's eight end-to-end metrics.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        gated: true,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        gated: true,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        gated: false,
        workloads: &["serve_single", "serve_bulk"],
    },
    EndToEnd {
        name: "throughput_obs_per_s",
        unit: "obs/s",
        better: Better::Higher,
        bound: 0.25,
        gated: true,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        gated: true,
        workloads: &WORKLOADS,
    },
    EndToEnd {
        name: "train_samples_per_s",
        unit: "samples/s",
        better: Better::Higher,
        bound: 0.25,
        gated: false,
        workloads: &["train_fit"],
    },
    EndToEnd {
        name: "mean_error_m",
        unit: "m",
        better: Better::Lower,
        bound: 0.02,
        gated: false,
        workloads: &["offline_eval"],
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        gated: false,
        workloads: &WORKLOADS,
    },
];

/// One per-layer metric of the traced run. Layer metrics carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in table order. A traced run prints all of
/// them on every workload; a layer the workload never calls reads 0.
pub const PER_LAYER: [PerLayer; 69] = [
    // serve edge, on the workload's real request and response bytes
    lower("serve.http.parse_request_us", "us"),
    lower("serve.http.write_response_us", "us"),
    lower("serve.codec.parse_request_us", "us"),
    lower("serve.codec.encode_response_us", "us"),
    higher("jsonio.parse_mb_per_s", "MB/s"),
    // serve::batcher, driven without sockets, and /metrics deltas
    lower("serve.batcher.submit_to_reply_ms", "ms"),
    lower("serve.batcher.wait_ms", "ms"),
    lower("serve.batcher.batches", "count"),
    higher("serve.batcher.mean_batch_obs", "obs"),
    lower("serve.rejected_busy", "count"),
    lower("serve.expired", "count"),
    lower("serve.metrics.latency_p50_us", "us"),
    // serve lifecycle
    lower("serve.registry.load_ms", "ms"),
    lower("serve.cold_start_ms", "ms"),
    lower("core.checkpoint.to_bytes_ms", "ms"),
    lower("core.checkpoint.from_bytes_ms", "ms"),
    lower("core.model.from_checkpoint_ms", "ms"),
    lower("graph.plan_build_ms", "ms"),
    lower("serve.server.unattributed_ms", "ms"),
    // load generator honesty
    higher("loadgen.requests_sent", "count"),
    higher("loadgen.requests_ok", "count"),
    lower("loadgen.conn_wait_ms", "ms"),
    lower("loadgen.latency_p99_ms", "ms"),
    lower("loadgen.latency_max_ms", "ms"),
    lower("loadgen.over_limit_share", "share"),
    // core, on the workload's own model and batch shape
    lower("core.prepare_patches_us", "us"),
    lower("core.prepare_patches_train_us", "us"),
    lower("core.predict_single_ms", "ms"),
    lower("core.localize_batch_ms", "ms"),
    lower("core.forward_ms", "ms"),
    lower("core.fit_epoch_ms", "ms"),
    lower("core.vital_fit_s", "s"),
    higher("core.vital.obs_per_s", "obs/s"),
    // graph::stats deltas over the timed phase
    lower("graph.plans_built", "count"),
    higher("graph.plan_hits", "count"),
    lower("graph.arena_slot_allocs", "count"),
    higher("graph.arena_reuses", "count"),
    // tensor shape table, shapes derived from the two VitalConfigs
    lower("tensor.matmul.paper_embed_b16_ms", "ms"),
    higher("tensor.matmul.paper_embed_b16_gflops", "GFLOP/s"),
    lower("tensor.matmul.paper_embed_b1_ms", "ms"),
    higher("tensor.matmul.paper_embed_b1_gflops", "GFLOP/s"),
    lower("tensor.matmul.paper_attn_scores_ms", "ms"),
    higher("tensor.matmul.paper_attn_scores_gflops", "GFLOP/s"),
    lower("tensor.matmul.fast_embed_b1_ms", "ms"),
    higher("tensor.matmul.fast_embed_b1_gflops", "GFLOP/s"),
    lower("tensor.matmul_tn.paper_embed_wgrad_ms", "ms"),
    higher("tensor.matmul_tn.paper_embed_wgrad_gflops", "GFLOP/s"),
    lower("tensor.matmul_nt.paper_embed_dx_ms", "ms"),
    higher("tensor.matmul_nt.paper_embed_dx_gflops", "GFLOP/s"),
    // simd through the public tensor ops at the paper model's row widths
    higher("simd.softmax_gbps", "GB/s"),
    higher("simd.layer_norm_gbps", "GB/s"),
    higher("simd.gelu_gbps", "GB/s"),
    lower("parallel.region_overhead_us", "us"),
    lower("parallel.pass_2t_ms", "ms"),
    higher("parallel.speedup_2t", "ratio"),
    // baselines and data synthesis
    higher("baselines.knn.obs_per_s", "obs/s"),
    higher("baselines.sherpa.obs_per_s", "obs/s"),
    higher("baselines.cnnloc.obs_per_s", "obs/s"),
    higher("baselines.wideep.obs_per_s", "obs/s"),
    higher("baselines.anvil.obs_per_s", "obs/s"),
    lower("baselines.fit_s", "s"),
    higher("fingerprint.collect_obs_per_s", "obs/s"),
    lower("trace.overhead_share", "share"),
    // unit-of-work p50 of the run's traced and untraced halves
    lower("trace.traced_p50_ms", "ms"),
    lower("trace.untraced_p50_ms", "ms"),
    // demoted end-to-end metrics (README, "Demoted metrics")
    lower("latency_p90_ms", "ms"),
    higher("train_samples_per_s", "samples/s"),
    lower("mean_error_m", "m"),
    lower("failed_share", "share"),
];

/// Fixed settings the host never changes (README, "Fixed inputs").
pub mod fixed {
    /// Measured phase, in seconds: `run_seconds` of `BENCHMARK.json`.
    pub const RUN_SECONDS: f64 = 12.0;
    /// Open-loop arrival rate of `serve_single`, requests per second.
    pub const SINGLE_RATE_PER_S: f64 = 300.0;
    /// Observations per request on `serve_bulk`.
    pub const BULK_OBS: usize = 16;
    /// Load-generator threads of `serve_single`, one keep-alive connection
    /// each: enough that a due request all but never waits for a free one.
    pub const SINGLE_CONNECTIONS: usize = 4;
    /// Closed-loop clients of `serve_bulk`: 2 × 16 observations fill one
    /// `max_batch`.
    pub const BULK_CLIENTS: usize = 2;
    /// Compute threads of every workload, and of the server's worker.
    pub const COMPUTE_THREADS: usize = 1;
    /// Observations per `train_fit` epoch (two steps of 16).
    pub const TRAIN_FIT_OBS: usize = 32;
    /// Observations the paper model is trained on in `serve_bulk` set-up.
    pub const BULK_TRAIN_OBS: usize = 64;
    /// Group-training set: every third observation of the 80% split.
    pub const TRAIN_STRIDE: usize = 3;
    /// Observations of the evaluation pool the paper-model workloads use.
    pub const PAPER_POOL: usize = 128;
    /// Observations the correctness gate checks batch-against-single on.
    pub const GATE_SAMPLE: usize = 64;
    /// Set-ups per untraced run; `setup_s` is their median.
    pub const SETUP_REPS: usize = 3;
    /// Equal-work blocks the throughput median is taken over.
    pub const BLOCKS: usize = 20;
    /// Answers slower than this count in `loadgen.over_limit_share`.
    pub const SINGLE_LIMIT_MS: f64 = 10.0;
    pub const BULK_LIMIT_MS: f64 = 150.0;
}
