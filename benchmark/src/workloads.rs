//! The timed phase of each workload.

use std::collections::BTreeMap;
use std::time::Instant;

use jsonio::Json;
use vital::VitalModel;

use crate::fixture::{Fixture, Workload};
use crate::gate::Expected;
use crate::loadgen::{self, Arrivals, Target};
use crate::schedule;
use crate::spec::fixed;
use crate::stats;
use crate::trace::{Span, SpanLog};

/// What a timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Latency of each unit of work — request, evaluation pass or epoch —
    /// in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Observations per second: one value per equal-work block, or the
    /// phase's single overall rate in the open loop, where the schedule
    /// and not the server sets the pace.
    pub rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub spans: Vec<Span>,
    /// Layer counters the phase itself yields (deltas over the phase).
    pub layer: BTreeMap<&'static str, f64>,
}

/// `graph::stats` counters, for deltas over a phase.
struct GraphCounters([u64; 4]);

impl GraphCounters {
    const NAMES: [&'static str; 4] = [
        "graph.plans_built",
        "graph.plan_hits",
        "graph.arena_slot_allocs",
        "graph.arena_reuses",
    ];

    fn now() -> Self {
        use graph::stats::{arena_reuses, arena_slot_allocs, plan_hits, plans_built};
        GraphCounters([
            plans_built(),
            plan_hits(),
            arena_slot_allocs(),
            arena_reuses(),
        ])
    }
}

/// Runs the workload's phase for about `seconds`.
pub fn run(
    fixture: &Fixture,
    expected: &Expected,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let before = GraphCounters::now();
    let mut phase = match fixture.workload {
        Workload::ServeSingle | Workload::ServeBulk => {
            serve(fixture, expected, seed, seconds, traced)?
        }
        Workload::OfflineEval => offline_eval(fixture, expected, seconds, traced)?,
        Workload::TrainFit => train_fit(fixture, seconds, traced)?,
    };
    let after = GraphCounters::now();
    for (i, name) in GraphCounters::NAMES.into_iter().enumerate() {
        phase.layer.insert(name, (after.0[i] - before.0[i]) as f64);
    }
    Ok(phase)
}

/// The counters of `GET /metrics` the layer table reads.
struct ServerCounters {
    batches: f64,
    batched_obs: f64,
    rejected_busy: f64,
    expired: f64,
    latency_p50_us: f64,
}

impl ServerCounters {
    fn fetch(fixture: &Fixture) -> Result<Self, String> {
        let served = fixture.served.as_ref().ok_or("no server in this fixture")?;
        let doc = loadgen::get_json(served.addr(), "/metrics")?;
        let number = |value: Option<&Json>| value.and_then(Json::as_f64).unwrap_or(0.0);
        let sum = |key: &str, each: &dyn Fn(&Json) -> f64| -> f64 {
            doc.get(key)
                .and_then(Json::as_array)
                .map_or(0.0, |items| items.iter().map(each).sum())
        };
        Ok(ServerCounters {
            batches: sum("batches_dispatched", &|n| n.as_f64().unwrap_or(0.0)),
            batched_obs: sum("batch_size_hist", &|bucket| {
                number(bucket.get("size")) * number(bucket.get("count"))
            }),
            rejected_busy: number(doc.get("rejected_busy")),
            expired: number(doc.get("jobs_expired")),
            latency_p50_us: number(doc.get("latency_us").and_then(|l| l.get("p50"))),
        })
    }
}

/// `serve_single` (open loop) and `serve_bulk` (closed loop).
fn serve(
    fixture: &Fixture,
    expected: &Expected,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let served = fixture.served.as_ref().ok_or("no server in this fixture")?;
    let per_request = fixture.workload.obs_per_request();
    let requests = fixture.request_wires();
    let answers: Vec<Vec<usize>> = expected
        .vital()
        .chunks_exact(per_request)
        .map(<[usize]>::to_vec)
        .collect();
    let open = fixture.workload == Workload::ServeSingle;
    let arrivals = if open {
        Arrivals::Open {
            due_s: schedule::poisson_schedule(seed, fixed::SINGLE_RATE_PER_S, seconds),
        }
    } else {
        Arrivals::Closed { seconds }
    };
    let order = schedule::request_order(seed, requests.len(), 4096);
    let target = Target {
        addr: served.addr(),
        requests: &requests,
        expected: &answers,
        order: &order,
    };

    let before = ServerCounters::fetch(fixture)?;
    let load = loadgen::drive(&target, &arrivals, fixture.workload.connections(), traced);
    let after = ServerCounters::fetch(fixture)?;

    let scheduled = match &arrivals {
        Arrivals::Open { due_s } => due_s.len(),
        Arrivals::Closed { .. } => load.samples.len(),
    };
    let ok = load.samples.iter().filter(|s| s.ok).count();
    let latency_ms: Vec<f64> = load
        .samples
        .iter()
        .map(|s| (s.done_s - s.due_s) * 1e3)
        .collect();
    let done_s: Vec<f64> = load.samples.iter().map(|s| s.done_s).collect();
    let rates = match done_s.last() {
        Some(&last) if open => vec![(ok * per_request) as f64 / last],
        _ => stats::block_rates(&done_s, per_request as f64, fixed::BLOCKS),
    };

    let limit_ms = if open {
        fixed::SINGLE_LIMIT_MS
    } else {
        fixed::BULK_LIMIT_MS
    };
    let within = load
        .samples
        .iter()
        .zip(&latency_ms)
        .filter(|(s, &ms)| s.ok && ms <= limit_ms)
        .count();
    let sorted = stats::sorted(&latency_ms);
    let batches = after.batches - before.batches;
    let mut layer = BTreeMap::new();
    layer.insert("loadgen.requests_sent", load.samples.len() as f64);
    layer.insert("loadgen.requests_ok", ok as f64);
    layer.insert(
        "loadgen.conn_wait_ms",
        load.samples
            .iter()
            .map(|s| (s.sent_s - s.due_s) * 1e3)
            .sum::<f64>()
            / load.samples.len().max(1) as f64,
    );
    layer.insert(
        "loadgen.latency_p99_ms",
        stats::tail_percentile(&sorted, 0.99).0,
    );
    layer.insert(
        "loadgen.latency_max_ms",
        sorted.last().copied().unwrap_or(0.0),
    );
    layer.insert(
        "loadgen.over_limit_share",
        1.0 - within as f64 / scheduled.max(1) as f64,
    );
    layer.insert("serve.batcher.batches", batches);
    layer.insert(
        "serve.batcher.mean_batch_obs",
        (after.batched_obs - before.batched_obs) / batches.max(1.0),
    );
    layer.insert(
        "serve.rejected_busy",
        after.rejected_busy - before.rejected_busy,
    );
    layer.insert("serve.expired", after.expired - before.expired);
    layer.insert("serve.metrics.latency_p50_us", after.latency_p50_us);

    Ok(Phase {
        latency_ms,
        rates,
        attempted: scheduled as u64,
        failed: (scheduled - ok) as u64,
        first_error: load.first_error,
        spans: load.spans,
        layer,
    })
}

/// `offline_eval`: evaluation passes of all six frameworks over the pool.
fn offline_eval(
    fixture: &Fixture,
    expected: &Expected,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let localizers = fixture.localizers();
    let start = Instant::now();
    let mut log = SpanLog::new(traced, start, 0);
    let mut phase = Phase::default();
    let mut busy_s = vec![0.0; localizers.len()];
    let mut done_s = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let pass = done_s.len() as u64;
        let pass_started = Instant::now();
        let root = log.open("offline.pass", None, pass, pass_started);
        for (i, (name, localizer)) in localizers.iter().enumerate() {
            let from = Instant::now();
            let predictions = localizer
                .localize_batch(&fixture.pool)
                .map_err(|e| format!("{name}: {e}"))?;
            let to = Instant::now();
            busy_s[i] += (to - from).as_secs_f64();
            log.record(layer_names(name).0, Some(root), pass, from, to);
            phase.attempted += 1;
            if predictions != expected.of(i) {
                phase.failed += 1;
                phase.first_error.get_or_insert_with(|| {
                    format!("{name}: pass {pass} differs from the reference predictions")
                });
            }
        }
        let pass_ended = Instant::now();
        log.close(root, pass_ended);
        phase
            .latency_ms
            .push((pass_ended - pass_started).as_secs_f64() * 1e3);
        done_s.push((pass_ended - start).as_secs_f64());
    }
    let per_pass = (localizers.len() * fixture.pool.len()) as f64;
    phase.rates = stats::block_rates(&done_s, per_pass, fixed::BLOCKS);
    let localized = (done_s.len() * fixture.pool.len()) as f64;
    for (i, (name, _)) in localizers.iter().enumerate() {
        if layer_names(name).1.is_empty() {
            continue;
        }
        phase.layer.insert(
            layer_names(name).1,
            localized / busy_s[i].max(f64::MIN_POSITIVE),
        );
    }
    phase.spans = log.into_spans();
    Ok(phase)
}

/// Span name and rate metric of each framework, by its table name.
fn layer_names(localizer: &str) -> (&'static str, &'static str) {
    match localizer {
        "VITAL" => ("core.localize_batch", "core.vital.obs_per_s"),
        "KNN" => ("baselines.knn.localize_batch", "baselines.knn.obs_per_s"),
        "ANVIL" => (
            "baselines.anvil.localize_batch",
            "baselines.anvil.obs_per_s",
        ),
        "SHERPA" => (
            "baselines.sherpa.localize_batch",
            "baselines.sherpa.obs_per_s",
        ),
        "CNNLoc" => (
            "baselines.cnnloc.localize_batch",
            "baselines.cnnloc.obs_per_s",
        ),
        "WiDeep" => (
            "baselines.wideep.localize_batch",
            "baselines.wideep.obs_per_s",
        ),
        // A framework added to the suite later is timed in the pass and
        // shows in the span table; it has no rate metric until one is named.
        _ => ("baselines.other.localize_batch", ""),
    }
}

/// `train_fit`: one `fit_with_progress` call on the paper config whose
/// epoch count fills `seconds`, sized from the warm-up epoch of set-up.
fn train_fit(fixture: &Fixture, seconds: f64, traced: bool) -> Result<Phase, String> {
    let warm_epoch_s = fixture.timings.vital_fit_s / fixture.fit_epochs() as f64;
    let mut config = fixture.vital.config().clone();
    config.train.epochs = ((seconds / warm_epoch_s) as usize).max(4);
    let mut model = VitalModel::new(config).map_err(|e| e.to_string())?;

    let start = Instant::now();
    let mut marks: Vec<(Instant, f32)> = Vec::new();
    model
        .fit_with_progress(&fixture.train, |_, loss| marks.push((Instant::now(), loss)))
        .map_err(|e| e.to_string())?;
    let ended = Instant::now();

    let mut log = SpanLog::new(traced, start, 0);
    let root = log.open("core.fit", None, 0, start);
    let mut phase = Phase::default();
    let mut done_s = Vec::new();
    let mut from = start;
    for (epoch, &(at, loss)) in marks.iter().enumerate() {
        log.record("core.fit.epoch", Some(root), epoch as u64, from, at);
        phase.latency_ms.push((at - from).as_secs_f64() * 1e3);
        done_s.push((at - start).as_secs_f64());
        phase.attempted += 1;
        if !loss.is_finite() {
            phase.failed += 1;
            phase
                .first_error
                .get_or_insert_with(|| format!("epoch {epoch}: loss {loss}"));
        }
        from = at;
    }
    log.close(root, ended);
    phase.rates = stats::block_rates(&done_s, fixture.train.len() as f64, fixed::BLOCKS);
    phase.spans = log.into_spans();
    Ok(phase)
}
