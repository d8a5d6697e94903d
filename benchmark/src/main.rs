//! The repo's benchmark: four workloads, end-to-end metrics measured
//! untraced, per-layer metrics from a separate traced run. Everything is
//! measured from outside, by timing calls into the product crates' public
//! functions. See `README.md` for every name and how to run it.
//!
//! ```text
//! vital-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, for the driver
//! vital-benchmark run   [--seed N] [--seconds S] [--smoke] [--poison] [--out FILE]
//! vital-benchmark trace [--seed N] [--seconds S] [--smoke]
//! vital-benchmark compare A B
//! ```

#![forbid(unsafe_code)]

mod fixture;
mod gate;
mod layers;
mod loadgen;
mod report;
mod schedule;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use jsonio::Json;

use fixture::{Fixture, Workload};
use gate::Expected;
use report::{Measured, Record};
use spec::fixed;
use workloads::Phase;

const SMOKE_SECONDS: f64 = 2.0;

/// Mean localization error above which a fast-config VITAL has not
/// learned the building (it reaches well under a metre).
const ACCURACY_LIMIT_M: f64 = 2.5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    poison: bool,
    out: Option<PathBuf>,
    rest: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: fixed::RUN_SECONDS,
        traced: false,
        poison: false,
        out: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!("unknown workload {name:?}; one of {:?}", spec::WORKLOADS)
                })?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => parsed.seconds = SMOKE_SECONDS,
            "--poison" => parsed.poison = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.rest.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| run_all(&a, false)),
        Some("trace") => parse_args(&args[1..]).and_then(|a| run_all(&a, true)),
        Some("compare") => parse_args(&args[1..]).and_then(|a| compare(&a)),
        _ => parse_args(&args).and_then(|a| match a.workload {
            // Every workload computes on a fixed thread count, whatever
            // the host has.
            Some(workload) => {
                parallel::with_threads(fixed::COMPUTE_THREADS, || run_one(workload, &a))
            }
            None => Err("usage: --workload W --seed N --seconds S --trace 0|1 | run | trace | compare A B (see README.md)".into()),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vital-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `compare A B`: each a result file or a directory of them.
fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.rest.as_slice() else {
        return Err("compare takes two result files or directories: compare A B".into());
    };
    let base = report::load_results(Path::new(a))?;
    let change = report::load_results(Path::new(b))?;
    Ok(report::compare(&base, &change))
}

/// `run` / `trace`: every workload in a process of its own, so that one
/// workload's heap, plans and threads cannot touch the next one's numbers.
fn run_all(args: &Args, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_ok = true;
    let mut records = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if args.poison {
            child.arg("--poison");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {} process: {e}", workload.name()))?;
        all_ok &= status.success();
        let file = report::out_dir().join(record_file(workload, traced));
        if let Ok(record) = report::read_json(&file) {
            records.push((workload.name(), record));
        }
    }
    let name = if traced {
        "layers.json"
    } else {
        "results.json"
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| report::out_dir().join(name));
    let doc = Json::obj([
        ("host", report::host_stamp()),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(traced)),
        ("workloads", Json::obj(records)),
    ]);
    report::write_json(&out, &doc)?;
    println!("wrote {}", out.display());
    if traced {
        print_layer_table(&doc);
    }
    Ok(all_ok)
}

fn record_file(workload: Workload, traced: bool) -> String {
    if traced {
        format!("trace-{}.json", workload.name())
    } else {
        format!("{}.json", workload.name())
    }
}

/// Every per-layer metric, one column per workload.
fn print_layer_table(doc: &Json) {
    print!("{:<44} {:>8} {:>6}", "per-layer metric", "unit", "better");
    for workload in spec::WORKLOADS {
        print!(" {workload:>14}");
    }
    println!();
    for metric in &spec::PER_LAYER {
        print!(
            "{:<44} {:>8} {:>6}",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
        for workload in spec::WORKLOADS {
            let value = doc
                .get("workloads")
                .and_then(|w| {
                    w.get(workload)?
                        .get("metrics")?
                        .get(metric.name)?
                        .get("value")
                })
                .and_then(Json::as_f64);
            match value {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// One workload in this process: set-up, gate, phase, report.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let scratch = |rep: usize| {
        report::out_dir().join(format!(
            "tmp-{}-{}-{rep}",
            workload.name(),
            std::process::id()
        ))
    };
    // `setup_s` is the median of several full set-ups; the last one's
    // fixture is the one measured. The traced run reports no set-up time
    // and sets up once.
    let reps = if args.traced { 1 } else { fixed::SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut fixture = None;
    for rep in 0..reps {
        drop(fixture.take());
        let built = Fixture::build(workload, args.seed, &scratch(rep))?;
        setup_s.push(built.timings.total_s);
        fixture = Some(built);
    }
    let fixture = fixture.expect("at least one set-up ran");

    let mut expected = Expected::compute(&fixture)?;
    if args.poison {
        expected.poison();
    }
    let gate = gate::run(&fixture, &expected)?;
    let accuracy =
        vital::evaluate_localizer(&fixture.vital, &fixture.pool_dataset(), &fixture.building)
            .map_err(|e| e.to_string())?;
    let mean_error_m = f64::from(accuracy.mean_error_m());

    let mut record = Record {
        workload: workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        attempted: gate.attempted + 1,
        failed: gate.failed,
        first_error: gate.first_error,
        metrics: BTreeMap::new(),
    };
    if !workload.paper_model() && mean_error_m > ACCURACY_LIMIT_M {
        record.failed += 1;
        record.first_error.get_or_insert(format!(
            "mean error {mean_error_m:.2} m is over the {ACCURACY_LIMIT_M} m accuracy limit"
        ));
    }

    let mut extra = Json::Null;
    if args.traced {
        // Half the time untraced, half traced: their difference is what
        // tracing costs, measured within one process.
        let untraced = workloads::run(&fixture, &expected, args.seed, args.seconds / 2.0, false)?;
        let traced = workloads::run(&fixture, &expected, args.seed, args.seconds / 2.0, true)?;
        absorb(&mut record, &untraced);
        absorb(&mut record, &traced);
        extra = layer_metrics(&fixture, &untraced, traced, mean_error_m, &mut record)?;
    } else {
        let phase = workloads::run(&fixture, &expected, args.seed, args.seconds, false)?;
        absorb(&mut record, &phase);
        end_to_end_metrics(&setup_s, &phase, mean_error_m, &mut record);
    }
    drop(fixture);

    for (name, metric) in &record.metrics {
        println!(
            "{:<13} {name:<44} {:>14.4} {}",
            record.workload, metric.value, metric.unit
        );
    }
    if let Some(error) = &record.first_error {
        println!("{:<13} FAILED: {error}", record.workload);
    }
    let mut doc = record.to_json();
    if let (Json::Obj(members), Json::Obj(more)) = (&mut doc, extra) {
        members.extend(more);
    }
    report::write_json(
        &report::out_dir().join(record_file(workload, args.traced)),
        &doc,
    )?;
    println!("{}", record.driver_line());
    Ok(record.correct())
}

fn absorb(record: &mut Record, phase: &Phase) {
    record.attempted += phase.attempted;
    record.failed += phase.failed;
    if record.first_error.is_none() {
        record.first_error.clone_from(&phase.first_error);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end_metrics(setup_s: &[f64], phase: &Phase, mean_error_m: f64, record: &mut Record) {
    let latency = stats::sorted(&phase.latency_ms);
    let (q1, q3) = stats::quartiles(&latency);
    let throughput = Measured::median_of(&phase.rates, "obs/s");
    let mut put = |name: &str, m: Measured| {
        record.metrics.insert(name.to_string(), m);
    };
    put("setup_s", Measured::median_of(setup_s, "s"));
    put("latency_p50_ms", Measured::median_of(&latency, "ms"));
    put(
        "latency_p90_ms",
        Measured {
            value: stats::tail_percentile(&latency, 0.90).0,
            unit: "ms",
            n: latency.len(),
            q1,
            q3,
        },
    );
    if record.workload == Workload::TrainFit.name() {
        put(
            "train_samples_per_s",
            Measured {
                unit: "samples/s",
                ..throughput.clone()
            },
        );
    }
    put("throughput_obs_per_s", throughput);
    put("peak_rss_mb", Measured::single(peak_rss_mb(), "MB"));
    put("mean_error_m", Measured::single(mean_error_m, "m"));
    put(
        "failed_share",
        Measured::single(
            record.failed as f64 / record.attempted.max(1) as f64,
            "share",
        ),
    );
}

/// The traced run's metrics: what the phases counted, then the probes.
/// Returns the members to add to the trace file (spans, tables).
fn layer_metrics(
    fixture: &Fixture,
    untraced: &Phase,
    traced: Phase,
    mean_error_m: f64,
    record: &mut Record,
) -> Result<Json, String> {
    let mut out: layers::Metrics64 = traced
        .layer
        .iter()
        .map(|(name, value)| (name.to_string(), *value))
        .collect();
    let untraced_p50 = stats::median(&untraced.latency_ms);
    let traced_p50 = stats::median(&traced.latency_ms);
    out.insert("trace.untraced_p50_ms".into(), untraced_p50);
    out.insert("trace.traced_p50_ms".into(), traced_p50);
    out.insert(
        "trace.overhead_share".into(),
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    out.insert(
        "latency_p90_ms".into(),
        stats::tail_percentile(&stats::sorted(&traced.latency_ms), 0.90).0,
    );
    out.insert("mean_error_m".into(), mean_error_m);
    out.insert(
        "failed_share".into(),
        record.failed as f64 / record.attempted.max(1) as f64,
    );
    if fixture.workload == Workload::TrainFit {
        out.insert("core.fit_epoch_ms".into(), traced_p50);
        out.insert("train_samples_per_s".into(), stats::median(&traced.rates));
    }

    // The batch the model actually saw: what the server dispatched, a
    // training step, or the whole pool of an evaluation pass.
    let per_request = fixture.workload.obs_per_request();
    let batch = match fixture.workload {
        Workload::OfflineEval => fixture.pool.len(),
        Workload::TrainFit => per_request,
        _ => (out["serve.batcher.mean_batch_obs"].round() as usize).max(1),
    };
    let shape_table = layers::kernels(&mut out);
    let mut spans = traced.spans;
    if fixture.served.is_some() {
        let in_flight = batch.div_ceil(per_request);
        spans.extend(layers::serve(fixture, in_flight, untraced_p50, &mut out)?);
    }
    layers::core(fixture, batch, &mut out)?;
    layers::two_thread_pass(fixture, untraced_p50, &mut out)?;

    for metric in &spec::PER_LAYER {
        let value = out.remove(metric.name).unwrap_or(0.0);
        record.metrics.insert(
            metric.name.to_string(),
            Measured::single(value, metric.unit),
        );
    }
    if let Some(stray) = out.keys().next() {
        return Err(format!("layer metric {stray:?} is not in spec::PER_LAYER"));
    }
    let table = trace::layer_table(&spans);
    println!(
        "{:<13} {:<34} {:>7} {:>12} {:>12} {:>12}",
        record.workload, "span", "count", "total ms", "self ms", "median us"
    );
    for row in &table {
        println!(
            "{:<13} {:<34} {:>7} {:>12.3} {:>12.3} {:>12.2}",
            record.workload, row.name, row.count, row.total_ms, row.self_ms, row.median_us
        );
    }
    Ok(Json::obj([
        ("layer_table", trace::layer_table_json(&table)),
        ("shape_table", shape_table),
        ("spans", trace::spans_json(&spans)),
    ]))
}
