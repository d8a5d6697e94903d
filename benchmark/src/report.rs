//! Result records, the host stamp, and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use jsonio::Json;

use crate::fixture::batcher_config;
use crate::spec::{self, fixed, Better, EndToEnd};
use crate::stats;

/// One metric as a run measured it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, and their quartiles (equal to the value
    /// for a single reading).
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    pub fn single(value: f64, unit: &'static str) -> Self {
        Measured {
            value,
            unit,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median_of(samples: &[f64], unit: &'static str) -> Self {
        let (q1, q3) = stats::quartiles(samples);
        Measured {
            value: stats::median(samples),
            unit,
            n: samples.len(),
            q1,
            q3,
        }
    }
}

/// Everything one run of one workload produced.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub metrics: BTreeMap<String, Measured>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics the driver contract asks for in this mode: every gated
    /// end-to-end metric untraced, every per-layer metric traced.
    fn contract_metrics(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END
                .iter()
                .filter(|m| m.gated)
                .map(|m| (m.name, m.unit))
                .collect()
        }
    }

    /// The one-line JSON object the driver reads from the last line.
    pub fn driver_line(&self) -> String {
        let metrics = self.contract_metrics().into_iter().map(|(name, unit)| {
            let value = self.metrics.get(name).map_or(0.0, |m| m.value);
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_json_string()
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, m)| {
            (
                name.as_str(),
                Json::obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit)),
                    ("n", Json::from(m.n)),
                    ("q1", Json::from(m.q1)),
                    ("q3", Json::from(m.q3)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("traced", Json::from(self.traced)),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "first_error",
                self.first_error.as_deref().map_or(Json::Null, Json::from),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// The package directory: where `out/` lives and where `../.git` is.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The checked-out commit, read from `../.git` without running git; a
/// checkout that is not a repository reads `unknown`.
fn commit() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

/// Where and with what settings the numbers were taken.
pub fn host_stamp() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(key))
            .and_then(|line| line.split_once(':'))
            .map_or("", |(_, value)| value.trim())
    };
    let flags: Vec<&str> = field("flags")
        .split_whitespace()
        .filter(|f| {
            matches!(
                *f,
                "sse4_2" | "avx" | "avx2" | "fma" | "avx512f" | "avx512vl" | "hypervisor"
            )
        })
        .collect();
    let batcher = batcher_config();
    Json::obj([
        ("commit", Json::from(commit())),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("cpu_model", Json::from(field("model name"))),
        ("cpu_flags", Json::from(flags.join(" "))),
        ("simd_level", Json::from(simd::active_level().name())),
        (
            "settings",
            Json::obj([
                ("server_workers", Json::from(batcher.workers)),
                ("server_threads", Json::from(batcher.threads.unwrap_or(0))),
                ("max_batch", Json::from(batcher.max_batch)),
                (
                    "max_wait_us",
                    Json::from(batcher.max_wait.as_micros() as u64),
                ),
                ("queue_cap", Json::from(batcher.queue_cap)),
                ("single_connections", Json::from(fixed::SINGLE_CONNECTIONS)),
                ("bulk_clients", Json::from(fixed::BULK_CLIENTS)),
                ("single_rate_per_s", Json::from(fixed::SINGLE_RATE_PER_S)),
                ("bulk_obs_per_request", Json::from(fixed::BULK_OBS)),
                ("compute_threads", Json::from(fixed::COMPUTE_THREADS)),
                ("train_fit_obs", Json::from(fixed::TRAIN_FIT_OBS)),
                ("setup_reps", Json::from(fixed::SETUP_REPS)),
                ("blocks", Json::from(fixed::BLOCKS)),
            ]),
        ),
    ])
}

pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    jsonio::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How a metric fared between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of a side disagree by more than the bound, so a change
    /// within it can neither be shown nor ruled out.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) pair judged between base runs and change runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    pub base: f64,
    pub change: f64,
    /// Share of the base median the change median is worse by (negative:
    /// better).
    pub worse_by: f64,
    /// The wider of the two sides' run-to-run spreads, as a share of the
    /// side's median: quartile distance from four runs up, full range
    /// below that, 0 for a single run.
    pub spread: f64,
    pub verdict: Verdict,
}

fn run_spread(values: &[f64]) -> f64 {
    let median = stats::median(values);
    if values.len() < 2 || median == 0.0 {
        0.0
    } else if values.len() < 4 {
        let v = stats::sorted(values);
        (v[v.len() - 1] - v[0]) / median.abs()
    } else {
        stats::spread(values)
    }
}

/// Judges the change runs against the base runs of one metric.
pub fn judge(metric: &EndToEnd, base: &[f64], change: &[f64]) -> Judged {
    let (a, b) = (stats::median(base), stats::median(change));
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if a == 0.0 {
        if sign * (b - a) > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        sign * (b - a) / a.abs()
    };
    let spread = run_spread(base).max(run_spread(change));
    let every = |holds: fn(f64) -> bool| {
        base.iter()
            .all(|&x| change.iter().all(|&y| holds(sign * (y - x))))
    };
    let verdict = if metric.bound == 0.0 {
        // Absolute: nothing may get worse at all.
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if every(|d| d < 0.0) {
        Verdict::Ok
    } else if spread > metric.bound && !(worse_by > metric.bound && every(|d| d > 0.0)) {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Judged {
        base: a,
        change: b,
        worse_by,
        spread,
        verdict,
    }
}

/// The values of `metric` on `workload` across a set of result files.
fn values_of(results: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Result files named by `path`: the file itself, or every `*.json` in a
/// directory that holds a `workloads` object.
pub fn load_results(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let file = entry.map_err(|e| e.to_string())?.path();
            if file.extension().is_some_and(|e| e == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut results = Vec::new();
    for file in files {
        let doc = read_json(&file)?;
        if doc.get("workloads").is_some() {
            results.push(doc);
        }
    }
    if results.is_empty() {
        return Err(format!("{} holds no result file", path.display()));
    }
    Ok(results)
}

/// Prints every (workload, end-to-end metric) pair of base `a` against
/// change `b`; returns whether all are `ok`.
pub fn compare(a: &[Json], b: &[Json]) -> bool {
    println!(
        "{:<13} {:<21} {:>12} {:>12} {:>7}  {:>7} {:>6} {:>7}  verdict",
        "workload", "metric", "base A", "change B", "unit", "B/A", "bound", "spread"
    );
    let mut all_ok = true;
    for workload in spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            if !metric.workloads.contains(&workload) {
                continue;
            }
            let base = values_of(a, workload, metric.name);
            let change = values_of(b, workload, metric.name);
            if base.is_empty() || change.is_empty() {
                println!("{workload:<13} {:<21} missing on one side", metric.name);
                all_ok = false;
                continue;
            }
            let judged = judge(metric, &base, &change);
            all_ok &= judged.verdict == Verdict::Ok;
            let ratio = if judged.base == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", judged.change / judged.base)
            };
            println!(
                "{workload:<13} {:<21} {:>12.4} {:>12.4} {:>7}  {ratio:>7} {:>6.2} {:>7.3}  {} (A: {} runs, B: {} runs)",
                metric.name,
                judged.base,
                judged.change,
                metric.unit,
                metric.bound,
                judged.spread,
                judged.verdict.as_str(),
                base.len(),
                change.len(),
            );
        }
    }
    println!("B/A is the change median over the base median; base = A.");
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with the table's shape and a bound of this test's own.
    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            gated: true,
            workloads: &spec::WORKLOADS,
        }
    }

    #[test]
    fn compare_verdicts() {
        let p50 = &metric(Better::Lower, 0.10);
        let steady = [2.30, 2.32, 2.28, 2.31, 2.29];
        // Within the bound.
        let j = judge(p50, &steady, &[2.35, 2.40, 2.38, 2.36, 2.37]);
        assert_eq!(j.verdict, Verdict::Ok);
        assert!((j.worse_by - (2.37 - 2.30) / 2.30).abs() < 1e-12);
        // Beyond it.
        let j = judge(p50, &steady, &[2.60, 2.62, 2.61, 2.63, 2.59]);
        assert_eq!(j.verdict, Verdict::Worse);
        // Runs that disagree by more than the bound decide nothing...
        let noisy = [2.0, 2.9, 2.3, 2.6, 2.1];
        assert_eq!(judge(p50, &steady, &noisy).verdict, Verdict::Unresolved);
        // ...unless every change run beats every base run,
        assert_eq!(
            judge(p50, &[3.5, 4.4, 3.1, 3.9], &noisy).verdict,
            Verdict::Ok
        );
        // ...or loses to every base run by more than the bound.
        assert_eq!(
            judge(p50, &steady, &[3.5, 4.4, 3.1, 3.9]).verdict,
            Verdict::Worse
        );

        // Higher is better: a drop is what counts as worse.
        let rate = &metric(Better::Higher, 0.10);
        let base = [565.0, 570.0, 560.0];
        assert_eq!(
            judge(rate, &base, &[590.0, 600.0, 595.0]).verdict,
            Verdict::Ok
        );
        let j = judge(rate, &base, &[480.0, 485.0, 482.0]);
        assert_eq!(j.verdict, Verdict::Worse);
        assert!(j.worse_by > 0.10);

        // failed_share is absolute: any failure where there was none.
        let failed = &metric(Better::Lower, 0.0);
        assert_eq!(judge(failed, &[0.0], &[0.0]).verdict, Verdict::Ok);
        assert_eq!(judge(failed, &[0.0], &[0.001]).verdict, Verdict::Worse);

        // One run a side has no spread to speak of.
        assert_eq!(judge(p50, &[2.3], &[2.4]).spread, 0.0);
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let doc = read_json(&package_dir().join("../BENCHMARK.json")).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| match m.get(field).unwrap() {
                    Json::Str(s) => s.clone(),
                    other => other.to_json_string(),
                })
                .collect()
        };
        assert_eq!(names("workloads", "name"), spec::WORKLOADS);
        assert_eq!(
            crate::fixture::Workload::ALL.map(crate::fixture::Workload::name),
            spec::WORKLOADS
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(fixed::RUN_SECONDS)
        );
        let gated: Vec<&EndToEnd> = spec::END_TO_END.iter().filter(|m| m.gated).collect();
        let of = |f: fn(&EndToEnd) -> String| gated.iter().map(|m| f(m)).collect::<Vec<_>>();
        assert_eq!(names("end_to_end", "name"), of(|m| m.name.to_string()));
        assert_eq!(names("end_to_end", "unit"), of(|m| m.unit.to_string()));
        assert_eq!(
            names("end_to_end", "better"),
            of(|m| m.better.as_str().to_string())
        );
        assert_eq!(
            names("end_to_end", "bound"),
            of(|m| Json::from(m.bound).to_json_string())
        );
        let layer = |f: fn(&spec::PerLayer) -> &'static str| -> Vec<String> {
            spec::PER_LAYER.iter().map(|m| f(m).to_string()).collect()
        };
        assert_eq!(names("per_layer", "name"), layer(|m| m.name));
        assert_eq!(names("per_layer", "unit"), layer(|m| m.unit));
        assert_eq!(names("per_layer", "better"), layer(|m| m.better.as_str()));
    }
}
