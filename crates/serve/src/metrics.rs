//! Server-side observability: request counters, a batch-size histogram, a
//! compact latency histogram with p50/p95/p99, live queue depth and
//! per-worker dispatch counters — everything the `GET /metrics` endpoint
//! reports.
//!
//! Counters are lock-free atomics updated on the request path; the
//! batch-size histogram is a small map behind a [`Leaf`] lock, written only
//! by the dispatch workers.
//!
//! # Multi-worker semantics
//!
//! With N dispatch workers (`--workers`):
//!
//! * `queue_depth` is **global** — all workers pull from one shared bounded
//!   queue, so the reported depth is the number of jobs buffered for the
//!   whole server, not per worker.
//! * `batch_size_hist` **aggregates across workers**: every dispatched
//!   batch lands in the same histogram regardless of which worker ran it.
//! * `batches_dispatched` is **per worker** (one counter per worker, index
//!   = worker id) — the visible proof that load actually spreads across
//!   replicas instead of serializing through one thread.
//! * `live_workers` equals `workers` from start until a drain: a dispatch
//!   worker survives any panic in its batch, so there is no restart to
//!   count, only the failed jobs in `jobs_failed`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use graph::sync::Leaf;
use jsonio::Json;

/// Sub-bucket bits per octave of the latency histogram: 4 sub-buckets per
/// power of two bounds the percentile overestimate at 25%.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// 4 unit buckets + 4 sub-buckets for each of the 62 remaining octaves of a
/// `u64` microsecond count.
const BUCKETS: usize = SUBS + 62 * SUBS;

/// A log-linear (HDR-style) histogram of microsecond latencies: exact below
/// 4 µs, ≤25% relative resolution above, lock-free recording.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    max_us: AtomicU64,
}

fn bucket_index(us: u64) -> usize {
    if us < SUBS as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros() as usize; // >= SUB_BITS here
    let sub = ((us >> (octave - SUB_BITS as usize)) as usize) - SUBS;
    (octave - SUB_BITS as usize + 1) * SUBS + sub
}

/// Inclusive upper bound of a bucket, used when reporting percentiles (so a
/// reported p99 is conservative — never below the true value).
fn bucket_upper(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let octave = index / SUBS - 1 + SUB_BITS as usize;
    let sub = (index % SUBS) as u64;
    ((SUBS as u64 + sub + 1) << (octave - SUB_BITS as usize)) - 1
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one latency observation.
    pub fn record_us(&self, us: u64) {
        // `bucket_index` maps every `u64` into `BUCKETS`.
        if let Some(bucket) = self.buckets.get(bucket_index(us)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q <= 1) in microseconds, as the inclusive
    /// upper bound of the bucket holding the rank — conservative by at most
    /// 25%. Returns 0 when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }
}

/// All server metrics, shared between handler threads, the dispatcher and
/// the `/metrics` endpoint.
pub struct Metrics {
    started: Instant,
    /// Every parsed HTTP request, any endpoint.
    pub requests_total: AtomicU64,
    /// Successfully answered localize requests (HTTP 200).
    pub localize_ok: AtomicU64,
    /// Localize requests shed with 503 because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Requests answered with a 4xx.
    pub client_errors: AtomicU64,
    /// Requests answered with a 5xx other than backpressure 503s and
    /// deadline 504s.
    pub server_errors: AtomicU64,
    /// Jobs whose model errored or panicked, or whose batch panicked, at
    /// dispatch (each answered with a typed failure → HTTP 500). A request
    /// refused at admission for its access-point count never becomes a
    /// job: it is a 400 and counts in `client_errors`.
    pub jobs_failed: AtomicU64,
    /// Jobs shed at dispatch because their deadline had already passed
    /// (each answered with HTTP 504).
    pub jobs_expired: AtomicU64,
    /// Dispatch workers currently running: the configured count until a
    /// drain or shutdown lets them exit (no panic in a batch ends one).
    pub live_workers: AtomicUsize,
    /// Jobs currently buffered in the dispatch queue.
    pub queue_depth: AtomicUsize,
    /// Server-side latency of successful localize requests (parse complete
    /// → response ready).
    pub latency: LatencyHistogram,
    /// `localize_batch` dispatches per worker (index = worker id).
    batches_dispatched: Vec<AtomicU64>,
    batch_sizes: Leaf<BTreeMap<usize, u64>>,
}

impl Metrics {
    /// Fresh, all-zero metrics anchored at "now", for a single dispatch
    /// worker.
    pub fn new() -> Self {
        Metrics::with_workers(1)
    }

    /// Fresh, all-zero metrics for a server running `workers` dispatch
    /// workers (one `batches_dispatched` counter each).
    pub fn with_workers(workers: usize) -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            localize_ok: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_expired: AtomicU64::new(0),
            live_workers: AtomicUsize::new(0),
            queue_depth: AtomicUsize::new(0),
            latency: LatencyHistogram::new(),
            batches_dispatched: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            batch_sizes: Leaf::new(BTreeMap::new()),
        }
    }

    /// The number of dispatch workers these metrics were sized for.
    pub fn workers(&self) -> usize {
        self.batches_dispatched.len()
    }

    /// Records one `localize_batch` dispatch of `size` observations by
    /// `worker` (ids beyond the configured worker count fold into the last
    /// counter rather than panicking the dispatch path).
    pub fn record_batch(&self, worker: usize, size: usize) {
        let slot = self.batches_dispatched.get(worker);
        if let Some(slot) = slot.or(self.batches_dispatched.last()) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        // A worker that panicked between the map lookup and the increment
        // can only have left a valid (at worst momentarily stale) count
        // behind — recover the histogram instead of cascading the panic
        // into every later recorder.
        let tally = |sizes: &mut BTreeMap<usize, u64>| *sizes.entry(size).or_insert(0) += 1;
        self.batch_sizes
            .with(tally)
            .unwrap_or_else(|poisoned| poisoned.with(tally));
    }

    /// Total `localize_batch` dispatches across every worker.
    pub fn total_batches(&self) -> u64 {
        self.batches_dispatched
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of everything as the `/metrics` JSON document.
    pub fn snapshot_json(&self) -> Json {
        let batch_hist: Vec<Json> = {
            // Same poison recovery as `record_batch`: a reader must keep
            // reporting through (and after) a worker panic.
            let rows = |sizes: &mut BTreeMap<usize, u64>| -> Vec<Json> {
                sizes
                    .iter()
                    .map(|(size, count)| {
                        Json::obj([("size", Json::from(*size)), ("count", Json::from(*count))])
                    })
                    .collect()
            };
            self.batch_sizes
                .with(rows)
                .unwrap_or_else(|poisoned| poisoned.with(rows))
        };
        let load = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
        Json::obj([
            ("uptime_s", Json::from(self.started.elapsed().as_secs_f64())),
            ("requests_total", load(&self.requests_total)),
            ("localize_ok", load(&self.localize_ok)),
            ("rejected_busy", load(&self.rejected_busy)),
            ("client_errors", load(&self.client_errors)),
            ("server_errors", load(&self.server_errors)),
            ("jobs_failed", load(&self.jobs_failed)),
            ("jobs_expired", load(&self.jobs_expired)),
            (
                "live_workers",
                Json::from(self.live_workers.load(Ordering::Relaxed)),
            ),
            // Global: every worker pulls from the one shared queue.
            (
                "queue_depth",
                Json::from(self.queue_depth.load(Ordering::Relaxed)),
            ),
            ("workers", Json::from(self.workers())),
            (
                "batches_dispatched",
                Json::arr(self.batches_dispatched.iter().map(load)),
            ),
            ("batch_size_hist", Json::Arr(batch_hist)),
            (
                "latency_us",
                Json::obj([
                    ("count", Json::from(self.latency.count())),
                    ("p50", Json::from(self.latency.quantile_us(0.50))),
                    ("p95", Json::from(self.latency.quantile_us(0.95))),
                    ("p99", Json::from(self.latency.quantile_us(0.99))),
                    (
                        "max",
                        Json::from(self.latency.max_us.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            // Process-wide compiled-plan counters: hits/builds show how often
            // inference reuses a compiled plan vs. compiling a fresh one, and
            // the arena pair shows runs fitting in their thread's arena vs.
            // growing it (flat slot_allocs, climbing reuses once warm: at
            // most one growth per worker per larger batch).
            (
                "graph",
                Json::obj([
                    ("plans_built", Json::from(graph::stats::plans_built())),
                    ("plan_hits", Json::from(graph::stats::plan_hits())),
                    (
                        "arena_slot_allocs",
                        Json::from(graph::stats::arena_slot_allocs()),
                    ),
                    ("arena_reuses", Json::from(graph::stats::arena_reuses())),
                ]),
            ),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotonic_and_bounded() {
        let mut last = 0usize;
        for us in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1000, 65_535, 1 << 40] {
            let idx = bucket_index(us);
            assert!(idx >= last, "index not monotonic at {us}");
            assert!(idx < BUCKETS);
            assert!(bucket_upper(idx) >= us, "upper bound below value at {us}");
            // ≤25% overestimate beyond the exact range.
            assert!(bucket_upper(idx) <= us.max(4) + us / 4 + 1);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_are_conservative_and_ordered() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        assert!((500..=640).contains(&p50), "p50 {p50}");
        assert!((950..=1000).contains(&p95), "p95 {p95}");
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(h.quantile_us(1.0), 1000, "max clamps the last bucket");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_has_the_documented_fields() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.record_batch(0, 4);
        m.record_batch(0, 4);
        m.latency.record_us(250);
        let snap = m.snapshot_json();
        assert_eq!(snap.get("requests_total").unwrap().as_f64(), Some(3.0));
        let hist = snap.get("batch_size_hist").unwrap().as_array().unwrap();
        assert_eq!(hist[0].get("size").unwrap().as_f64(), Some(4.0));
        assert_eq!(hist[0].get("count").unwrap().as_f64(), Some(2.0));
        assert!(snap.get("latency_us").unwrap().get("p99").is_some());
        let graph = snap.get("graph").unwrap();
        for key in [
            "plans_built",
            "plan_hits",
            "arena_slot_allocs",
            "arena_reuses",
        ] {
            assert!(graph.get(key).is_some(), "missing graph counter {key}");
        }
    }

    #[test]
    fn per_worker_dispatch_counters_aggregate_into_one_histogram() {
        let m = Metrics::with_workers(3);
        assert_eq!(m.workers(), 3);
        m.record_batch(0, 8);
        m.record_batch(2, 8);
        m.record_batch(2, 4);
        assert_eq!(m.total_batches(), 3);

        let snap = m.snapshot_json();
        assert_eq!(snap.get("workers").unwrap().as_f64(), Some(3.0));
        let per_worker = snap.get("batches_dispatched").unwrap().as_array().unwrap();
        let counts: Vec<u64> = per_worker
            .iter()
            .map(|c| c.as_f64().unwrap() as u64)
            .collect();
        assert_eq!(counts, vec![1, 0, 2]);
        // The batch-size histogram is global: one entry per size, counted
        // across every worker.
        let hist = snap.get("batch_size_hist").unwrap().as_array().unwrap();
        assert_eq!(hist[0].get("size").unwrap().as_f64(), Some(4.0));
        assert_eq!(hist[0].get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(hist[1].get("size").unwrap().as_f64(), Some(8.0));
        assert_eq!(hist[1].get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn snapshot_reports_the_fault_tolerance_counters() {
        let m = Metrics::new();
        m.jobs_failed.fetch_add(2, Ordering::Relaxed);
        m.jobs_expired.fetch_add(5, Ordering::Relaxed);
        m.live_workers.fetch_add(3, Ordering::Relaxed);
        let snap = m.snapshot_json();
        assert_eq!(snap.get("jobs_failed").unwrap().as_f64(), Some(2.0));
        assert_eq!(snap.get("jobs_expired").unwrap().as_f64(), Some(5.0));
        assert_eq!(snap.get("live_workers").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn batch_histogram_survives_a_poisoned_mutex() {
        let m = std::sync::Arc::new(Metrics::new());
        m.record_batch(0, 4);
        // Poison the histogram's lock by panicking while holding it.
        let poisoner = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _ = poisoner
                .batch_sizes
                .with(|_| panic!("poison the metrics lock"));
        })
        .join();
        assert!(m.batch_sizes.with(|_| ()).is_err(), "lock must be poisoned");
        // Recording and reporting both recover the data instead of
        // panicking the dispatch worker / metrics endpoint.
        m.record_batch(0, 4);
        let snap = m.snapshot_json();
        let hist = snap.get("batch_size_hist").unwrap().as_array().unwrap();
        assert_eq!(hist[0].get("size").unwrap().as_f64(), Some(4.0));
        assert_eq!(hist[0].get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn out_of_range_worker_ids_fold_into_the_last_counter() {
        let m = Metrics::with_workers(2);
        m.record_batch(7, 1);
        assert_eq!(m.total_batches(), 1);
        let snap = m.snapshot_json();
        let per_worker = snap.get("batches_dispatched").unwrap().as_array().unwrap();
        assert_eq!(per_worker[1].as_f64(), Some(1.0));
    }
}
