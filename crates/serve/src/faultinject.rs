//! Deterministic fault injection for the serve stack.
//!
//! Chaos testing only proves something when the chaos is reproducible: a
//! flaky "sometimes the worker dies" test is worse than none. This module
//! therefore injects faults from a **seeded, declarative plan** — the same
//! spec string always produces the same failures at the same points — so
//! the chaos integration suite (`tests/chaos.rs`) can assert exact
//! recovery behaviour (which batch failed, with what message, and what
//! came back afterwards).
//!
//! A plan is parsed from a spec string (the `--faults` flag, or
//! `BatcherConfig::faults` in-process) of `;`-separated `key=value` parts:
//!
//! ```text
//! worker_panic=25;latency=knn:80:10;corrupt=bad_model;seed=7
//! ```
//!
//! * `worker_panic=N` — the dispatch worker collecting the **Nth** batch
//!   (counted across all workers) panics before executing it, exercising
//!   the dispatch loop's per-batch guard: that batch's jobs fail with a
//!   typed `500` naming the panic, and the same worker serves on.
//! * `latency=MODEL:MS:EVERY` — every `EVERY`th dispatch of `MODEL`
//!   stalls for `MS` milliseconds before running, simulating a slow or
//!   contended model.
//! * `corrupt=NAME` — the checkpoint named `NAME` (file stem) has its
//!   bytes deterministically flipped at registry load, exercising the
//!   degraded-boot path.
//! * `seed=S` — seeds the corruption byte positions.
//!
//! Injection points are reached through `Option<Arc<FaultPlan>>` carried
//! in the batcher config: when no plan is configured the per-batch cost is
//! a single `Option` check, and none of this module's state exists.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Linear-congruential constants (Knuth's MMIX) for the seeded corruption
/// positions — tiny, deterministic, and dependency-free.
const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

/// How many payload bytes `corrupt_checkpoint` flips beyond the magic.
const CORRUPT_FLIPS: u64 = 4;

/// One `latency=MODEL:MS:EVERY` injection: a periodic stall on dispatches
/// of a single model.
#[derive(Debug)]
pub struct LatencyFault {
    /// Model name the stall applies to.
    pub model: String,
    /// How long each injected stall lasts.
    pub delay: Duration,
    /// Stall every Nth dispatch of this model (1 = every dispatch).
    pub every: u64,
    /// Dispatches of this model seen so far.
    dispatches: AtomicU64,
}

/// A parsed, seeded fault-injection plan. See the module docs for the
/// spec grammar. Shared across workers behind an `Arc`; all counters are
/// atomics so injection points need no locks.
#[derive(Debug)]
pub struct FaultPlan {
    spec: String,
    seed: u64,
    worker_panic_at: Option<u64>,
    latency: Vec<LatencyFault>,
    corrupt: Vec<String>,
    batches: AtomicU64,
}

impl FaultPlan {
    /// Parses a plan from a spec string.
    ///
    /// # Errors
    /// A message describing the malformed part.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            spec: spec.to_string(),
            seed: 0x5eed,
            worker_panic_at: None,
            latency: Vec::new(),
            corrupt: Vec::new(),
            batches: AtomicU64::new(0),
        };
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("fault spec part {part:?} is not key=value"));
            };
            match key.trim() {
                "worker_panic" => {
                    let n = parse_count(value, "worker_panic")?;
                    if n == 0 {
                        return Err("worker_panic=N needs N >= 1 (batches are 1-counted)".into());
                    }
                    plan.worker_panic_at = Some(n);
                }
                "latency" => {
                    let fields: Vec<&str> = value.split(':').map(str::trim).collect();
                    let [model, ms, every] = fields.as_slice() else {
                        return Err(format!(
                            "latency fault {value:?} must be MODEL:MS:EVERY (e.g. knn:80:10)"
                        ));
                    };
                    let every = parse_count(every, "latency EVERY")?.max(1);
                    plan.latency.push(LatencyFault {
                        model: (*model).to_string(),
                        delay: Duration::from_millis(parse_count(ms, "latency MS")?),
                        every,
                        dispatches: AtomicU64::new(0),
                    });
                }
                "corrupt" => plan.corrupt.push(value.trim().to_string()),
                "seed" => plan.seed = parse_count(value, "seed")?,
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (known: worker_panic, latency, corrupt, seed)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// The spec string this plan was parsed from (for logs and reports).
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Whether this plan corrupts the checkpoint named `name` at load.
    pub fn corrupts(&self, name: &str) -> bool {
        self.corrupt.iter().any(|c| c == name)
    }

    /// Injection point: a dispatch worker has collected a batch and is
    /// about to execute it. Panics (via `panic_any`, *outside* the model
    /// `catch_unwind` but inside the dispatch loop's per-batch one) on the
    /// configured Nth batch, so the whole batch fails before any model
    /// sees it.
    pub fn on_batch_collected(&self) {
        let n = self.batches.fetch_add(1, Ordering::Relaxed) + 1;
        if self.worker_panic_at == Some(n) {
            std::panic::panic_any(format!("faultinject: worker_panic on batch {n}"));
        }
    }

    /// Injection point: a worker is about to run one model group. Stalls
    /// for the configured delay on every `EVERY`th dispatch of a model
    /// named by a latency fault.
    pub fn on_group_dispatch(&self, model: &str) {
        for fault in &self.latency {
            if fault.model == model {
                let n = fault.dispatches.fetch_add(1, Ordering::Relaxed) + 1;
                if n % fault.every == 0 {
                    stall(fault.delay);
                }
            }
        }
    }

    /// Injection point: the registry read checkpoint `name` (file stem)
    /// from disk. When the plan targets it, flips the first byte (killing
    /// the format magic) plus a few seeded payload positions, and returns
    /// `true`; otherwise leaves the bytes alone.
    pub fn corrupt_checkpoint(&self, name: &str, bytes: &mut [u8]) -> bool {
        if !self.corrupts(name) {
            return false;
        }
        if let Some(first) = bytes.first_mut() {
            *first ^= 0xAA;
        }
        let len = bytes.len() as u64;
        if len > 1 {
            let mut lcg = self.seed | 1;
            for _ in 0..CORRUPT_FLIPS {
                lcg = lcg.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                let pos = 1 + (lcg >> 16) % (len - 1);
                if let Some(byte) = bytes.get_mut(pos as usize) {
                    *byte ^= 0x55;
                }
            }
        }
        true
    }
}

/// Parses one numeric spec field.
fn parse_count(value: &str, key: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("fault {key}={value:?}: expected a non-negative integer"))
}

/// Blocks the current thread for `delay` without `thread::sleep` (banned
/// workspace-wide): `park_timeout` in a deadline loop, immune to spurious
/// unparks.
fn stall(delay: Duration) {
    let start = Instant::now();
    loop {
        let remaining = delay.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return;
        }
        std::thread::park_timeout(remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_parses() {
        let plan = FaultPlan::parse("worker_panic=25; latency=knn:80:10; corrupt=bad; seed=7")
            .expect("spec parses");
        assert_eq!(plan.worker_panic_at, Some(25));
        assert_eq!(plan.latency.len(), 1);
        assert_eq!(plan.latency[0].model, "knn");
        assert_eq!(plan.latency[0].delay, Duration::from_millis(80));
        assert_eq!(plan.latency[0].every, 10);
        assert!(plan.corrupts("bad"));
        assert!(!plan.corrupts("good"));
        assert_eq!(plan.seed, 7);
    }

    #[test]
    fn empty_spec_is_a_no_op_plan() {
        let plan = FaultPlan::parse("").expect("empty spec parses");
        assert_eq!(plan.worker_panic_at, None);
        assert!(plan.latency.is_empty());
        // No panic on any batch.
        for _ in 0..100 {
            plan.on_batch_collected();
        }
        plan.on_group_dispatch("anything");
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "worker_panic",
            "worker_panic=x",
            "worker_panic=0",
            "latency=knn:80",
            "latency=knn:eighty:10",
            "explode=now",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(!err.is_empty(), "{bad}: empty error");
        }
    }

    #[test]
    fn worker_panic_fires_on_exactly_the_nth_batch() {
        let plan = FaultPlan::parse("worker_panic=3").expect("spec parses");
        plan.on_batch_collected();
        plan.on_batch_collected();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.on_batch_collected();
        }));
        assert!(panic.is_err(), "third batch must panic");
        // Later batches are clean: the fault is one-shot by construction.
        plan.on_batch_collected();
        plan.on_batch_collected();
    }

    #[test]
    fn latency_fault_stalls_only_the_named_model() {
        let plan = FaultPlan::parse("latency=slow:30:1").expect("spec parses");
        let start = Instant::now();
        plan.on_group_dispatch("other");
        assert!(start.elapsed() < Duration::from_millis(25));
        let start = Instant::now();
        plan.on_group_dispatch("slow");
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn corruption_is_deterministic_and_scoped_to_the_named_checkpoint() {
        let plan = FaultPlan::parse("corrupt=bad;seed=42").expect("spec parses");
        let clean: Vec<u8> = (0..64).collect();

        let mut untouched = clean.clone();
        assert!(!plan.corrupt_checkpoint("good", &mut untouched));
        assert_eq!(untouched, clean);

        let mut a = clean.clone();
        let mut b = clean.clone();
        assert!(plan.corrupt_checkpoint("bad", &mut a));
        assert!(plan.corrupt_checkpoint("bad", &mut b));
        assert_eq!(a, b, "same seed must corrupt identically");
        assert_ne!(a, clean);
        assert_ne!(a[0], clean[0], "the magic byte must be hit");
    }

    #[test]
    fn corruption_survives_tiny_inputs() {
        let plan = FaultPlan::parse("corrupt=bad").expect("spec parses");
        let mut empty: Vec<u8> = Vec::new();
        assert!(plan.corrupt_checkpoint("bad", &mut empty));
        let mut one = vec![0u8];
        assert!(plan.corrupt_checkpoint("bad", &mut one));
        assert_ne!(one[0], 0);
    }
}
