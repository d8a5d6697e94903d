//! The one injected fault: a panic inside the dispatch loop.
//!
//! Every other failure the serve stack contains can be caused from
//! outside: a test's own `Localizer` panics, errs or stalls, and a test's
//! own file is a corrupt checkpoint. A panic in the dispatch loop's
//! per-batch `catch_unwind` outside `run_model` cannot, because
//! `run_model`'s own guard keeps every model panic away from it. A
//! [`FaultPlan`] in `BatcherConfig::faults` raises exactly that panic, on
//! the Nth batch collected across all workers, so the crate's simulator
//! and the queue's tests can assert which batch failed, with what message,
//! and what came back afterwards. Without a plan the per-batch cost is
//! one `Option` check.

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Panics the dispatch worker that collects the Nth batch. Shared across
/// workers behind an `Arc`; the batch count is an atomic, so the
/// injection point takes no lock.
#[derive(Debug)]
pub struct FaultPlan {
    panic_on: NonZeroU64,
    batches: AtomicU64,
}

impl FaultPlan {
    /// A plan that panics on the `n`th collected batch (1-counted) and on
    /// no other.
    pub fn worker_panic(n: NonZeroU64) -> FaultPlan {
        FaultPlan {
            panic_on: n,
            batches: AtomicU64::new(0),
        }
    }

    /// Injection point: a dispatch worker has collected a batch and is
    /// about to execute it. Panics (via `panic_any`, *outside* the model
    /// `catch_unwind` but inside the dispatch loop's per-batch one) on the
    /// configured Nth batch, so the whole batch fails before any model
    /// sees it.
    pub fn on_batch_collected(&self) {
        let n = self.batches.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.panic_on.get() {
            // The injected fault: this panic is what the plan exists to
            // raise.
            #[allow(clippy::panic)]
            std::panic::panic_any(format!("faultinject: worker_panic on batch {n}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_panic_fires_on_exactly_the_nth_batch() {
        let plan = FaultPlan::worker_panic(NonZeroU64::new(3).unwrap());
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
}
