//! Property test for the job queue's delivery guarantee under races.
//!
//! Random interleavings of submissions (with no / already-expired /
//! generous deadlines) against a drain racing from another thread, with or
//! without an injected worker panic, must give **every accepted job
//! exactly one outcome** — completed predictions or a typed
//! [`JobFailure`] — never a silently dropped reply (disconnect) and never
//! a hang. Rejected submissions must be typed too ([`SubmitError::Busy`] /
//! [`SubmitError::Closed`]).

// Test-only pacing and classification — exempt from the workspace ban on
// blocking sleeps in request handling.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;
use proptest::prelude::*;
use serve::batcher::{self, Job};
use serve::{BatcherConfig, FaultPlan, JobFailure, Metrics, Registry, SubmitError};
use vital::{Localizer, Result as VitalResult};

/// Deterministic stand-in model: predicts `round(-mean[0])`, so the
/// completed outcome of job value `v` is exactly `v`.
struct EchoLocalizer;

impl Localizer for EchoLocalizer {
    fn name(&self) -> &str {
        "Echo"
    }
    fn num_aps(&self) -> usize {
        1
    }
    fn fit(&mut self, _: &fingerprint::FingerprintDataset) -> VitalResult<()> {
        Ok(())
    }
    fn localize_batch(&self, observations: &[FingerprintObservation]) -> VitalResult<Vec<usize>> {
        Ok(observations.iter().map(|o| (-o.mean[0]) as usize).collect())
    }
}

fn obs(v: usize) -> FingerprintObservation {
    FingerprintObservation {
        rp_label: 0,
        device: String::new(),
        min: vec![-(v as f32)],
        max: vec![-(v as f32)],
        mean: vec![-(v as f32)],
    }
}

/// Deadline flavours a submitted job can carry.
#[derive(Debug, Clone, Copy)]
enum DeadlineKind {
    /// No deadline: an accepted job must complete.
    None,
    /// Already expired at submission: an accepted job must come back as
    /// [`JobFailure::Expired`] (dispatch always happens strictly later).
    Expired,
    /// 30 s out — unreachable in-test: an accepted job must complete.
    Generous,
}

/// An accepted job awaiting its outcome: submission index, the deadline
/// flavour it carried, and the reply channel to collect exactly one
/// outcome from.
type AcceptedJob = (
    usize,
    DeadlineKind,
    mpsc::Receiver<Result<Vec<usize>, JobFailure>>,
);

fn deadline_kind() -> impl Strategy<Value = DeadlineKind> {
    (0u32..3).prop_map(|k| match k {
        0 => DeadlineKind::None,
        1 => DeadlineKind::Expired,
        _ => DeadlineKind::Generous,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The delivery invariant: across random submit/deadline/drain
    /// interleavings, with or without a worker panic on a drawn batch,
    /// every job has exactly one typed outcome.
    #[test]
    fn every_submitted_job_gets_exactly_one_outcome(
        jobs in proptest::collection::vec((deadline_kind(), 0usize..100), 0..12),
        drain_after in 0usize..13,
        tiny_queue in (0u32..2).prop_map(|b| b == 1),
        // `worker_panic=N` for N in 1..=5, or no fault plan at all.
        worker_panic in (0u64..6).prop_map(|n| (n > 0).then_some(n)),
    ) {
        let metrics = Arc::new(Metrics::with_workers(2));
        let registry = Arc::new(Registry::from_models(vec![(
            "echo".into(),
            Box::new(EchoLocalizer) as Box<dyn Localizer>,
        )]));
        let faults = worker_panic.map(|n| {
            Arc::new(FaultPlan::parse(&format!("worker_panic={n}")).expect("spec parses"))
        });
        let (client, handles) = batcher::start(
            registry,
            BatcherConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(50),
                // A tiny queue exercises Busy; a roomy one exercises
                // completion of everything queued at drain time.
                queue_cap: if tiny_queue { 1 } else { 64 },
                workers: 2,
                faults,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        ).expect("batcher start");

        // A racer thread fires the drain somewhere in the middle of the
        // submission stream (or before/after it entirely).
        let fire_drain = Arc::new(AtomicBool::new(false));
        let racer = {
            let client = client.clone();
            let fire_drain = Arc::clone(&fire_drain);
            std::thread::spawn(move || {
                while !fire_drain.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                client.drain();
            })
        };

        let mut accepted: Vec<AcceptedJob> = Vec::new();
        let mut rejected = 0usize;
        for (i, &(kind, value)) in jobs.iter().enumerate() {
            if i == drain_after {
                fire_drain.store(true, Ordering::SeqCst);
            }
            let admitted = Instant::now();
            let deadline = match kind {
                DeadlineKind::None => None,
                DeadlineKind::Expired => Some(admitted),
                DeadlineKind::Generous => admitted.checked_add(Duration::from_secs(30)),
            };
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            match client.submit(Job {
                model: "echo".into(),
                observations: vec![obs(value)],
                admitted,
                deadline,
                reply: reply_tx,
            }) {
                Ok(()) => accepted.push((value, kind, reply_rx)),
                // Both rejections are typed; the reply sender just
                // dropped is the *caller's* copy, which is fine — the
                // job never entered the queue.
                Err(SubmitError::Busy) | Err(SubmitError::Closed) => rejected += 1,
            }
        }
        fire_drain.store(true, Ordering::SeqCst);
        racer.join().expect("racer thread");
        // drain() is idempotent; every accepted job must now complete.
        client.drain();
        prop_assert!(
            client.await_drained(Duration::from_secs(10)),
            "drain did not finish within the grace period"
        );

        let total = accepted.len();
        let mut failed = 0usize;
        for (value, kind, reply_rx) in accepted {
            match reply_rx.recv_timeout(Duration::from_secs(5)) {
                Ok(Ok(predictions)) => {
                    prop_assert!(
                        predictions == vec![value],
                        "completed job returned the wrong predictions: {predictions:?}"
                    );
                    prop_assert!(
                        !matches!(kind, DeadlineKind::Expired),
                        "a job submitted already-expired must be shed, not served"
                    );
                }
                Ok(Err(JobFailure::Expired)) => {
                    prop_assert!(
                        matches!(kind, DeadlineKind::Expired),
                        "only jobs with an elapsed deadline may expire ({kind:?})"
                    );
                }
                // Only the batch an armed panic hits may fail, and its
                // jobs are told why.
                Ok(Err(JobFailure::Failed(message))) => {
                    prop_assert!(
                        worker_panic.is_some(),
                        "echo model cannot fail without an injected panic, got: {message}"
                    );
                    prop_assert!(
                        message.contains("worker_panic on batch"),
                        "a failure must name the injected panic, got: {message}"
                    );
                    failed += 1;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(TestCaseError::fail(
                        "accepted job was silently dropped (reply disconnected)",
                    ));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(TestCaseError::fail(
                        "accepted job never got an outcome (reply timed out)",
                    ));
                }
            }
        }

        // One batch at most (four one-observation jobs) is lost to the panic.
        prop_assert!(failed <= 4, "{failed} jobs failed, more than one batch holds");
        // Accounting closes: accepted + rejected covers every submission.
        prop_assert_eq!(total + rejected, jobs.len());
        for handle in handles {
            handle.join().expect("batcher thread must not panic");
        }
    }
}
