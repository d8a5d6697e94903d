//! A warm served round allocates a pinned handful of heap blocks outside
//! the model. From the moment one `localize_batch` returns to the moment
//! the next is entered, the dispatch worker answers the first job
//! (`execute`'s fan-out), goes back to the queue (`dispatch_loop`,
//! `collect_into`), and takes and groups the next job (`execute`). A probe
//! model marks both moments with the worker's own allocation count.
//!
//! This binary installs a counting `#[global_allocator]`. The count is per
//! thread and runs only on a thread that turned it on — the dispatch
//! worker, from the probe's first call — so the submitting thread and the
//! harness cannot disturb it.

// The probe's marks are test state behind a plain mutex.
#![allow(clippy::disallowed_types)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use serve::batcher::{self, Job};
use serve::{BatcherConfig, Metrics, Registry};
use vital::{Localizer, Result as VitalResult};

thread_local! {
    /// Whether this thread counts its allocations (const-initialised and
    /// without a destructor, like the count, so reading it inside the
    /// allocator allocates nothing).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Heap allocations this thread made while counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a read and an
// update of two const-initialised, destructor-free thread-local `Cell`s,
// which neither allocates nor unwinds (`try_with` covers a thread that is
// tearing down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(count when entered, count when returning)` of each call, in order.
type Marks = Arc<Mutex<Vec<(u64, u64)>>>;

/// A one-access-point model that predicts 0 and marks its calls with the
/// calling thread's allocation count.
struct Probe {
    marks: Marks,
}

impl Localizer for Probe {
    fn name(&self) -> &str {
        "Probe"
    }
    fn num_aps(&self) -> usize {
        1
    }
    fn fit(&mut self, _: &FingerprintDataset) -> VitalResult<()> {
        Ok(())
    }
    fn localize_batch(&self, observations: &[FingerprintObservation]) -> VitalResult<Vec<usize>> {
        COUNTING.set(true);
        let entered = ALLOCS.get();
        let predictions = vec![0; observations.len()];
        let mut marks = self.marks.lock().unwrap();
        marks.push((entered, 0));
        let returned = ALLOCS.get();
        if let Some(mark) = marks.last_mut() {
            mark.1 = returned;
        }
        Ok(predictions)
    }
}

/// What the dispatch worker allocates between two warm one-job calls of
/// its model, measured when this test was written: `execute`'s group list,
/// the group's job list and the group's observation counts. Answering the
/// job hands the model's own `Vec` over, and the loop's batch buffers are
/// reused, so `dispatch_loop` and `collect_into` allocate nothing.
const SERVED_ROUND_ALLOCS: u64 = 3;

#[test]
fn a_warm_served_round_allocates_a_pinned_handful_outside_the_model() {
    let marks: Marks = Arc::new(Mutex::new(Vec::with_capacity(8)));
    let probe = Probe {
        marks: Arc::clone(&marks),
    };
    let registry = Registry::from_models(vec![("probe".into(), Box::new(probe))]);
    let (client, workers) = batcher::start(
        Arc::new(registry),
        BatcherConfig::default(),
        Arc::new(Metrics::new()),
    )
    .unwrap();
    // Round 1 warms the metrics' batch-size histogram; rounds 2 and 3 are
    // the same request again.
    for _ in 0..3 {
        let (reply, answer) = mpsc::sync_channel(1);
        let job = Job {
            model: "probe".into(),
            observations: vec![FingerprintObservation {
                rp_label: 0,
                device: "probe".into(),
                min: vec![-70.0],
                max: vec![-60.0],
                mean: vec![-65.0],
            }],
            admitted: Instant::now(),
            deadline: None,
            reply,
        };
        client.submit(job).unwrap();
        assert_eq!(answer.recv().unwrap(), Ok(vec![0]));
    }
    drop(client);
    for worker in workers {
        worker.join().unwrap();
    }
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len(), 3, "one call per job");
    let round = marks[2].0 - marks[1].1;
    assert_eq!(
        round, SERVED_ROUND_ALLOCS,
        "a warm one-job round allocated {round} blocks outside the model, \
         {SERVED_ROUND_ALLOCS} when pinned: an allocation in the dispatch loop, the collect \
         path or `execute` runs once per request"
    );
}
