//! Shared, thread-safe model parameters.
//!
//! A [`Param`] is a handle to one named weight tensor; cloning the handle
//! shares the underlying storage, which is how a layer and an optimizer see
//! consistent state. The handle is `Send + Sync` and holds the weights and
//! nothing else, behind one [`graph::sync::Leaf`] lock:
//!
//! * **Reading** — [`Param::value`] snapshots the current weights. Thanks
//!   to the `tensor` crate's `Arc`-backed storage the snapshot is an `O(1)`
//!   reference bump taken under the briefly-held lock; the weight *data*
//!   itself is then read with no lock at all, from the same shared
//!   allocation, by every tape and every concurrent inference worker.
//!   Serving snapshots weights only when it compiles a plan.
//! * **Writing** — [`Param::set_value`] (optimizer steps and checkpoint
//!   restores) swaps the value atomically under the lock.
//!
//! Gradients are not parameter state: [`crate::Session::backward`] returns
//! them and [`crate::optim::Adam::step`] consumes them, so no code holds
//! this lock while taking another.
//!
//! A regression to single-threaded interior mutability (`Rc`/`RefCell`)
//! fails tier-1: `tests/static_analysis.rs` holds every layer to
//! `Send + Sync` at compile time, and the workspace-wide
//! `clippy::disallowed_types` bans `std::rc::Rc` and `RefCell`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graph::sync::Leaf;
use tensor::Tensor;

struct ParamInner {
    name: String,
    /// Current weights. Readers snapshot the `Arc`-backed tensor in `O(1)`;
    /// only the training path ([`Param::set_value`]) ever writes.
    value: Leaf<Tensor>,
    /// Monotonic update counter, bumped by every [`Param::set_value`].
    /// Compiled-plan caches fold these into a weight stamp so a plan built
    /// against stale weights is detected in `O(params)` without comparing
    /// tensor data.
    version: AtomicU64,
}

/// A shared, named, thread-safe parameter tensor.
///
/// Layers own `Param`s; cloning a `Param` clones the *handle* (both clones
/// refer to the same underlying value), which is how the optimizer and the
/// layer see consistent state — and how N inference workers serve from one
/// set of weights without copying them.
#[derive(Clone)]
pub struct Param(Arc<ParamInner>);

impl Param {
    /// Creates a parameter with a diagnostic name and an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param(Arc::new(ParamInner {
            name: name.into(),
            value: Leaf::new(value),
            version: AtomicU64::new(0),
        }))
    }

    /// The parameter's diagnostic name.
    pub fn name(&self) -> String {
        self.0.name.clone()
    }

    /// A snapshot of the current value.
    ///
    /// `O(1)`: the returned tensor shares the parameter's `Arc`-backed
    /// storage (copy-on-write protects it from later updates), so the hot
    /// inference path reads weight data without locks or copies.
    pub fn value(&self) -> Tensor {
        self.0
            .value
            .with(|value| value.clone())
            .expect("param lock poisoned")
    }

    /// Replaces the current value (training path: optimizer steps and
    /// checkpoint restores).
    ///
    /// Concurrent readers keep the snapshot they already took; the swap is
    /// atomic under the lock, so no reader ever observes a torn value.
    pub fn set_value(&self, value: Tensor) {
        self.0
            .value
            .with(|current| *current = value)
            .expect("param lock poisoned");
        self.0.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of updates this parameter has received (monotonic; starts at
    /// zero). Plan caches mix the versions of every model parameter into a
    /// weight stamp, so any `set_value` anywhere invalidates plans compiled
    /// against the old weights.
    pub fn version(&self) -> u64 {
        self.0.version.load(Ordering::Relaxed)
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.0
            .value
            .with(|value| value.len())
            .expect("param lock poisoned")
    }

    /// Returns `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stable identity key for this parameter (used by optimizers to store
    /// per-parameter state such as Adam moments).
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

/// Folds the [`Param::version`] counters of a parameter list into one
/// stamp (FNV-1a over the version sequence).
///
/// Compiled-plan caches key their entries by this value: any `set_value`
/// on any listed parameter changes its version and therefore the stamp,
/// so plans whose constants were snapshotted from older weights are
/// recognisably stale in `O(params)` without touching tensor data. The
/// fold is order- and position-sensitive — two different version vectors
/// with equal sums still produce different stamps.
pub fn weight_stamp(params: &[Param]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in params {
        h = (h ^ p.version()).wrapping_mul(0x0000_0100_0000_01b3);
        h = (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Param")
            .field("name", &self.0.name)
            .field("shape", &self.value().shape().dims().to_vec())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let p = Param::new("w", Tensor::ones(&[2, 2]));
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        p.set_value(Tensor::zeros(&[2, 2]));
        assert_eq!(p.value().sum(), 0.0);
    }

    #[test]
    fn weight_stamp_tracks_any_update() {
        let a = Param::new("a", Tensor::zeros(&[2]));
        let b = Param::new("b", Tensor::zeros(&[2]));
        let params = [a.clone(), b.clone()];
        let s0 = weight_stamp(&params);
        assert_eq!(s0, weight_stamp(&params), "stamp is deterministic");
        a.set_value(Tensor::ones(&[2]));
        let s1 = weight_stamp(&params);
        assert_ne!(s0, s1);
        // Position-sensitive: bumping b instead of a gives a third value.
        b.set_value(Tensor::ones(&[2]));
        a.set_value(Tensor::zeros(&[2]));
        assert_ne!(weight_stamp(&params), s1);
    }

    #[test]
    fn version_counts_updates() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        assert_eq!(p.version(), 0);
        p.set_value(Tensor::ones(&[2]));
        p.set_value(Tensor::zeros(&[2]));
        assert_eq!(p.version(), 2);
        let q = p.clone();
        q.set_value(Tensor::ones(&[2]));
        assert_eq!(p.version(), 3, "clones share the version counter");
    }

    #[test]
    fn clones_share_state() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        let q = p.clone();
        q.set_value(Tensor::ones(&[2]));
        assert_eq!(p.value().sum(), 2.0);
        assert_eq!(p.key(), q.key());
    }

    #[test]
    fn distinct_params_have_distinct_keys() {
        let a = Param::new("a", Tensor::zeros(&[1]));
        let b = Param::new("b", Tensor::zeros(&[1]));
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn snapshots_are_isolated_from_later_updates() {
        let p = Param::new("w", Tensor::ones(&[2]));
        let snapshot = p.value();
        p.set_value(Tensor::zeros(&[2]));
        assert_eq!(snapshot.as_slice(), &[1.0, 1.0], "snapshot must be stable");
        assert_eq!(p.value().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn concurrent_readers_see_consistent_values() {
        let p = Param::new("w", Tensor::full(&[64], 1.0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = &p;
                scope.spawn(move || {
                    for _ in 0..500 {
                        let v = p.value();
                        let first = v.as_slice()[0];
                        // Every element of a snapshot comes from one whole
                        // set_value — never a torn mix of two.
                        assert!(v.as_slice().iter().all(|&x| x == first));
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..500 {
                    p.set_value(Tensor::full(&[64], i as f32));
                }
            });
        });
    }
}
