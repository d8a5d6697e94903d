//! [`Leaf`], the one lock type of the workspace.
//!
//! A leaf is a mutex whose only access is a closure: [`Leaf::with`] runs it
//! with the lock held and releases the lock when it returns, so no guard
//! outlives the access or escapes it. The job queue's waits go through
//! [`Leaf::with_waits`], whose [`Held::wait`] releases the leaf while it
//! blocks on a `Condvar`.
//!
//! Every lock is a leaf of the lock order: no lock is held while another is
//! taken. In a debug build a thread-local mark makes taking a leaf while
//! the same thread holds one — in the same function or three crates away —
//! a `debug_assert` failure, on every path the tests run. Two locks that
//! are never held together cannot be taken in opposite orders, so this
//! needs no lock names and no graph. Snapshot and release first
//! (`nn::Param::value` is an `O(1)` clone). `clippy.toml` bans
//! `std::sync::{Mutex, RwLock}` outside this module.
//!
//! A leaf is poisoned when a thread panics while it holds it. The access
//! then returns [`Poisoned`] instead of running, and each site keeps its
//! own policy: fail, treat the queue as closed, or recover the value with
//! [`Poisoned::with`].

// The one home of `std::sync::Mutex`: everything else takes a `Leaf`.
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A lock that can only be taken while the thread holds no other.
#[derive(Default)]
pub struct Leaf<T> {
    lock: Mutex<T>,
}

impl<T> Leaf<T> {
    /// A leaf holding `value`.
    pub const fn new(value: T) -> Self {
        Leaf {
            lock: Mutex::new(value),
        }
    }

    /// Runs `f` on the value with the leaf held.
    ///
    /// # Errors
    /// [`Poisoned`], without running `f`, if a thread panicked while it
    /// held the leaf.
    ///
    /// # Panics
    /// In a debug build, if this thread already holds a leaf.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Result<R, Poisoned<'_, T>> {
        self.with_waits(|held| f(held))
    }

    /// [`Leaf::with`] for an access that waits on a `Condvar` of this leaf
    /// ([`Held::wait`]).
    ///
    /// # Errors
    /// [`Poisoned`], without running `f`, if a thread panicked while it
    /// held the leaf.
    ///
    /// # Panics
    /// In a debug build, if this thread already holds a leaf.
    pub fn with_waits<R>(
        &self,
        f: impl FnOnce(&mut Held<'_, T>) -> R,
    ) -> Result<R, Poisoned<'_, T>> {
        let mark = Mark::new();
        let Ok(guard) = self.lock.lock() else {
            return Err(Poisoned { leaf: self });
        };
        let mut held = Held {
            guard: Some(guard),
            _mark: mark,
        };
        Ok(f(&mut held))
    }
}

/// The value of a held [`Leaf`], inside [`Leaf::with_waits`].
pub struct Held<'a, T> {
    /// `None` only while [`Held::wait`] blocks, which borrows the `Held`
    /// mutably, so no dereference can see it.
    guard: Option<MutexGuard<'a, T>>,
    // Dropped after the guard: the mark covers the whole hold.
    _mark: Mark,
}

impl<T> Held<'_, T> {
    /// Releases the leaf, blocks until `condvar` is notified or `timeout`
    /// (if any) passes, and takes the leaf back. Like any condvar wait it
    /// may wake spuriously: re-check the condition. Returns `false` if a
    /// thread panicked while it held the leaf in the meantime.
    pub fn wait(&mut self, condvar: &Condvar, timeout: Option<Duration>) -> bool {
        let guard = self.guard.take().expect("a held leaf has its guard");
        let (guard, clean) = match timeout {
            None => match condvar.wait(guard) {
                Ok(guard) => (guard, true),
                Err(poisoned) => (poisoned.into_inner(), false),
            },
            Some(timeout) => match condvar.wait_timeout(guard, timeout) {
                Ok((guard, _)) => (guard, true),
                Err(poisoned) => (poisoned.into_inner().0, false),
            },
        };
        self.guard = Some(guard);
        clean
    }
}

impl<T> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_deref().expect("a held leaf has its guard")
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .expect("a held leaf has its guard")
    }
}

/// A thread panicked while it held the leaf: the access did not run.
pub struct Poisoned<'a, T> {
    leaf: &'a Leaf<T>,
}

impl<T> Poisoned<'_, T> {
    /// Runs `f` on the value anyway, for a site whose value stays valid
    /// through a panic (a counter, a histogram).
    ///
    /// # Panics
    /// In a debug build, if this thread already holds a leaf.
    pub fn with<R>(self, f: impl FnOnce(&mut T) -> R) -> R {
        let _mark = Mark::new();
        let mut guard = self
            .leaf
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

impl<T> fmt::Debug for Poisoned<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Poisoned: a thread panicked while it held the leaf")
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a leaf.
    static HOLDS_A_LEAF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks this thread as holding a leaf while it lives; taken before the
/// lock, so a leaf taken under itself fails the assertion instead of
/// deadlocking. Nothing in a release build.
struct Mark;

impl Mark {
    fn new() -> Mark {
        #[cfg(debug_assertions)]
        HOLDS_A_LEAF.with(|holds| {
            debug_assert!(
                !holds.replace(true),
                "a leaf lock was taken while this thread holds another: no lock is held \
                 while another is taken; snapshot and release the first one"
            );
        });
        Mark
    }
}

impl Drop for Mark {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HOLDS_A_LEAF.with(|holds| holds.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn with_runs_the_access_and_returns_its_value() {
        let leaf = Leaf::new(vec![1, 2]);
        leaf.with(|v| v.push(3)).unwrap();
        assert_eq!(leaf.with(|v| v.iter().sum::<i32>()).unwrap(), 6);
        // Leaves taken one after the other are fine.
        let other = Leaf::new(0);
        other.with(|n| *n += 1).unwrap();
        assert_eq!(leaf.with(|v| v.len()).unwrap(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a leaf lock was taken while this thread holds another")]
    fn a_leaf_taken_inside_another_fails_in_debug() {
        let outer = Leaf::new(0);
        let inner = Leaf::new(0);
        let _ = outer.with(|_| inner.with(|n| *n += 1));
    }

    #[test]
    fn a_poisoned_leaf_refuses_the_access_until_asked_to_recover() {
        let leaf = Arc::new(Leaf::new(1));
        let poisoner = Arc::clone(&leaf);
        let _ = std::thread::spawn(move || {
            let _ = poisoner.with(|_| panic!("poison the leaf"));
        })
        .join();
        let mut ran = false;
        assert!(leaf.with(|_| ran = true).is_err());
        assert!(!ran, "a poisoned leaf runs no access");
        let value = leaf
            .with(|n| *n)
            .unwrap_or_else(|poisoned| poisoned.with(|n| *n + 1));
        assert_eq!(value, 2);
        // The panic released the thread's mark: it can take leaves again.
        assert_eq!(Leaf::new(5).with(|n| *n).unwrap(), 5);
    }

    #[test]
    fn waiting_releases_the_leaf() {
        let leaf = Arc::new(Leaf::new(false));
        let ready = Arc::new(Condvar::new());
        let (setter_leaf, setter_ready) = (Arc::clone(&leaf), Arc::clone(&ready));
        let setter = std::thread::spawn(move || {
            setter_leaf.with(|flag| *flag = true).unwrap();
            setter_ready.notify_all();
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let seen = leaf
            .with_waits(|held| {
                while !**held {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() || !held.wait(&ready, Some(left)) {
                        break;
                    }
                }
                **held
            })
            .unwrap();
        setter.join().unwrap();
        assert!(seen, "the setter took the leaf while this thread waited");
    }
}
