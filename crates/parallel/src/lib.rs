//! Scoped data-parallel chunking: the benchmark's instrument for the cost
//! of a parallel region.
//!
//! No product crate depends on this crate. Every computation of the
//! workspace runs on the thread that asked for it, and a server uses a
//! second core by running a second dispatch worker (`--workers`). What
//! remains is what the benchmark measures with: [`parallel_chunks_mut`]
//! opens one region of scoped threads, [`with_threads`] sets how many, and
//! [`num_threads`] reads the count back. The crate has no dependencies:
//! everything is built on [`std::thread::scope`], which lets worker
//! threads borrow the caller's stack data without `'static` bounds or
//! reference counting.
//!
//! # Determinism contract
//!
//! Results are **byte-identical regardless of the thread count**:
//!
//! * Work is split into *chunks* whose boundaries depend only on the input
//!   length and the requested chunk size — never on the number of workers.
//! * Each chunk is processed start-to-finish by exactly one worker with the
//!   same sequential code the single-threaded path runs, so floating-point
//!   accumulation order inside a chunk never changes.
//! * Chunks write disjoint outputs (each worker gets non-overlapping `&mut`
//!   sub-slices), so no reduction order is introduced across chunks.
//!
//! # Thread count
//!
//! A call uses the count of the innermost [`with_threads`] on the calling
//! thread, or else [`std::thread::available_parallelism`]. A count of 1
//! short-circuits to an inline loop on the calling thread: no threads are
//! spawned.
//!
//! # Example
//!
//! ```
//! let mut data = vec![0u64; 1000];
//! parallel::parallel_chunks_mut(&mut data, 128, |chunk_index, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_index * 128 + i) as u64;
//!     }
//! });
//! assert_eq!(data[999], 999);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads [`parallel_chunks_mut`] will use: the
/// [`with_threads`] override, else the machine's available parallelism
/// (falling back to 1).
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with the thread count pinned to `threads` on the current thread
/// (nested calls shadow outer ones; the previous value is restored on exit,
/// including on panic).
///
/// This is how the benchmark times one region at 1 and at 2 threads
/// without mutating process-global state.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|c| c.set(prev));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and calls `f(chunk_index, chunk)` on every chunk,
/// distributing chunks across worker threads.
///
/// Chunk boundaries depend only on `data.len()` and `chunk_len`, and each
/// chunk is processed sequentially by one worker, so results are identical
/// for every thread count (see the crate-level determinism contract).
///
/// A `chunk_len` of 0 is treated as `data.len()` (one chunk).
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = if chunk_len == 0 {
        data.len()
    } else {
        chunk_len
    };
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Deal chunks round-robin onto workers *before* spawning: assignment is
    // static, so there is no queue contention on the hot path and the borrow
    // checker can see the `&mut` sub-slices are disjoint.
    let mut lanes: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        lanes[i % workers].push((i, chunk));
    }
    let f = &f;
    std::thread::scope(|scope| {
        for lane in lanes {
            scope.spawn(move || {
                for (i, chunk) in lane {
                    f(i, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = num_threads();
        with_threads(3, || {
            assert_eq!(num_threads(), 3);
            with_threads(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 3);
        });
        assert_eq!(num_threads(), outside);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn chunks_cover_every_element_exactly_once() {
        for threads in [1, 2, 5] {
            with_threads(threads, || {
                let mut data = vec![0u32; 103];
                parallel_chunks_mut(&mut data, 10, |_, chunk| {
                    for v in chunk {
                        *v += 1;
                    }
                });
                assert!(data.iter().all(|&v| v == 1), "threads={threads}");
            });
        }
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let mut data = vec![0usize; 57];
        parallel_chunks_mut(&mut data, 8, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 8 + j;
            }
        });
        let expect: Vec<usize> = (0..57).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn zero_chunk_len_means_single_chunk() {
        let mut data = vec![1u8; 9];
        parallel_chunks_mut(&mut data, 0, |i, chunk| {
            assert_eq!(i, 0);
            assert_eq!(chunk.len(), 9);
            for v in chunk {
                *v = 2;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut data: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut data, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        // A float accumulation whose per-chunk order must not change.
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut data = vec![0.0f32; 1024];
                parallel_chunks_mut(&mut data, 100, |i, chunk| {
                    let mut acc = 0.1f32 * (i as f32 + 1.0);
                    for v in chunk.iter_mut() {
                        acc = acc * 1.000_1 + 0.000_3;
                        *v = acc;
                    }
                });
                data
            })
        };
        let single = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(single, run(threads), "threads={threads}");
        }
    }
}
