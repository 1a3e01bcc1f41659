//! Thread-pool substrate implementing the paper's Step 2 scheduling.
//!
//! §II-F: "The clusters are stored in a synchronized, decreasing priority
//! queue, ordered according to their size. We then use a basic thread pool
//! to compute the KNN graph of each cluster in the queue, starting with the
//! largest clusters and working down the priority queue until it becomes
//! empty." [`PriorityPool`] is exactly that: a fixed job set sorted by
//! decreasing priority, drained by a pool of scoped worker threads through
//! an atomic cursor (the jobs are known up front, so a lock-free cursor over
//! a sorted slice implements the synchronized queue with no contention).
//!
//! [`parallel_ranges`] is the second, simpler pattern the baselines need:
//! self-scheduled chunks of a user range (brute force halves, greedy
//! iterations).
//!
//! Built on `std::thread::scope` + atomics only; `rayon` is outside the
//! allowed crate set, and the paper's scheduling is explicit enough that a
//! bespoke pool is the more faithful reproduction.

use parking_lot::Mutex;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A largest-first parallel executor over a fixed set of prioritized jobs.
pub struct PriorityPool;

impl PriorityPool {
    /// Runs every job on `threads` workers, dispatching in decreasing
    /// `priority` order. `worker` must be safe to call concurrently.
    ///
    /// Jobs with equal priority keep their submission order (stable sort),
    /// which makes single-threaded runs fully deterministic.
    ///
    /// # Panics
    /// Panics if `threads == 0`. The first job to panic stops dispatch:
    /// jobs already running finish, no further job starts, and once every
    /// thread has joined its payload is re-raised, intact, on the calling
    /// thread.
    pub fn run<J, F>(threads: usize, mut jobs: Vec<(u64, J)>, worker: F)
    where
        J: Send,
        F: Fn(J) + Sync,
    {
        assert!(threads > 0, "thread pool needs at least one thread");
        jobs.sort_by_key(|(priority, _)| std::cmp::Reverse(*priority));
        let cursor = AtomicUsize::new(0);
        // Hand out jobs through Option slots so workers can take ownership.
        let slots: Vec<Mutex<Option<J>>> =
            jobs.into_iter().map(|(_, job)| Mutex::new(Some(job))).collect();
        let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let stopped = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(slots.len()).max(1) {
                scope.spawn(|| {
                    while !stopped.load(Ordering::Relaxed) {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(index) else { break };
                        let Some(job) = slot.lock().take() else { continue };
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker(job))) {
                            stopped.store(true, Ordering::Relaxed);
                            failure.lock().get_or_insert(payload);
                        }
                    }
                });
            }
        });
        if let Some(payload) = failure.into_inner() {
            resume_unwind(payload);
        }
    }
}

/// Splits `0..n` into `grain`-sized chunks and processes them on `threads`
/// self-scheduling workers.
///
/// # Panics
/// Panics if `threads == 0` or `grain == 0`.
pub fn parallel_ranges<F>(threads: usize, n: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    assert!(threads > 0, "parallel_ranges needs at least one thread");
    assert!(grain > 0, "grain must be positive");
    if n == 0 {
        return;
    }
    if threads == 1 || n <= grain {
        body(0..n);
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                body(start..(start + grain).min(n));
            });
        }
    });
}

/// The number of worker threads to use when the caller passes 0 ("auto"):
/// the machine's available parallelism, matching the paper's use of all 8
/// hardware threads of its testbed.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let jobs: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        PriorityPool::run(4, jobs, |job| {
            counter.fetch_add(job + 1, Ordering::Relaxed);
        });
        // Σ (i + 1) for i in 0..100 = 5050.
        assert_eq!(counter.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn single_thread_runs_largest_first() {
        let order = Mutex::new(Vec::new());
        let jobs: Vec<(u64, u64)> = vec![(3, 3), (10, 10), (1, 1), (7, 7)];
        PriorityPool::run(1, jobs, |job| order.lock().unwrap().push(job));
        assert_eq!(*order.lock().unwrap(), vec![10, 7, 3, 1]);
    }

    #[test]
    fn equal_priorities_keep_submission_order() {
        let order = Mutex::new(Vec::new());
        let jobs: Vec<(u64, u32)> = vec![(5, 0), (5, 1), (5, 2)];
        PriorityPool::run(1, jobs, |job| order.lock().unwrap().push(job));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_job_set_is_a_no_op() {
        PriorityPool::run(4, Vec::<(u64, ())>::new(), |_| panic!("no jobs expected"));
    }

    #[test]
    fn jobs_can_capture_and_mutate_shared_state() {
        let results: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        let jobs: Vec<(u64, usize)> = (0..16).map(|i| (i as u64, i)).collect();
        PriorityPool::run(8, jobs, |i| {
            results[i].store(i as u64 * 2, Ordering::Relaxed);
        });
        for (i, slot) in results.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), i as u64 * 2);
        }
    }

    #[test]
    fn parallel_ranges_covers_everything_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        parallel_ranges(4, 1000, 37, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_ranges_handles_zero_n() {
        parallel_ranges(4, 0, 10, |_| panic!("no ranges expected"));
    }

    #[test]
    fn parallel_ranges_single_thread_is_one_call() {
        let calls = AtomicU64::new(0);
        parallel_ranges(1, 100, 10, |range| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(range, 0..100);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[derive(Debug, PartialEq)]
    struct Payload(u32);

    #[test]
    fn a_job_panic_reaches_the_caller_with_its_payload() {
        for threads in [1usize, 4] {
            let ran = Mutex::new(Vec::new());
            let jobs: Vec<(u64, u32)> = (0..8).map(|i| (8 - i as u64, i)).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                PriorityPool::run(threads, jobs, |job| {
                    ran.lock().unwrap().push(job);
                    if job == 3 {
                        std::panic::panic_any(Payload(job));
                    }
                })
            }));
            let payload = outcome.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(3)), "{threads} threads");
            if threads == 1 {
                // Largest-first runs jobs 0..=3; none after the panicking one.
                assert_eq!(*ran.lock().unwrap(), vec![0, 1, 2, 3]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        PriorityPool::run(0, vec![(1u64, ())], |_| {});
    }
}
