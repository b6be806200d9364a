//! The ordered executor: the one way this workspace runs independent
//! work items on a pool of threads. Plan legs, suite tasks and fuzz
//! candidates all run through [`run_ordered`], so their outputs are
//! byte-identical at any worker count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a worker-count request: `0` (the "auto" convention shared by
/// `--jobs 0` and an omitted flag) becomes one worker per available
/// hardware thread; any other value passes through. Never returns zero.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Runs `f(0)`, …, `f(n - 1)` on up to `jobs` scoped worker threads and
/// returns the results in index order.
///
/// - With one worker (or at most one item) everything runs inline on the
///   caller's thread; no thread is spawned.
/// - After the first `Err` no worker claims a new item. Items already in
///   flight finish, and the lowest-index error among those that ran is
///   returned.
/// - A panic in `f` propagates to the caller with its original payload,
///   once every worker has stopped.
///
/// `jobs` is taken literally (`0` counts as one); resolve an "auto"
/// request with [`resolve_jobs`] first.
///
/// # Errors
///
/// The first error `f` returned, by index.
pub fn run_ordered<T, E, F>(n: usize, jobs: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = jobs.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        while !failed.load(Ordering::SeqCst) {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                break;
            }
            let out = f(i);
            if out.is_err() {
                failed.store(true, Ordering::SeqCst);
            }
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    // Indices are claimed in increasing order and every claimed item
    // completes, so every slot before the first error is filled; the
    // collect stops at that error and never reaches an unclaimed slot.
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item before the first error ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_are_in_index_order_at_any_worker_count() {
        for jobs in [1, 2, 4] {
            let out: Result<Vec<usize>, ()> = run_ordered(37, jobs, |i| {
                // Uneven item costs shuffle completion order.
                std::thread::sleep(Duration::from_micros(((i * 7919) % 13) as u64 * 50));
                Ok(i * i)
            });
            let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(out.unwrap(), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids: Result<Vec<_>, ()> = run_ordered(5, 1, |_| Ok(std::thread::current().id()));
        assert!(ids.unwrap().iter().all(|id| *id == caller));
        // A single item never needs a pool either.
        let ids: Result<Vec<_>, ()> = run_ordered(1, 4, |_| Ok(std::thread::current().id()));
        assert_eq!(ids.unwrap(), vec![caller]);
    }

    #[test]
    fn no_item_is_claimed_after_the_first_error() {
        // Inline: the run stops at the failing item exactly.
        let ran = Mutex::new(Vec::new());
        let out: Result<Vec<()>, usize> = run_ordered(10, 1, |i| {
            ran.lock().unwrap().push(i);
            if i == 3 {
                Err(i)
            } else {
                Ok(())
            }
        });
        assert_eq!(out, Err(3));
        assert_eq!(*ran.lock().unwrap(), vec![0, 1, 2, 3]);

        // Pooled: the failing item returns at once while the others take
        // a while, so every other worker is mid-item when the error lands
        // and stops after it. Nothing past one claim per worker can run.
        for jobs in [2, 4] {
            let ran = Mutex::new(Vec::new());
            let out: Result<Vec<()>, usize> = run_ordered(200, jobs, |i| {
                ran.lock().unwrap().push(i);
                if i == 5 {
                    return Err(i);
                }
                std::thread::sleep(Duration::from_millis(60));
                Ok(())
            });
            assert_eq!(out, Err(5), "jobs={jobs}");
            let ran = ran.into_inner().unwrap();
            let last = ran.iter().copied().max().unwrap();
            assert!(
                last < 5 + jobs,
                "jobs={jobs}: item {last} was claimed after the error at 5"
            );
        }
    }

    #[test]
    fn the_lowest_index_error_wins() {
        // Items 2 and 3 are claimed in the same first round and both
        // fail; the result names the lower one whichever finished first.
        let out: Result<Vec<()>, usize> =
            run_ordered(8, 4, |i| if i >= 2 { Err(i) } else { Ok(()) });
        assert_eq!(out, Err(2));
    }

    #[test]
    #[should_panic(expected = "item 2 faulted")]
    fn a_panic_propagates_with_its_payload() {
        let _: Result<Vec<()>, ()> = run_ordered(4, 2, |i| {
            assert!(i != 2, "item {i} faulted");
            Ok(())
        });
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn empty_input_is_an_empty_result() {
        let out: Result<Vec<u8>, ()> = run_ordered(0, 4, |_| unreachable!());
        assert_eq!(out, Ok(Vec::new()));
    }
}
