//! A std-only scoped-thread worker pool for fanning independent
//! experiment cells (scenario × load × replication × scheduler) across
//! cores.
//!
//! Design constraints (see DESIGN.md "Performance model"):
//!
//! * **No new dependencies.** The workspace builds offline against
//!   `crates/compat/*` shims, so the pool is built from
//!   [`std::thread::scope`] plus a [`Mutex`]-guarded job queue. No
//!   `rayon`, no channels beyond std.
//! * **Bit-identical to serial execution.** Each job is a pure function
//!   of its input (every `Experiment::run()` forks its own RNG tree from
//!   the root seed), so the only thing parallelism could perturb is
//!   *ordering*. Jobs carry their index and results are sorted back into
//!   submission order before returning, making `parallel_map` an exact
//!   drop-in for `items.into_iter().map(f).collect()` up to the
//!   per-job `Result` wrapper.
//! * **Supervised execution.** A panicking job no longer aborts the
//!   whole sweep: [`parallel_map`] catches the unwind, retries the job
//!   once on its cloned input (a deterministic failure fails twice; a
//!   transient one — exhausted address space, a poisoned downstream
//!   lock — may recover) and surfaces a persistent failure as a
//!   structured [`WorkerFailure`] in that job's result slot, so a
//!   5000-point sweep reports one bad point instead of losing the other
//!   4999. [`parallel_map_eager`] keeps the old propagate-the-panic
//!   contract: its callers thread non-`Clone` state (whole [`Cell`]s)
//!   through the pool and cannot re-run a job whose input was consumed.
//!
//! [`Cell`]: crate::cell::Cell

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A job that panicked on its first run *and* on its deterministic
/// retry, reported in the job's result slot instead of aborting the
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Attempts made (always 2: the first run plus one retry).
    pub attempts: u32,
    /// The panic payload, stringified (`&str` / `String` payloads pass
    /// through verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} panicked after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Stringify a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// Run one job under supervision: catch a panic, retry once on the
/// cloned input, surface a second panic as [`WorkerFailure`].
fn run_with_retry<T, R, F>(index: usize, item: T, f: &F) -> Result<R, WorkerFailure>
where
    T: Clone,
    F: Fn(T) -> R,
{
    let retry_input = item.clone();
    match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(r) => Ok(r),
        Err(_) => match catch_unwind(AssertUnwindSafe(|| f(retry_input))) {
            Ok(r) => Ok(r),
            Err(payload) => Err(WorkerFailure {
                index,
                attempts: 2,
                message: panic_message(payload.as_ref()),
            }),
        },
    }
}

/// The default worker count: the `OUTRAN_THREADS` environment variable
/// if set to a positive integer, otherwise the machine's available
/// parallelism, otherwise 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("OUTRAN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` worker threads, returning the
/// per-job results in submission order. Each job runs supervised: a
/// panic is caught and retried once on the job's cloned input, and a job
/// that panics twice yields `Err(WorkerFailure)` in its slot instead of
/// aborting the sweep.
///
/// With `threads <= 1`, or fewer than two jobs per worker
/// (`items.len() < 2 × threads`), this degrades to a plain serial map on
/// the calling thread: spawning and joining a scoped pool costs more
/// than it saves until each worker has at least a couple of jobs to
/// amortise it (the `speedup < 1` artifact a serial-vs-pooled sweep
/// showed on small machines). Jobs known to be individually heavy can
/// bypass the heuristic with [`parallel_map_eager`].
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<Result<R, WorkerFailure>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 || n < 2 * workers {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_with_retry(i, item, &f))
            .collect();
    }
    pooled_map(workers, items, |i, item| run_with_retry(i, item, &f))
}

/// [`parallel_map`] without the jobs-per-worker heuristic or the
/// supervision wrapper: pools whenever `threads > 1` and there are at
/// least two items, and a worker panic propagates out of the scope (its
/// callers thread non-`Clone` state — whole cells — through the pool,
/// so a retry has no input to re-run). For coarse-grained jobs (whole
/// cells, multi-second epochs) where the pool setup cost is negligible
/// against a single job.
pub fn parallel_map_eager<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    pooled_map(workers, items, |_, item| f(item))
}

fn pooled_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    let f = &f;

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Poison recovery instead of panicking: a poisoned lock
                // means another worker already panicked, and the scope
                // will re-raise that panic at join; the queue itself is
                // still structurally sound.
                let job = jobs
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front();
                match job {
                    Some((idx, item)) => {
                        let out = f(idx, item);
                        results
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push((idx, out));
                    }
                    None => break,
                }
            });
        }
    });

    let mut out = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    out.sort_by_key(|&(idx, _)| idx);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oks<R: Clone>(results: &[Result<R, WorkerFailure>]) -> Vec<R> {
        results
            .iter()
            .map(|r| r.as_ref().expect("unexpected worker failure").clone())
            .collect()
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let par = parallel_map(threads, items.clone(), |x| x * x);
            assert_eq!(oks(&par), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty = parallel_map(4, Vec::<u64>::new(), |x| x);
        assert!(empty.is_empty());
        let one = parallel_map(4, vec![7u64], |x| x + 1);
        assert_eq!(oks(&one), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(16, vec![1, 2, 3], |x| x * 10);
        assert_eq!(oks(&out), vec![10, 20, 30]);
    }

    #[test]
    fn small_sweeps_run_inline() {
        // Fewer than two jobs per worker: no pool is spun up, the map
        // runs on the calling thread.
        let main = std::thread::current().id();
        let out = parallel_map(4, vec![1, 2, 3], |x| {
            assert_eq!(std::thread::current().id(), main);
            x + 1
        });
        assert_eq!(oks(&out), vec![2, 3, 4]);
    }

    #[test]
    fn eager_matches_serial() {
        let items: Vec<u64> = (0..7).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(parallel_map_eager(4, items, |x| x * 3), serial);
    }

    #[test]
    fn deterministic_panic_surfaces_as_failure() {
        // A deterministic panic fails both attempts and lands as a
        // structured failure in its own slot; every other job survives.
        for threads in [1, 2, 4] {
            let out = parallel_map(threads, vec![0u64, 1, 2, 3], |x| {
                if x == 2 {
                    panic!("boom at {x}");
                }
                x * 10
            });
            assert_eq!(out.len(), 4);
            assert_eq!(out[0], Ok(0));
            assert_eq!(out[1], Ok(10));
            assert_eq!(out[3], Ok(30));
            let failure = out[2].as_ref().unwrap_err();
            assert_eq!(failure.index, 2);
            assert_eq!(failure.attempts, 2);
            assert!(failure.message.contains("boom at 2"), "{failure}");
        }
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let tries = AtomicU32::new(0);
        let out = parallel_map(1, vec![5u64], |x| {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            x + 1
        });
        assert_eq!(out, vec![Ok(6)]);
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic]
    fn eager_worker_panic_still_propagates() {
        parallel_map_eager(2, vec![0, 1, 2, 3], |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
