//! A std-only work-stealing parallel batch driver.
//!
//! The session types are `Rc`-based and the interning arena is
//! thread-local, so a "shared warm snapshot" cannot be shared memory:
//! instead each worker thread builds its own worker state (typically a
//! [`crate::Session`] warmed from one shared prelude recipe), then
//! drains jobs from a shared injector deque and, when that runs dry,
//! steals from the tails of sibling workers' local deques.
//!
//! In [`run_batch_scoped`] each worker runs a caller closure with a
//! [`JobSource`]; the closure owns its whole stack frame, so worker
//! state may borrow from other worker-locals (a `Session` borrowing its
//! `Declarations`). [`run_batch_scoped_then`] hands the workers'
//! outputs on before the exiting threads are joined, for a caller that
//! ends the process there and need not wait for their teardown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many jobs a worker moves from the injector to its local deque
/// per grab.
fn grab_size(total: usize, workers: usize) -> usize {
    (total / (workers * 4).max(1)).clamp(1, 64)
}

/// Worker thread stack size. Resolution, elaboration, and both
/// evaluators recurse once per derivation level, and chain-style
/// preludes make derivations tens of levels deep — debug-build frames
/// for those interleaved calls overflow the 2 MiB spawn default.
///
/// The two *tree-walking* evaluators are the other reason this is
/// 64 MiB rather than the 8 MiB main-thread default: they recurse on
/// the host stack once per level of evaluation, and a non-tail
/// recursion in the program nests a few levels per call. Each stops
/// at its bound with a structured error — [`systemf::MAX_EVAL_DEPTH`]
/// (75,000 levels) and [`implicit_opsem::MAX_EVAL_DEPTH`] (30,000
/// levels, runtime resolutions included) — and every recursion shape
/// runs at those bounds on this stack in a release build, using at
/// most 34.3 MiB and 31.6 MiB of it (EXPERIMENTS.md §18). The
/// bytecode VM ([`systemf::vm`], `Session::run_compiled`)
/// heap-allocates its frames and runs the same programs in constant
/// host stack — see `systemf/tests/vm_deep.rs`, which executes a
/// 100k-step fold on a deliberately small thread.
const WORKER_STACK: usize = 64 << 20;

/// Spawns a detached *service* worker on the same deep stack the
/// batch workers use ([`WORKER_STACK`]): resident daemon tenants run
/// the identical recursion-heavy pipeline (resolution, elaboration,
/// both evaluators) and need the identical headroom, but live for the
/// daemon's lifetime instead of one batch drain.
///
/// # Errors
///
/// OS thread-spawn failures.
pub fn spawn_service_worker<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<T>> {
    std::thread::Builder::new()
        .name(name)
        .stack_size(WORKER_STACK)
        .spawn(f)
}

/// Shared queue state for one batch run.
struct Shared<J> {
    injector: Mutex<VecDeque<(usize, J)>>,
    locals: Vec<Mutex<VecDeque<(usize, J)>>>,
    dispatched: AtomicUsize,
    total: usize,
    grab: usize,
}

/// A worker's handle on the shared job queues. [`JobSource::next`]
/// yields `(job_index, job)` pairs until the whole batch is drained.
pub struct JobSource<'a, J> {
    shared: &'a Shared<J>,
    worker: usize,
    /// Jobs this worker stole from siblings' deques.
    pub steals: usize,
}

impl<J> Iterator for JobSource<'_, J> {
    type Item = (usize, J);

    /// The next job for this worker: local deque first, then a grab
    /// from the shared injector, then a steal from a sibling's tail.
    /// Returns `None` once every job in the batch has been handed out.
    fn next(&mut self) -> Option<(usize, J)> {
        let sh = self.shared;
        let w = self.worker;
        loop {
            if let Some(j) = sh.locals[w].lock().unwrap().pop_front() {
                sh.dispatched.fetch_add(1, Ordering::Release);
                return Some(j);
            }
            {
                let mut inj = sh.injector.lock().unwrap();
                if let Some(first) = inj.pop_front() {
                    let mut local = sh.locals[w].lock().unwrap();
                    for _ in 1..sh.grab {
                        match inj.pop_front() {
                            Some(j) => local.push_back(j),
                            None => break,
                        }
                    }
                    drop(local);
                    drop(inj);
                    sh.dispatched.fetch_add(1, Ordering::Release);
                    return Some(first);
                }
            }
            let workers = sh.locals.len();
            let mut stolen = None;
            for off in 1..workers {
                let victim = (w + off) % workers;
                if let Some(j) = sh.locals[victim].lock().unwrap().pop_back() {
                    stolen = Some(j);
                    break;
                }
            }
            if let Some(j) = stolen {
                self.steals += 1;
                sh.dispatched.fetch_add(1, Ordering::Release);
                return Some(j);
            }
            if sh.dispatched.load(Ordering::Acquire) >= sh.total {
                return None;
            }
            // Everything is momentarily in flight between queues; let
            // the holder make progress.
            std::thread::yield_now();
        }
    }
}

/// Runs `jobs` across `workers` threads with work stealing, giving
/// each worker full control of its own stack frame: `work(w, source)`
/// runs on worker thread `w` and pulls jobs via
/// [`JobSource::next`]. Worker state need not be `Send`, and state
/// built inside `work` may borrow from earlier locals of the same
/// frame.
///
/// Returns each worker's output, indexed by worker.
///
/// # Panics
///
/// Propagates panics from `work`.
pub fn run_batch_scoped<J, T>(
    jobs: Vec<J>,
    workers: usize,
    work: impl Fn(usize, &mut JobSource<'_, J>) -> T + Sync,
) -> Vec<T>
where
    J: Send,
    T: Send,
{
    run_batch_scoped_then(jobs, workers, work, |outputs| outputs)
}

/// [`run_batch_scoped`], handing the workers' outputs (indexed by
/// worker) to `finish` as soon as the last worker has produced its
/// own, while the worker threads may still be exiting. They are
/// joined after `finish` returns, so a caller that ends the process
/// in `finish` never waits for their teardown.
///
/// # Panics
///
/// Propagates panics from `work` (then `finish` does not run).
pub fn run_batch_scoped_then<J, T, R>(
    jobs: Vec<J>,
    workers: usize,
    work: impl Fn(usize, &mut JobSource<'_, J>) -> T + Sync,
    finish: impl FnOnce(Vec<T>) -> R,
) -> R
where
    J: Send,
    T: Send,
{
    let total = jobs.len();
    let workers = workers.max(1).min(total.max(1));
    let shared = Shared {
        injector: Mutex::new(jobs.into_iter().enumerate().collect()),
        locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        dispatched: AtomicUsize::new(0),
        total,
        grab: grab_size(total, workers),
    };
    let shared = &shared;
    let work = &work;
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("batch-worker-{w}"))
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(s, move || {
                        let mut source = JobSource {
                            shared,
                            worker: w,
                            steals: 0,
                        };
                        let _ = tx.send((w, work(w, &mut source)));
                    })
                    .expect("spawn batch worker")
            })
            .collect();
        drop(tx);
        // Ends early only when a worker panicked and dropped its
        // sender unsent; the joins below then propagate the panic.
        let mut outputs: Vec<Option<T>> = (0..workers).map(|_| None).collect();
        for (w, out) in rx.iter().take(workers) {
            outputs[w] = Some(out);
        }
        let outputs: Option<Vec<T>> = outputs.into_iter().collect();
        let finished = outputs.map(finish);
        for h in handles {
            h.join().expect("batch worker panicked");
        }
        finished.expect("every worker that returned sent its output")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on every job through [`run_batch_scoped`] and returns
    /// the results in job order, with the number of workers that ran;
    /// every job must run exactly once.
    fn in_job_order<J: Send, R: Send>(
        jobs: Vec<J>,
        workers: usize,
        f: impl Fn(J) -> R + Sync,
    ) -> (Vec<R>, usize) {
        let total = jobs.len();
        let outputs = run_batch_scoped(jobs, workers, |_, source| {
            source.map(|(ix, j)| (ix, f(j))).collect::<Vec<_>>()
        });
        let ran = outputs.len();
        let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
        for (ix, r) in outputs.into_iter().flatten() {
            assert!(slots[ix].replace(r).is_none(), "job {ix} ran twice");
        }
        let results = slots.into_iter().map(|r| r.expect("every job ran"));
        (results.collect(), ran)
    }

    #[test]
    fn every_job_runs_exactly_once_and_results_are_ordered() {
        for workers in [1, 2, 3, 8] {
            let (results, _) = in_job_order((0..203).collect(), workers, |j: u64| j * 2);
            assert_eq!(results, (0..203).map(|j| j * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_and_more_workers_than_jobs_are_fine() {
        let (results, _) = in_job_order(Vec::<u8>::new(), 4, |j| j);
        assert!(results.is_empty());
        let (results, ran) = in_job_order(vec![1, 2], 16, |j| j + 1);
        assert_eq!(results, vec![2, 3]);
        assert!(ran <= 2);
    }

    #[test]
    fn scoped_workers_can_borrow_their_own_locals() {
        // The state (`&base`) borrows from the worker's own frame —
        // the pattern session workers rely on.
        let jobs: Vec<u32> = (0..50).collect();
        let sums = run_batch_scoped(jobs, 3, |_, source| {
            let base: u32 = 1000;
            let state = &base;
            let mut sum = 0u64;
            for (_, j) in source {
                sum += u64::from(*state + j);
            }
            sum
        });
        let total: u64 = sums.iter().sum();
        assert_eq!(total, (0..50u64).map(|j| 1000 + j).sum::<u64>());
    }

    #[test]
    fn stealing_rebalances_a_skewed_batch() {
        // One slow job up front; the rest drain via other workers
        // (exercised for coverage, not asserted on timing).
        let (results, _) = in_job_order((0..64).collect(), 4, |j: u64| {
            if j == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            j
        });
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }
}
