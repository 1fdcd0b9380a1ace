//! A std-only work-stealing parallel batch driver.
//!
//! The session types are `Rc`-based and the interning arena is
//! thread-local, so a "shared warm snapshot" cannot be shared memory:
//! instead each worker thread builds its own worker state (typically a
//! [`crate::Session`] warmed from one shared prelude recipe), then
//! drains jobs from a shared injector deque and, when that runs dry,
//! steals from the tails of sibling workers' local deques.
//!
//! Two entry points:
//!
//! * [`run_batch_scoped`] — the primitive. Each worker runs a caller
//!   closure with a [`JobSource`]; the closure owns its whole stack
//!   frame, so worker state may borrow from other worker-locals (a
//!   `Session` borrowing its `Declarations`).
//! * [`run_batch`] — convenience init/step form returning results in
//!   job order plus per-worker metadata.
//!
//! [`run_batch_scoped_then`] hands the workers' outputs on before the
//! exiting threads are joined, for a caller that ends the process
//! there and need not wait for their teardown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker execution metadata.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerMeta {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs: usize,
    /// Jobs this worker stole from a sibling's local deque.
    pub steals: usize,
    /// Wall-clock milliseconds spent in the worker loop (including
    /// worker-state construction).
    pub millis: u128,
}

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
    /// Jobs this worker pulled so far.
    pub taken: usize,
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
                self.taken += 1;
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
                    self.taken += 1;
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
                self.taken += 1;
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
                            taken: 0,
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

/// Init/step convenience form of [`run_batch_scoped`]: `init(w)` runs
/// on worker thread `w` to build its state, `step` runs each job.
/// The result vector is indexed like `jobs`; metadata is indexed by
/// worker.
///
/// # Panics
///
/// Propagates panics from `init` or `step`.
pub fn run_batch<J, R, W>(
    jobs: Vec<J>,
    workers: usize,
    init: impl Fn(usize) -> W + Sync,
    step: impl Fn(&mut W, J) -> R + Sync,
) -> (Vec<R>, Vec<WorkerMeta>)
where
    J: Send,
    R: Send,
{
    let total = jobs.len();
    let outputs = run_batch_scoped(jobs, workers, |w, source| {
        let started = Instant::now();
        let mut state = init(w);
        let mut out: Vec<(usize, R)> = Vec::new();
        for (ix, job) in source.by_ref() {
            out.push((ix, step(&mut state, job)));
        }
        let meta = WorkerMeta {
            worker: w,
            jobs: source.taken,
            steals: source.steals,
            millis: started.elapsed().as_millis(),
        };
        (out, meta)
    });
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut metas = Vec::with_capacity(outputs.len());
    for (out, meta) in outputs {
        for (ix, r) in out {
            debug_assert!(slots[ix].is_none(), "job {ix} ran twice");
            slots[ix] = Some(r);
        }
        metas.push(meta);
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every job index filled exactly once"))
        .collect();
    metas.sort_by_key(|m| m.worker);
    (results, metas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_runs_exactly_once_and_results_are_ordered() {
        for workers in [1, 2, 3, 8] {
            let jobs: Vec<u64> = (0..203).collect();
            let (results, metas) = run_batch(
                jobs,
                workers,
                |_| 0u64,
                |state, j| {
                    *state += 1;
                    j * 2
                },
            );
            assert_eq!(results, (0..203).map(|j| j * 2).collect::<Vec<_>>());
            let total: usize = metas.iter().map(|m| m.jobs).sum();
            assert_eq!(total, 203, "workers={workers} metas={metas:?}");
        }
    }

    #[test]
    fn empty_batch_and_more_workers_than_jobs_are_fine() {
        let (results, _) = run_batch(Vec::<u8>::new(), 4, |_| (), |_, j| j);
        assert!(results.is_empty());
        let (results, metas) = run_batch(vec![1, 2], 16, |_| (), |_, j| j + 1);
        assert_eq!(results, vec![2, 3]);
        assert!(metas.len() <= 2);
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
        let jobs: Vec<u64> = (0..64).collect();
        let (results, _) = run_batch(
            jobs,
            4,
            |_| (),
            |_, j| {
                if j == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                j
            },
        );
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }
}
