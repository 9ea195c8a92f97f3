//! One work-stealing thread pool for the whole pipeline.
//!
//! Every parallel region of the dcer stack — the HyPart distribution scan,
//! merge, fragment and host-table builds, `IndexSet::build_all`, the fleet
//! build and the BSP superstep's compute — used to spawn fresh
//! [`std::thread::scope`] threads over even-by-count splits. This crate
//! replaces all of them with a single reusable [`WorkPool`] created once
//! per session/pipeline run:
//!
//! - **Batches** ([`WorkPool::run`]): a vector of independent tasks is
//!   distributed over per-lane deques by a caller-supplied cost model
//!   (contiguous, weight-balanced split). The caller participates as lane
//!   0; idle workers steal half of the richest lane's queue from the back.
//!   Results land in index-ordered slots, so the output is a pure function
//!   of the task list — bit-identical at every pool size regardless of
//!   which thread executed what (determinism by ordered merge). Tasks never
//!   wait on each other, so a batch completes at any pool size; a BSP
//!   superstep is one batch, and its join is the barrier.
//! - **Parking**: workers with no claimable work sleep on a condvar. While
//!   a batch is still in flight the wait is recorded as a `pool.park` span
//!   (attributed to the `scheduler` phase of the makespan decomposition);
//!   between phases workers park silently.
//!
//! Pool threads are OS-named `pool-{i}`, which is also the label their
//! lazily-allocated trace tracks inherit, keeping profiler output
//! readable. Instrumentation: `pool.task` / `pool.steal` / `pool.park`
//! counters and a per-lane `pool.queue_depth` gauge (all free when no
//! recorder is installed).

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A fixed-size work-stealing pool. `size` counts the *caller's* lane:
/// `WorkPool::new(1)` spawns no threads at all and runs everything inline,
/// `WorkPool::new(8)` spawns 7 workers that cooperate with the calling
/// thread. Dropping the pool joins all workers.
pub struct WorkPool {
    shared: Arc<Shared>,
    size: usize,
    handles: Vec<JoinHandle<()>>,
}

/// Cumulative pool counters (monotonic over the pool's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed by multi-lane batches, on any lane. Batches the
    /// caller runs inline (one lane or one task) are not counted.
    pub tasks: u64,
    /// Steal operations (one per half-queue transfer, not per task).
    pub steals: u64,
    /// Times a worker went to sleep on the condvar.
    pub parks: u64,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    tasks: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

#[derive(Default)]
struct PoolState {
    /// Active batches, oldest first. Erased to `'static`: see the safety
    /// argument on [`WorkPool::run`].
    batches: Vec<Arc<dyn BatchRun>>,
    shutdown: bool,
}

/// Type-erased view of one in-flight batch, shared with the workers.
trait BatchRun: Send + Sync {
    /// Execute one task for `lane` (own queue first, else steal half of
    /// the richest other lane). Returns `false` when no task is claimable.
    fn run_one(&self, lane: usize) -> bool;
    /// Whether any lane still holds unclaimed tasks.
    fn has_work(&self) -> bool;
}

struct Batch<T, F> {
    lanes: Vec<Mutex<VecDeque<usize>>>,
    tasks: Vec<Mutex<Option<F>>>,
    results: Vec<Mutex<Option<std::thread::Result<T>>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    stats: Arc<Shared>,
}

impl<T: Send, F: FnOnce() -> T + Send> Batch<T, F> {
    fn execute(&self, idx: usize) {
        let f = self.tasks[idx].lock().unwrap().take().expect("task claimed once");
        let out = catch_unwind(AssertUnwindSafe(f));
        *self.results[idx].lock().unwrap() = Some(out);
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        dcer_obs::counter_add("pool.task", 1);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }
}

impl<T: Send, F: FnOnce() -> T + Send> BatchRun for Batch<T, F> {
    // Lock discipline: lane mutexes are leaf locks — they are only ever
    // held for a queue operation and released before executing a task,
    // stealing, or touching any other lock. (`worker_loop` holds the pool
    // state lock while probing `has_work`, so a thread that held a lane
    // lock while waiting on anything else would complete an ABBA cycle.)
    fn run_one(&self, lane: usize) -> bool {
        loop {
            // Bind the pop outside `if let` so the guard (a temporary in
            // the scrutinee, which would live for the whole `if let`) is
            // dropped before the task runs.
            let popped = self.lanes[lane].lock().unwrap().pop_front();
            if let Some(idx) = popped {
                self.execute(idx);
                return true;
            }
            // Own queue dry: steal the back half of the richest other lane.
            let victim = self
                .lanes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != lane)
                .map(|(i, q)| (q.lock().unwrap().len(), i))
                .max_by_key(|&(len, i)| (len, usize::MAX - i))
                .filter(|&(len, _)| len > 0)
                .map(|(_, i)| i);
            let Some(victim) = victim else { return false };
            let stolen = {
                let mut q = self.lanes[victim].lock().unwrap();
                let n = q.len();
                if n == 0 {
                    None // drained between the length scan and this lock
                } else {
                    let half = q.split_off(n - n.div_ceil(2));
                    dcer_obs::gauge_set_labeled("pool.queue_depth", victim as u32, q.len() as f64);
                    Some(half)
                }
            };
            let Some(stolen) = stolen else { continue }; // lost the race; rescan lock-free
            self.stats.steals.fetch_add(1, Ordering::Relaxed);
            dcer_obs::counter_add("pool.steal", 1);
            let idx = {
                let mut own = self.lanes[lane].lock().unwrap();
                own.extend(stolen);
                let idx = own.pop_front();
                dcer_obs::gauge_set_labeled("pool.queue_depth", lane as u32, own.len() as f64);
                idx
            };
            match idx {
                Some(idx) => {
                    self.execute(idx);
                    return true;
                }
                None => return false,
            }
        }
    }

    fn has_work(&self) -> bool {
        self.lanes.iter().any(|q| !q.lock().unwrap().is_empty())
    }
}

/// Contiguous weight-balanced split of task indices `0..n` into `lanes`
/// queues: cut points are where the cumulative weight crosses each lane's
/// equal share. A pure function of the weights, so the distribution — and
/// with it every downstream artifact — is deterministic. Falls back to an
/// even-by-count split without weights (or when all weights are zero).
fn distribute(n: usize, weights: Option<&[u64]>, lanes: usize) -> Vec<VecDeque<usize>> {
    let mut queues: Vec<VecDeque<usize>> = (0..lanes).map(|_| VecDeque::new()).collect();
    let total: u128 = weights.map_or(0, |w| w.iter().map(|&x| x as u128).sum());
    match weights {
        Some(w) if total > 0 => {
            debug_assert_eq!(w.len(), n);
            let mut cum = 0u128;
            let mut lane = 0usize;
            for (i, &wi) in w.iter().enumerate() {
                // Advance past every lane whose share is already filled.
                while lane + 1 < lanes && cum * lanes as u128 >= total * (lane + 1) as u128 {
                    lane += 1;
                }
                queues[lane].push_back(i);
                cum += wi as u128;
            }
        }
        _ => {
            for (lane, q) in queues.iter_mut().enumerate() {
                for i in n * lane / lanes..n * (lane + 1) / lanes {
                    q.push_back(i);
                }
            }
        }
    }
    queues
}

impl WorkPool {
    /// Create a pool of `size` lanes (`size - 1` OS threads plus the
    /// caller). `size` is clamped to at least 1.
    pub fn new(size: usize) -> WorkPool {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        });
        let handles = (0..size - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkPool { shared, size, handles }
    }

    /// Number of lanes (including the caller's).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
        }
    }

    /// Run a batch of independent tasks, returning results in task order.
    ///
    /// `weights` (same length as `tasks`) is the cost model: the initial
    /// distribution gives each lane a contiguous, weight-balanced index
    /// range, and stealing absorbs whatever imbalance the model missed.
    /// With one lane (or one task) everything runs inline on the caller,
    /// sequentially and in order.
    ///
    /// Panics in a task are caught, and the first one (in task order) is
    /// resumed on the caller after every task has finished — the same
    /// observable behavior as `std::thread::scope`.
    pub fn run<T, F>(&self, tasks: Vec<F>, weights: Option<&[u64]>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if self.size == 1 || n == 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }
        let lanes = distribute(n, weights, self.size);
        if dcer_obs::enabled() {
            for (lane, q) in lanes.iter().enumerate() {
                dcer_obs::gauge_set_labeled("pool.queue_depth", lane as u32, q.len() as f64);
            }
        }
        let batch = Arc::new(Batch {
            lanes: lanes.into_iter().map(Mutex::new).collect(),
            tasks: tasks.into_iter().map(|f| Mutex::new(Some(f))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            stats: Arc::clone(&self.shared),
        });

        // SAFETY: `Batch` borrows the caller's environment through `T` and
        // `F`. The lifetime is erased so workers (plain `'static` threads)
        // can share it, which is sound because:
        // (1) this function does not return (or unwind) before `remaining`
        //     hits zero, i.e. every `F` has been consumed and every `T`
        //     moved into a result slot — all while the environment is live;
        // (2) the results (and any panic payloads) are drained below,
        //     still inside this call, so no borrowed value outlives it;
        // (3) a worker that holds the erased Arc after completion only
        //     touches empty queues/slots and plain atomics; the eventual
        //     drop of the Arc frees containers that hold no borrowed data.
        let erased: Arc<dyn BatchRun + '_> = batch.clone();
        let erased: Arc<dyn BatchRun> =
            unsafe { std::mem::transmute::<Arc<dyn BatchRun + '_>, Arc<dyn BatchRun>>(erased) };
        let key = Arc::as_ptr(&erased) as *const ();
        self.shared.state.lock().unwrap().batches.push(erased);
        self.shared.work_cv.notify_all();

        // The caller is lane 0.
        while batch.run_one(0) {}
        let mut d = batch.done.lock().unwrap();
        while !*d {
            d = batch.done_cv.wait(d).unwrap();
        }
        drop(d);
        self.shared.state.lock().unwrap().batches.retain(|b| Arc::as_ptr(b) as *const () != key);
        // Wake parked workers so any open `pool.park` span closes with the
        // batch instead of stretching into the next phase.
        self.shared.work_cv.notify_all();

        let mut out: Vec<std::thread::Result<T>> =
            batch.results.iter().map(|s| s.lock().unwrap().take().expect("task ran")).collect();
        if let Some(pos) = out.iter().position(|r| r.is_err()) {
            let Err(payload) = out.swap_remove(pos) else { unreachable!() };
            drop(out); // drop surviving results before unwinding past them
            resume_unwind(payload);
        }
        out.into_iter().map(|r| r.unwrap()).collect()
    }
}

fn worker_loop(shared: Arc<Shared>, worker: usize) {
    let lane = worker + 1;
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(b) = st.batches.iter().find(|b| b.has_work()) {
                    break Arc::clone(b);
                }
                shared.parks.fetch_add(1, Ordering::Relaxed);
                dcer_obs::counter_add("pool.park", 1);
                if st.batches.is_empty() {
                    // Between phases: park silently.
                    st = shared.work_cv.wait(st).unwrap();
                } else {
                    // A batch is in flight but its tail is running on other
                    // lanes: this is scheduler idle time, attributed as
                    // such in the makespan decomposition.
                    let _park = dcer_obs::span("pool.park");
                    st = shared.work_cv.wait(st).unwrap();
                }
            }
        };
        while batch.run_one(lane) {}
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkPool").field("size", &self.size).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn results_are_in_task_order_at_every_size() {
        for size in [1, 2, 4, 8] {
            let pool = WorkPool::new(size);
            let tasks: Vec<_> = (0..50).map(|i| move || i * 3).collect();
            let out = pool.run(tasks, None);
            assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>(), "size {size}");
        }
    }

    #[test]
    fn borrows_from_the_caller_environment() {
        let data: Vec<u64> = (0..1000).collect();
        let pool = WorkPool::new(4);
        let tasks: Vec<_> = (0..8)
            .map(|k| {
                let data = &data;
                move || data.iter().skip(k).step_by(8).sum::<u64>()
            })
            .collect();
        let out = pool.run(tasks, None);
        assert_eq!(out.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn weighted_distribution_is_contiguous_and_total() {
        let lanes = distribute(10, Some(&[1, 1, 1, 1, 100, 1, 1, 1, 1, 1]), 3);
        let all: Vec<usize> = lanes.iter().flatten().copied().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>(), "contiguous, complete, in order");
        // The heavy task's lane should not also hold the whole tail.
        let heavy_lane = lanes.iter().position(|q| q.contains(&4)).unwrap();
        assert!(lanes[heavy_lane].len() < 10);
    }

    #[test]
    fn zero_total_weight_falls_back_to_even_split() {
        let lanes = distribute(8, Some(&[0; 8]), 4);
        assert!(lanes.iter().all(|q| q.len() == 2));
    }

    #[test]
    fn idle_workers_steal_from_a_skewed_lane() {
        // Two lanes, even split: the caller's lane leads with a 60ms
        // sleeper, so its queued tail can only finish early if the worker
        // steals it after draining its own (trivial) lane. The sleep gives
        // the worker a wide window, making the steal all but certain.
        let pool = WorkPool::new(2);
        let ran = AtomicU32::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..32)
            .map(|i| {
                let ran = &ran;
                let f: Box<dyn FnOnce() + Send> = if i == 0 {
                    Box::new(move || {
                        std::thread::sleep(Duration::from_millis(60));
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                } else {
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                };
                f
            })
            .collect();
        pool.run(tasks.into_iter().map(|f| move || f()).collect(), None);
        assert_eq!(ran.load(Ordering::Relaxed), 32);
        assert!(pool.stats().steals > 0, "expected steals, got {:?}", pool.stats());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkPool::new(3);
        for round in 0..20 {
            let out = pool.run((0..10).map(|i| move || i + round).collect(), None);
            assert_eq!(out, (0..10).map(|i| i + round).collect::<Vec<i32>>());
        }
        assert_eq!(pool.stats().tasks, 200);
    }

    #[test]
    fn task_panic_propagates_after_batch_completes() {
        let pool = WorkPool::new(4);
        let completed = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let completed = &completed;
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8)
                .map(|i| {
                    let f: Box<dyn FnOnce() -> u32 + Send> = if i == 3 {
                        Box::new(|| panic!("task 3 exploded"))
                    } else {
                        Box::new(move || {
                            completed.fetch_add(1, Ordering::Relaxed);
                            i
                        })
                    };
                    f
                })
                .collect();
            pool.run(tasks.into_iter().map(|f| move || f()).collect(), None)
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 7, "all other tasks still ran");
        // The pool survives the panic.
        assert_eq!(pool.run(vec![|| 1, || 2], None), vec![1, 2]);
    }

    #[test]
    fn nested_run_from_inside_a_task_completes() {
        let pool = Arc::new(WorkPool::new(3));
        let inner_pool = Arc::clone(&pool);
        let out = pool.run(
            vec![
                Box::new(move || inner_pool.run(vec![|| 10u64, || 20u64], None).iter().sum())
                    as Box<dyn FnOnce() -> u64 + Send>,
                Box::new(|| 5u64),
            ]
            .into_iter()
            .map(|f| move || f())
            .collect(),
            None,
        );
        assert_eq!(out, vec![30, 5]);
    }

    #[test]
    fn single_lane_pool_runs_inline_in_order() {
        let pool = WorkPool::new(1);
        let order = Mutex::new(Vec::new());
        let tasks: Vec<_> = (0..5)
            .map(|i| {
                let order = &order;
                move || order.lock().unwrap().push(i)
            })
            .collect();
        pool.run(tasks, None);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert!(pool.handles.is_empty(), "size-1 pool spawns no threads");
    }
}
