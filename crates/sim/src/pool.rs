//! Persistent worker pool: long-lived threads that execute launch
//! "epochs" instead of being spawned and joined per kernel launch.
//!
//! One set of workers stays parked on a condvar for the lifetime of the
//! [`Device`](crate::Device); a launch publishes an *epoch* — an indexed
//! set of work items behind an atomic claim counter — wakes the workers,
//! and waits for an exact completion count: a few condvar wakes per
//! launch instead of a spawn and a join per worker.
//!
//! An OS-mode launch that a pool would not speed up never gets here: at
//! most 64 read-only or 4 read-write warps, and every launch of a
//! one-worker device (each serve shard's), run on the thread that
//! launched them (`runs_on_launcher` in `device.rs`), which neither spawns
//! this pool nor takes its launch mutex. The hand-off costs two condvar
//! wakes, ≈ 40 µs, and buys such a launch no concurrency.
//!
//! The same pool serves both scheduling modes:
//! * OS mode, pooled launches: one item per worker slot; a slot claims warp
//!   ids off the launch's own counter and runs the kernel closure directly
//!   while the launching thread waits — the same claimer population as the
//!   old scoped-thread launch, so OS-mode contention interleavings keep
//!   their historical distribution.
//! * Deterministic mode: one item per *det worker slot* (at most the
//!   host-independent `DeviceConfig::det_workers()`, which never exceeds
//!   the pool size), each running an assignment loop against the
//!   token-passing [`DetScheduler`](crate::DetScheduler) while the
//!   launching thread drives the schedule. See `Device::launch_det`.
//!
//! # Safety protocol
//! An epoch stores a type-erased raw pointer to the caller's task closure.
//! The pointer is dereferenced only for claimed indices `idx < num_items`,
//! each index is claimed exactly once, and [`WorkerPool::run`] /
//! [`WorkerPool::run_with_driver`] do not return until the completion
//! count equals `num_items`. A worker that arrives after an epoch drained
//! observes `idx >= num_items` from the claim counter and never touches
//! the task, so the closure (and everything it borrows) is guaranteed to
//! outlive every dereference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One launch epoch: `num_items` indexed work items claimed by workers
/// through `next`, with `done` counting completed (or skipped) items.
struct Epoch {
    /// Type-erased item runner. See the module-level safety protocol.
    task: *const (dyn Fn(usize) + Sync),
    num_items: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    /// First panic that escaped the task itself (kernel panics are caught
    /// one level below by the launch; this guards pool integrity).
    failure: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the raw task pointer is only dereferenced under the claim
// protocol documented above; all other fields are Sync.
unsafe impl Send for Epoch {}
unsafe impl Sync for Epoch {}

struct State {
    /// Monotonic epoch sequence; workers compare against their last seen
    /// value to distinguish a fresh epoch from a spurious wakeup.
    seq: u64,
    epoch: Option<Arc<Epoch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between epochs.
    work: Condvar,
    /// The launching thread parks here until the epoch completes.
    complete: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A fixed set of long-lived worker threads executing launch epochs.
///
/// Epochs run one at a time: `State` holds a single current epoch, so the
/// pool serializes `run`/`run_with_driver` callers behind an internal
/// launch mutex. `Device::launch` takes `&self` and was safe to call from
/// several threads back when each launch built its own scoped-thread
/// substrate; without the mutex a second concurrent launch would overwrite
/// the published epoch and strand the first launcher waiting on a
/// completion count that can no longer be reached.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes epoch publication (see type-level doc). Held across the
    /// whole epoch, driver included.
    launch: Mutex<()>,
}

impl WorkerPool {
    /// Creates a pool of `workers` parked threads (at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                seq: 0,
                epoch: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            complete: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("eirene-sm-worker".into())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            launch: Mutex::new(()),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `task(idx)` for every `idx in 0..num_items` across the pool.
    /// Only pool workers claim items of a pooled launch — the calling
    /// thread just waits, as with the old per-launch `thread::scope`
    /// substrate. (Having the caller claim too would add a claimer the old
    /// code never had; on few-core hosts it then races ahead of the parked
    /// workers and runs most warps back-to-back, visibly deflating
    /// cross-warp contention that conflict-sensitive counters depend on.
    /// That door stays closed: the launching thread runs a launch whole, if
    /// it is small enough, or none of it.) Blocks until every item has
    /// completed.
    pub fn run(&self, num_items: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_inner(num_items, task, || {});
    }

    /// Publishes the epoch, runs `driver` on the calling thread (e.g. the
    /// deterministic-schedule coordinator), then blocks until every item
    /// has completed. The caller does **not** claim items.
    pub fn run_with_driver(
        &self,
        num_items: usize,
        task: &(dyn Fn(usize) + Sync),
        driver: impl FnOnce(),
    ) {
        self.run_inner(num_items, task, driver);
    }

    fn run_inner(&self, num_items: usize, task: &(dyn Fn(usize) + Sync), driver: impl FnOnce()) {
        if num_items == 0 {
            driver();
            return;
        }
        // One epoch at a time (see the type-level doc); a poisoned guard
        // only means a previous launcher re-raised a kernel panic.
        let _serial = self.launch.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: lifetime erasure only — the claim protocol (documented at
        // module level) guarantees no dereference happens after this
        // function returns, because we wait for `done == num_items` below.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let epoch = Arc::new(Epoch {
            task: task as *const _,
            num_items,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            failure: Mutex::new(None),
        });
        {
            let mut st = self.shared.lock();
            st.seq += 1;
            st.epoch = Some(Arc::clone(&epoch));
        }
        // Wake only as many workers as there are items to claim; surplus
        // wakeups would find the claim counter drained and re-park.
        let wanted = num_items.min(self.handles.len());
        if wanted >= self.handles.len() {
            self.shared.work.notify_all();
        } else {
            for _ in 0..wanted {
                self.shared.work.notify_one();
            }
        }
        driver();
        let mut st = self.shared.lock();
        while epoch.done.load(Ordering::Acquire) < num_items {
            st = self
                .shared
                .complete
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.epoch = None;
        drop(st);
        let payload = epoch
            .failure
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let epoch = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != seen {
                    seen = st.seq;
                    if let Some(e) = &st.epoch {
                        break Arc::clone(e);
                    }
                    // Epoch already drained and cleared; keep waiting.
                    continue;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_items(&epoch, shared);
    }
}

/// Claims and runs items until the epoch is drained. Items always count as
/// done — even if the task panics — so the launcher's completion wait
/// terminates; the first escaped panic is re-raised by the launcher.
fn run_items(epoch: &Epoch, shared: &Shared) {
    loop {
        let idx = epoch.next.fetch_add(1, Ordering::Relaxed);
        if idx >= epoch.num_items {
            return;
        }
        // SAFETY: idx < num_items is claimed exactly once, and the
        // launcher keeps the closure alive until `done == num_items`.
        let task = unsafe { &*epoch.task };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(idx))) {
            let mut f = epoch.failure.lock().unwrap_or_else(|e| e.into_inner());
            if f.is_none() {
                *f = Some(payload);
            }
        }
        if epoch.done.fetch_add(1, Ordering::AcqRel) + 1 == epoch.num_items {
            // Lock before notifying so the launcher cannot miss the wake
            // between its count check and its wait.
            let _st = shared.lock();
            shared.complete.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_item_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn epochs_are_isolated_back_to_back() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let sum = AtomicU64::new(0);
            pool.run(16, &|i| {
                sum.fetch_add(round * 100 + i as u64, Ordering::Relaxed);
            });
            let expect = (0..16).map(|i| round * 100 + i).sum::<u64>();
            assert_eq!(sum.load(Ordering::Relaxed), expect, "round {round}");
        }
    }

    #[test]
    fn empty_epoch_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("no items to run"));
    }

    #[test]
    fn driver_runs_on_calling_thread() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let drove = AtomicU64::new(0);
        let ran = AtomicU64::new(0);
        pool.run_with_driver(
            8,
            &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
            || {
                assert_eq!(std::thread::current().id(), caller);
                drove.store(1, Ordering::Relaxed);
            },
        );
        assert_eq!(drove.load(Ordering::Relaxed), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_epochs_from_multiple_threads_are_serialized() {
        // Regression for a lost-epoch deadlock: two launchers racing on one
        // pool used to overwrite each other's published epoch, leaving the
        // first waiting forever on a completion count the workers had
        // abandoned. The launch mutex serializes them; every item of every
        // epoch must run exactly once.
        let pool = WorkerPool::new(4);
        let counts: Vec<Vec<AtomicU64>> = (0..4)
            .map(|_| (0..64).map(|_| AtomicU64::new(0)).collect())
            .collect();
        std::thread::scope(|s| {
            for counts in &counts {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..20 {
                        pool.run(counts.len(), &|i| {
                            counts[i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        for (l, counts) in counts.iter().enumerate() {
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 20, "launcher {l} item {i}");
            }
        }
    }

    #[test]
    fn task_panic_is_reraised_after_epoch_completes() {
        let pool = WorkerPool::new(2);
        let ran = AtomicU64::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("pool item fault");
                }
            });
        }))
        .expect_err("panic must propagate to the launcher");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("pool item fault"), "{msg}");
        // The pool survives the panic and runs the next epoch.
        pool.run(4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 12);
    }
}
