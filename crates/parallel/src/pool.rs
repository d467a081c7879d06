//! Worker pool for chunk-level parallelism.
//!
//! [`WorkerPool::run`] executes `jobs` indexed closures on a fixed
//! number of scoped threads and returns the results **in job-index
//! order**, whatever order the workers finished in. Scheduling is
//! work-stealing-by-counter: workers race on an atomic cursor, so a
//! slow chunk never stalls the rest of the queue behind it. Every entry
//! point runs on one scheduler, [`WorkerPool::run_parts_on`], which
//! also takes per-thread states a caller keeps across calls.
//!
//! Two properties matter for deterministic archives:
//!
//! * results are reassembled by index, so the merge order is the plan
//!   order, not the completion order;
//! * every job body runs with nested parallel primitives forced serial
//!   ([`crate::with_serial_inner`]) — including on a single-worker pool —
//!   so a chunk's bytes are produced by the identical code path no
//!   matter how many pool workers exist. Parallelism comes from chunks,
//!   not from kernels-within-chunks.

use crate::num_workers;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width pool executing indexed jobs on scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Pool with exactly `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Pool sized by the global worker policy ([`crate::num_workers`]),
    /// degraded to one worker inside another pool's job.
    pub fn with_default_workers() -> Self {
        if crate::inner_parallelism_disabled() {
            Self::new(1)
        } else {
            Self::new(num_workers())
        }
    }

    /// Number of threads this pool uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0), f(1), …, f(jobs - 1)` across the pool and returns the
    /// results indexed by job. Panics in a job propagate to the caller.
    pub fn run<R, F>(&self, jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_with_state(jobs, || (), |i, ()| f(i))
    }

    /// Like [`Self::run`], but every worker thread owns one reusable state
    /// value built by `init`, passed `&mut` to each job it steals. This is
    /// the pool's scratch-arena hook: a worker compressing many chunks
    /// constructs its pipeline engine once and reuses its buffers across
    /// chunks instead of reallocating per chunk.
    ///
    /// `init` runs once per worker thread (once total on the serial path),
    /// and state never migrates between threads — job results must not
    /// depend on which worker ran them, only on the job index.
    pub fn run_with_state<S, R, I, F>(&self, jobs: usize, init: I, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        self.run_parts_with_state(vec![(); jobs], init, |i, (), s| f(i, s))
    }

    /// Like [`Self::run`], but each job takes ownership of its item —
    /// this is how chunked decompression hands every worker the mutable
    /// output slab it writes into. Results come back in item order.
    pub fn run_parts<T, R, F>(&self, parts: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_parts_with_state(parts, || (), |i, p, ()| f(i, p))
    }

    /// [`Self::run_parts`] with the per-worker reusable state of
    /// [`Self::run_with_state`]: each job receives its owned item plus
    /// `&mut` access to the worker's state. The states are fresh, one
    /// per thread the jobs can use, and run on [`Self::run_parts_on`].
    pub fn run_parts_with_state<T, S, R, I, F>(&self, parts: Vec<T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, T, &mut S) -> R + Sync,
    {
        if parts.is_empty() {
            return Vec::new();
        }
        let mut states: Vec<S> = (0..self.workers.min(parts.len())).map(|_| init()).collect();
        Self::run_parts_on(&mut states, parts, f)
    }

    /// The scheduler every pool entry point runs on: the jobs fan out
    /// over **caller-owned states**, one thread per state, and each job
    /// receives its owned item plus `&mut` access to the state of the
    /// thread that took it. The first state works on the calling thread;
    /// every other one gets a scoped thread, so `states.len()` bounds the
    /// threads in use, and a state is only ever used by one thread at a
    /// time. States outlive the call, which is how a long-lived service
    /// lends the engines it keeps to one request.
    ///
    /// With one state (or one job) every job runs here, in order. Each
    /// job runs under [`crate::with_serial_inner`] at any width, and
    /// results come back in item order. A panicking job panics the
    /// caller after every thread has stopped.
    ///
    /// # Panics
    /// When there are jobs but no state to run them on.
    pub fn run_parts_on<T, S, R, F>(states: &mut [S], parts: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        S: Send,
        R: Send,
        F: Fn(usize, T, &mut S) -> R + Sync,
    {
        let jobs = parts.len();
        if jobs == 0 {
            return Vec::new();
        }
        let threads = states.len().min(jobs);
        assert!(threads > 0, "jobs need at least one state to run on");
        if threads == 1 {
            let state = &mut states[0];
            return parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| crate::with_serial_inner(|| f(i, p, state)))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        // Items are parked in per-index cells so stealing workers can take
        // ownership without holding one lock across all of them.
        let cells: Vec<Mutex<Option<T>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let drain = |state: &mut S| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    return local;
                }
                let part = cells[i]
                    .lock()
                    .expect("part cell poisoned")
                    .take()
                    .expect("each part taken exactly once");
                local.push((i, crate::with_serial_inner(|| f(i, part, state))));
            }
        };
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(jobs, || None);
        std::thread::scope(|s| {
            let (mine, theirs) = states[..threads]
                .split_first_mut()
                .expect("at least two states");
            let drain = &drain;
            let handles: Vec<_> = theirs
                .iter_mut()
                .map(|state| s.spawn(move || drain(state)))
                .collect();
            let mut done = drain(mine);
            for h in handles {
                done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            for (i, r) in done {
                slots[i] = Some(r);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every job index executed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.run(23, |i| i * i);
            let expect: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn order_holds_under_skewed_job_durations() {
        // Early jobs sleep longest; completion order is roughly reversed
        // from submission order, yet results must stay index-ordered.
        let pool = WorkerPool::new(4);
        let out = pool.run(12, |i| {
            std::thread::sleep(std::time::Duration::from_millis(((12 - i) % 5) as u64));
            i as u64 + 100
        });
        let expect: Vec<u64> = (0..12).map(|i| i + 100).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_jobs_is_empty() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.run(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_run_with_inner_parallelism_disabled() {
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let flags = pool.run(6, |_| crate::inner_parallelism_disabled());
            assert!(flags.iter().all(|&x| x), "workers = {workers}");
        }
        // Outside a pool job the flag is clear again.
        assert!(!crate::inner_parallelism_disabled());
    }

    #[test]
    fn run_parts_moves_items_and_keeps_order() {
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let parts: Vec<Vec<u32>> = (0..9).map(|i| vec![i; i as usize + 1]).collect();
            let out = pool.run_parts(parts, |i, p| {
                assert_eq!(p.len(), i + 1);
                p.into_iter().map(|x| x as u64).sum::<u64>()
            });
            let expect: Vec<u64> = (0..9u64).map(|i| i * (i + 1)).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn run_parts_hands_out_disjoint_mut_slices() {
        let mut buf = [0u8; 100];
        let parts: Vec<&mut [u8]> = buf.chunks_mut(7).collect();
        let pool = WorkerPool::new(4);
        pool.run_parts(parts, |i, slab| {
            for x in slab.iter_mut() {
                *x = i as u8 + 1;
            }
        });
        for (j, &x) in buf.iter().enumerate() {
            assert_eq!(x as usize, j / 7 + 1);
        }
    }

    #[test]
    fn pool_width_is_clamped_and_reported() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert_eq!(WorkerPool::new(5).workers(), 5);
        assert!(WorkerPool::with_default_workers().workers() >= 1);
    }

    #[test]
    fn lanes_return_results_in_item_order_at_any_width() {
        for lanes in [1usize, 2, 5, 40] {
            let mut states = vec![0usize; lanes];
            let parts: Vec<u64> = (0..17).collect();
            let out = WorkerPool::run_parts_on(&mut states, parts, |i, p, jobs| {
                *jobs += 1;
                (i as u64, p * p)
            });
            let expect: Vec<(u64, u64)> = (0..17).map(|i| (i, i * i)).collect();
            assert_eq!(out, expect, "lanes = {lanes}");
            // Every job ran on exactly one lane, and the states outlive
            // the call with what the jobs left in them.
            assert_eq!(states.iter().sum::<usize>(), 17, "lanes = {lanes}");
        }
        let mut none: Vec<u8> = Vec::new();
        let out: Vec<u8> = WorkerPool::run_parts_on(&mut none, Vec::<u8>::new(), |_, p, _| p);
        assert!(out.is_empty());
    }

    #[test]
    fn a_lane_state_is_used_by_one_thread_at_a_time() {
        use std::sync::atomic::AtomicBool;
        use std::thread::ThreadId;
        struct Lane {
            busy: AtomicBool,
            thread: Option<ThreadId>,
        }
        let mut states: Vec<Lane> = (0..3)
            .map(|_| Lane {
                busy: AtomicBool::new(false),
                thread: None,
            })
            .collect();
        let caller = std::thread::current().id();
        let ran_here = WorkerPool::run_parts_on(&mut states, vec![(); 30], |_, (), lane| {
            assert!(!lane.busy.swap(true, Ordering::SeqCst), "state shared");
            let me = std::thread::current().id();
            assert_eq!(*lane.thread.get_or_insert(me), me, "state migrated");
            assert!(crate::inner_parallelism_disabled());
            std::thread::sleep(std::time::Duration::from_millis(1));
            lane.busy.store(false, Ordering::SeqCst);
            me == caller
        });
        // The first lane works on the calling thread.
        assert!(ran_here.iter().any(|&here| here));
        assert_eq!(states[0].thread, Some(caller));
        assert!(!crate::inner_parallelism_disabled());
    }

    #[test]
    fn a_panicking_job_on_a_lane_panics_the_caller() {
        for lanes in [1usize, 3] {
            let mut states = vec![(); lanes];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                WorkerPool::run_parts_on(&mut states, (0..9).collect(), |i, p: usize, ()| {
                    assert_ne!(i, 7, "job 7 fails");
                    p
                })
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("job 7 fails"), "lanes = {lanes}: {msg:?}");
        }
    }
}
