//! A small work-stealing pool for the parallel verification paths.
//!
//! The parallelizable workloads in this workspace — executing fault
//! plans in a sweep ([`crate::sweep_plans_on`]) or a hunt
//! ([`crate::hunt_plans_on`]: its mutant batches, and its shrink rounds,
//! which probe one reduction of every unfinished class at once), the
//! sweep's annotation passes and its per-goal validity sweeps,
//! prewarming a serve session's evaluation cache, and proving
//! independent goals (`atl-core`'s `sweep`,
//! `semantics`, and `prover::BatchProver`, which reach this module
//! through the `atl_core::parallel` re-export) — all have the same shape:
//! a fixed slice of independent items, each mapped through a pure-ish
//! function, with results needed **in input order** so the parallel path
//! is bit-identical to the sequential one. Filtering one `G^j` stage's
//! runs and sweeping one formula's points stay on one thread: sharded
//! run by run, each worker needed its own evaluator and cache copy, and
//! that lost 3–5× to the sequential path on two real cores. [`Pool::map`] provides
//! exactly that: indices are dealt into per-worker deques, idle workers
//! steal from the *back* of busy workers' deques (classic work
//! stealing, so an item that turns out expensive does not serialize the
//! rest), and every result is placed back into its item's slot — a
//! deterministic ordered merge, independent of scheduling.
//!
//! The pool is built on [`std::thread::scope`], not a persistent
//! `'static` pool: scoped workers may borrow the caller's data (the
//! `&System`, the frozen interner) without `Arc`-wrapping the world and
//! without `unsafe` (this crate forbids it). Spawn cost is a few tens of
//! microseconds per `map`, which the callers amortize by parallelizing
//! only coarse units (whole executions, whole goals, whole proof
//! obligations, whole suite entries).
//!
//! A pool with `jobs == 1` (see [`Pool::sequential`]) never spawns: it
//! runs the items inline, in order, on the calling thread. That path is
//! the *reference semantics* — `tests/e15_parallel.rs` asserts the
//! multi-worker paths agree with it exactly.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// A handle describing how much parallelism to use.
///
/// `Pool` is cheap to create and copy around; the worker threads
/// themselves are scoped to each [`map`](Pool::map) call.
///
/// ```
/// use atl_model::parallel::Pool;
/// let pool = Pool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]); // always input order
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// A pool using `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Pool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The single-worker pool: runs everything inline on the calling
    /// thread, in input order. This is the reference path the parallel
    /// paths must match.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// How many workers a `map` call may use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// `f` receives each item's index alongside the item, so callers can
    /// recover positional context without threading it through the item
    /// type.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(items, || (), |(), i, t| f(i, t))
    }

    /// As [`map`](Pool::map), with per-worker scratch state: each worker
    /// calls `init` once and threads the state through every item it
    /// processes. The state never crosses threads (it is created and
    /// dropped on the worker), so it need not be `Send` — per-worker
    /// `Rc`-based caches are fine.
    pub fn map_init<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let jobs = self.jobs.min(items.len().max(1));
        if jobs == 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        let deques = deal(jobs, items.len());
        let worker_results: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let deques = &deques;
            let init = &init;
            let f = &f;
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    scope.spawn(move || {
                        // State is created, used, and dropped on this
                        // worker thread — it never needs `Send`.
                        let mut state = init();
                        let mut out = Vec::new();
                        while let Some(i) = next_item(deques, w) {
                            out.push((i, f(&mut state, i, &items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(join_worker).collect()
        });
        merge_ordered(items.len(), worker_results.into_iter())
    }

    /// As [`map_init`](Pool::map_init), additionally returning each
    /// worker's final state (here `S: Send`, since the states are handed
    /// back to the caller at join). The states come back in worker
    /// order, but which items a worker processed depends on scheduling —
    /// so callers must only rely on the *union* of the states (e.g.
    /// merged memo caches), never their partition.
    pub fn map_init_collect<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> (Vec<R>, Vec<S>)
    where
        T: Sync,
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let jobs = self.jobs.min(items.len().max(1));
        if jobs == 1 {
            let mut state = init();
            let out = items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
            return (out, vec![state]);
        }
        let deques = deal(jobs, items.len());
        let worker_results: Vec<(Vec<(usize, R)>, S)> = std::thread::scope(|scope| {
            let deques = &deques;
            let init = &init;
            let f = &f;
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    scope.spawn(move || {
                        let mut state = init();
                        let mut out = Vec::new();
                        while let Some(i) = next_item(deques, w) {
                            out.push((i, f(&mut state, i, &items[i])));
                        }
                        (out, state)
                    })
                })
                .collect();
            handles.into_iter().map(join_worker).collect()
        });
        let mut states = Vec::with_capacity(jobs);
        let mut results = Vec::with_capacity(jobs);
        for (rs, s) in worker_results {
            results.push(rs);
            states.push(s);
        }
        (merge_ordered(items.len(), results.into_iter()), states)
    }

    /// Runs a batch of heterogeneous jobs concurrently, returning their
    /// results in input order. Unlike [`map`](Pool::map), each job is an
    /// independent closure — this is the entry point for batch proving
    /// and suite sharding, where the work items are not a uniform slice.
    pub fn run<R, J>(&self, tasks: Vec<J>) -> Vec<R>
    where
        R: Send,
        J: FnOnce() -> R + Send,
    {
        let slots: Vec<Mutex<Option<J>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map(&slots, |_, slot| {
            let task = lock(slot).take().expect("each job slot is taken once");
            task()
        })
    }
}

/// Deals item indices into `jobs` contiguous blocks, one deque each.
/// Contiguous blocks keep the common case (similar-cost items) touching
/// memory in order; stealing rebalances the uncommon case.
fn deal(jobs: usize, n: usize) -> Vec<Mutex<VecDeque<usize>>> {
    (0..jobs)
        .map(|w| Mutex::new((w * n / jobs..(w + 1) * n / jobs).collect()))
        .collect()
}

/// Pops the next item for worker `w`: the front of its own deque, else a
/// steal from the back of the closest busy neighbor. `None` once every
/// deque is empty — all work is dealt up front, so no re-check is needed.
fn next_item(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = lock(&deques[w]).pop_front() {
        return Some(i);
    }
    let jobs = deques.len();
    (1..jobs).find_map(|d| lock(&deques[(w + d) % jobs]).pop_back())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned deque only means another worker panicked mid-pop; the
    // deque itself is still a valid queue, and the panic will propagate
    // at join anyway.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Places `(index, result)` pairs into their slots: the merge is ordered
/// by item index, so output is independent of which worker did what.
fn merge_ordered<R>(n: usize, per_worker: impl Iterator<Item = Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for rs in per_worker {
        for (i, r) in rs {
            debug_assert!(slots[i].is_none(), "each item processed exactly once");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 4, 8, 200] {
            let got = Pool::new(jobs).map(&items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let got = Pool::new(2).map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let n = 300;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        Pool::new(4).map(&items, |_, &i| counts[i].fetch_add(1, Ordering::SeqCst));
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn stealing_rebalances_lopsided_work() {
        // One expensive item at the front of worker 0's block must not
        // serialize the rest: the others get stolen and the totals match.
        let items: Vec<u64> = (0..64).collect();
        let got = Pool::new(4).map(&items, |i, &x| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(got, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn map_init_threads_worker_local_state() {
        // A non-Send state type (Rc) is fine in map_init.
        use std::rc::Rc;
        let items: Vec<u32> = (0..40).collect();
        let got = Pool::new(3).map_init(
            &items,
            || Rc::new(std::cell::Cell::new(0u32)),
            |seen, _, &x| {
                seen.set(seen.get() + 1);
                x * 2
            },
        );
        assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_collect_returns_all_worker_states() {
        let items: Vec<u32> = (0..50).collect();
        let (got, states) =
            Pool::new(4).map_init_collect(&items, Vec::new, |acc: &mut Vec<u32>, _, &x| {
                acc.push(x);
                x
            });
        assert_eq!(got, items);
        // The union of the worker states is the full item set, whatever
        // the partition was.
        let mut union: Vec<u32> = states.into_iter().flatten().collect();
        union.sort_unstable();
        assert_eq!(union, items);
    }

    #[test]
    fn run_executes_heterogeneous_jobs_in_order() {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "alpha".to_string()),
            Box::new(|| format!("{}", 6 * 7)),
            Box::new(|| "omega".to_string()),
        ];
        let got = Pool::new(2).run(jobs);
        assert_eq!(got, vec!["alpha", "42", "omega"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: [u8; 0] = [];
        assert!(Pool::new(4).map(&empty, |_, &x| x).is_empty());
        assert!(Pool::auto()
            .run(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new())
            .is_empty());
    }

    #[test]
    fn sequential_pool_runs_inline() {
        // With jobs == 1 the closure runs on the calling thread, so a
        // thread-local is visible across items.
        thread_local! {
            static MARK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        MARK.with(|m| m.set(7));
        let got = Pool::sequential().map(&[(), ()], |_, ()| MARK.with(|m| m.get()));
        assert_eq!(got, vec![7, 7]);
        assert_eq!(Pool::sequential().jobs(), 1);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert!(Pool::auto().jobs() >= 1);
    }

    #[test]
    fn worker_panic_propagates_at_join() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).map(&[1, 2, 3, 4], |_, &x| {
                assert!(x != 3, "boom");
                x
            })
        });
        assert!(result.is_err(), "the item panic must reach the caller");
    }
}
