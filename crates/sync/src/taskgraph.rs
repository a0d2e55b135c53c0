//! A lightweight dependency-counting task executor.
//!
//! The paper's lower stage uses OpenMP tasks and measures their overhead
//! as the limiting factor on KNL ("a specialized light weight tasking
//! library is currently being constructed in Javelin for this reason").
//! This module is that library: a task DAG with atomic indegree
//! counters, a shared ready stack, and spin/yield workers — no futures.
//! A graph is a *plan*: the counters and the ready stack are allocated
//! with it and reset at the start of every [`TaskGraph::execute`], which
//! runs as one region on a persistent team — so executing allocates
//! nothing and spawns nothing.

use crate::backoff::Backoff;
use crate::exec::Exec;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A task DAG with its resettable execution state. Tasks are `0..n`;
/// edges point from a task to the tasks that depend on it.
#[derive(Debug)]
pub struct TaskGraph {
    n: usize,
    succ_ptr: Vec<usize>,
    succ: Vec<usize>,
    indegree: Vec<usize>,
    /// Unfinished dependencies per task; reloaded from `indegree`.
    remaining_deps: Vec<AtomicUsize>,
    /// Runnable tasks. Capacity `n`, and every task is pushed at most
    /// once per execution, so a push never reallocates.
    ready: Mutex<Vec<usize>>,
    /// Tasks not yet retired.
    remaining: AtomicUsize,
    /// Tasks claimed and not yet retired.
    in_flight: AtomicUsize,
    /// Serializes executions: the state above is per graph.
    running: Mutex<()>,
}

impl TaskGraph {
    /// Builds a DAG from dependency pairs `(before, after)`.
    ///
    /// # Panics
    /// When an index is out of range or a self-dependency is given.
    /// Cycles are not detected here; [`TaskGraph::execute`] will panic on
    /// a cycle (tasks remain but none are ready).
    pub fn new(n: usize, deps: &[(usize, usize)]) -> Self {
        let mut succ_ptr = vec![0usize; n + 1];
        let mut indegree = vec![0usize; n];
        for &(before, after) in deps {
            assert!(before < n && after < n, "dependency out of range");
            assert_ne!(before, after, "self-dependency");
            succ_ptr[before + 1] += 1;
            indegree[after] += 1;
        }
        for i in 0..n {
            succ_ptr[i + 1] += succ_ptr[i];
        }
        let mut succ = vec![0usize; deps.len()];
        let mut next = succ_ptr.clone();
        for &(before, after) in deps {
            succ[next[before]] = after;
            next[before] += 1;
        }
        TaskGraph {
            n,
            succ_ptr,
            succ,
            indegree,
            remaining_deps: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            ready: Mutex::new(Vec::with_capacity(n)),
            remaining: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            running: Mutex::new(()),
        }
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n
    }

    /// Number of dependency edges.
    pub fn n_edges(&self) -> usize {
        self.succ.len()
    }

    /// Successors of a task.
    pub fn successors(&self, t: usize) -> &[usize] {
        &self.succ[self.succ_ptr[t]..self.succ_ptr[t + 1]]
    }

    /// Executes the DAG as one region on `exec`, calling
    /// `run(tid, task)` for every task exactly once, respecting all
    /// dependencies. Which participant runs which task is decided at
    /// run time (workers pop the shared ready stack). Concurrent calls
    /// on one graph queue behind each other.
    ///
    /// # Panics
    /// When the graph contains a cycle (no runnable task while tasks
    /// remain), and when `run` panics — the team then repairs itself at
    /// its next region, and the next `execute` starts from reset state.
    pub fn execute<F>(&self, exec: &Exec, run: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let _running = self.running.lock();
        let (ready, remaining, in_flight) = (&self.ready, &self.remaining, &self.in_flight);
        for (left, &d) in self.remaining_deps.iter().zip(&self.indegree) {
            left.store(d, Ordering::Relaxed);
        }
        remaining.store(self.n, Ordering::Relaxed);
        in_flight.store(0, Ordering::Relaxed);
        {
            let mut q = ready.lock();
            q.clear();
            q.extend((0..self.n).filter(|&t| self.indegree[t] == 0));
            assert!(
                self.n == 0 || !q.is_empty(),
                "task graph has no source task: cycle detected"
            );
        }
        // The region fork publishes the reset state to every worker.
        exec.run(|tid| {
            let mut backoff = Backoff::new();
            loop {
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                let task = {
                    let mut q = ready.lock();
                    let t = q.pop();
                    if t.is_some() {
                        // Claim inside the lock so "empty queue +
                        // nothing in flight" reliably means deadlock.
                        in_flight.fetch_add(1, Ordering::AcqRel);
                    }
                    t
                };
                match task {
                    Some(t) => {
                        backoff.reset();
                        run(tid, t);
                        for &s in self.successors(t) {
                            if self.remaining_deps[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                                ready.lock().push(s);
                            }
                        }
                        // Retire order matters for the deadlock check
                        // below: `remaining` first, `in_flight` last, so
                        // that observing `in_flight == 0` implies every
                        // retired task's successor pushes and `remaining`
                        // decrement are already visible.
                        let left = remaining.fetch_sub(1, Ordering::AcqRel) - 1;
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                        if left == 0 {
                            break;
                        }
                    }
                    None => {
                        {
                            // Evaluate the deadlock predicate under the
                            // ready lock: claiming bumps `in_flight`
                            // inside this same lock, and retiring
                            // decrements it only after its successor
                            // pushes (which need the lock) and the
                            // `remaining` decrement. So "empty queue,
                            // nothing in flight, tasks remaining" — all
                            // observed in one critical section — is a
                            // genuine cycle, not a transient of another
                            // worker mid-claim or mid-retire. Reading the
                            // three at different times without the lock
                            // used to fire this assert spuriously.
                            let q = ready.lock();
                            assert!(
                                !q.is_empty()
                                    || in_flight.load(Ordering::Acquire) > 0
                                    || remaining.load(Ordering::Acquire) == 0,
                                "task graph deadlocked: cycle detected"
                            );
                        }
                        // A task that panicked never retires: unwind
                        // instead of spinning on it forever.
                        crate::abort::check();
                        backoff.snooze();
                    }
                }
            }
        });
        assert_eq!(
            remaining.load(Ordering::Acquire),
            0,
            "task graph deadlocked: cycle detected"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run_and_record(g: &TaskGraph, exec: &Exec) -> Vec<usize> {
        let order = PMutex::new(Vec::new());
        g.execute(exec, |_tid, t| order.lock().push(t));
        order.into_inner()
    }

    fn assert_topological(g: &TaskGraph, order: &[usize], deps: &[(usize, usize)]) {
        assert_eq!(order.len(), g.n_tasks());
        let mut pos = vec![usize::MAX; g.n_tasks()];
        for (i, &t) in order.iter().enumerate() {
            assert_eq!(pos[t], usize::MAX, "task {t} ran twice");
            pos[t] = i;
        }
        for &(b, a) in deps {
            assert!(pos[b] < pos[a], "dep ({b} -> {a}) violated: {order:?}");
        }
    }

    #[test]
    fn diamond_runs_in_order() {
        let deps = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = TaskGraph::new(4, &deps);
        for nthreads in 1..=4 {
            let order = run_and_record(&g, &Exec::team(nthreads));
            assert_topological(&g, &order, &deps);
        }
    }

    #[test]
    fn chain_is_serialized() {
        let deps: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = TaskGraph::new(10, &deps);
        let order = run_and_record(&g, &Exec::team(4));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_all_run() {
        let g = TaskGraph::new(20, &[]);
        let order = run_and_record(&g, &Exec::team(3));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new(0, &[]);
        g.execute(&Exec::team(2), |_, _| panic!("no tasks to run"));
    }

    #[test]
    fn more_threads_than_tasks() {
        let g = TaskGraph::new(2, &[(0, 1)]);
        let order = run_and_record(&g, &Exec::team(8));
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn sourceless_cycle_panics_before_the_region() {
        let g = TaskGraph::new(2, &[(0, 1), (1, 0)]);
        g.execute(&Exec::team(2), |_, _| {});
    }

    #[test]
    fn cycle_panics_and_the_same_team_runs_the_next_graph() {
        // Task 0 is a source, tasks 1 and 2 wait on each other: the
        // cycle is only found inside the region, by whichever
        // participant idles first.
        let cyclic = TaskGraph::new(3, &[(0, 1), (1, 2), (2, 1)]);
        let exec = Exec::team(3);
        let ran = PMutex::new(Vec::new());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            cyclic.execute(&exec, |_tid, t| ran.lock().push(t));
        }));
        assert!(caught.is_err(), "a cycle must panic, not hang");
        assert_eq!(*ran.lock(), vec![0], "only the source may run");
        // The team repairs itself at its next region.
        let deps = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = TaskGraph::new(4, &deps);
        assert_topological(&g, &run_and_record(&g, &exec), &deps);
    }

    #[test]
    fn a_graph_is_reusable_even_after_a_task_panicked() {
        // The execution state lives in the graph: every run must start
        // from reset counters, whatever the previous run left behind.
        let deps = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = TaskGraph::new(4, &deps);
        let exec = Exec::team(2);
        for _ in 0..3 {
            assert_topological(&g, &run_and_record(&g, &exec), &deps);
        }
        let caught = catch_unwind(AssertUnwindSafe(|| {
            g.execute(&exec, |_tid, t| assert_ne!(t, 1, "boom"));
        }));
        assert!(caught.is_err());
        assert_topological(&g, &run_and_record(&g, &exec), &deps);
    }

    #[test]
    fn layered_random_dag_stress() {
        // 6 layers × 8 tasks; each task depends on 2 tasks of the
        // previous layer.
        let layers = 6usize;
        let width = 8usize;
        let mut deps = Vec::new();
        for l in 1..layers {
            for k in 0..width {
                let t = l * width + k;
                deps.push(((l - 1) * width + k, t));
                deps.push(((l - 1) * width + (k + 3) % width, t));
            }
        }
        let g = TaskGraph::new(layers * width, &deps);
        for nthreads in [1, 2, 4] {
            let order = run_and_record(&g, &Exec::team(nthreads));
            assert_topological(&g, &order, &deps);
        }
    }

    #[test]
    fn idle_workers_never_false_deadlock_on_narrow_graphs() {
        // Regression: the deadlock assert used to read `in_flight`, the
        // ready queue and `remaining` at three different moments with no
        // lock held, so an idle worker racing the claim of the last
        // ready task could observe "empty + idle + tasks left" on an
        // acyclic graph and panic. A chain keeps exactly one task
        // runnable at a time, maximizing idle workers racing each
        // handoff.
        let deps: Vec<(usize, usize)> = (0..31).map(|i| (i, i + 1)).collect();
        let g = TaskGraph::new(32, &deps);
        let exec = Exec::team(4);
        for _ in 0..100 {
            let order = run_and_record(&g, &exec);
            assert_eq!(order, (0..32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn successors_accessor() {
        let g = TaskGraph::new(3, &[(0, 1), (0, 2)]);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.successors(1), &[] as &[usize]);
        assert_eq!(g.n_edges(), 2);
    }
}
