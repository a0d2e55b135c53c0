//! Sparsified point-to-point schedules (paper §III-A, Fig. 4).
//!
//! Traditional level scheduling separates levels with barriers; Javelin
//! instead maps rows to threads *statically* (each thread takes one
//! contiguous block of every level), which induces an implied execution
//! order per thread, and then
//! **prunes** the dependency set: a dependency on a row owned by the
//! same thread is satisfied by program order, and among dependencies on
//! rows owned by a foreign thread only the latest (largest sequence
//! position) must be waited for. What remains is at most one
//! `(thread, position)` wait per foreign thread per task, implemented at
//! runtime with cache-padded monotone progress counters and spin-waits
//! — the paper's "inexpensive spinlocks [that allow] certain threads to
//! speed ahead of others".
//!
//! Contiguous blocks are what let the runtime publish progress once per
//! block instead of once per row (`javelin_sync::ProgressCounters::walk`):
//! a thread's tasks within a level are consecutive execution indices,
//! and where a thread's blocks of consecutive levels touch (width-1
//! levels, say) they merge into one. [`P2PSchedule::has_level_blocks`]
//! checks that invariant independently of how it was built.
//!
//! The same machinery schedules the up-looking factorization (this was
//! the paper's observation: up-looking ILU has exactly the dependency
//! structure of a sparse lower-triangular solve) and both triangular
//! solves.

/// A point-to-point schedule over `m` tasks for `nthreads` threads.
///
/// Tasks are identified by their *execution index* `0..m` — the caller
/// arranges that execution indices are topologically sorted and grouped
/// into levels (`level_ptr`). For a forward sweep over a level-permuted
/// matrix the execution index is simply the (new) row index; for a
/// backward sweep the caller maps row `r` to index `m-1-r`.
#[derive(Debug, Clone)]
pub struct P2PSchedule {
    nthreads: usize,
    /// Concatenated per-thread task lists; thread `t` executes
    /// `tasks[thread_ptr[t]..thread_ptr[t+1]]` in order.
    thread_ptr: Vec<usize>,
    tasks: Vec<usize>,
    /// Owning thread of each task.
    owner: Vec<usize>,
    /// Position of each task within its owner's list.
    pos: Vec<usize>,
    /// Pruned waits per task, CSR layout over task ids:
    /// `(thread, required_progress)` — the task may start once
    /// `progress[thread] >= required_progress`.
    wait_ptr: Vec<usize>,
    waits: Vec<(usize, usize)>,
}

impl P2PSchedule {
    /// Builds a schedule.
    ///
    /// * `m` — number of tasks (execution indices `0..m`);
    /// * `nthreads` — thread count (≥ 1);
    /// * `level_ptr` — level boundaries over execution indices
    ///   (`level_ptr[0] == 0`, last element = `m`, monotone);
    /// * `deps_of(task, out)` — fills `out` with the task's dependency
    ///   execution indices (all strictly smaller than `task`).
    ///
    /// Each level is cut into contiguous blocks of
    /// `ceil(width / nthreads)` tasks, block `t` going to thread `t`
    /// (narrow levels leave trailing threads without work), so a
    /// thread streams its own run of rows and hands off once per block.
    pub fn build(
        m: usize,
        nthreads: usize,
        level_ptr: &[usize],
        mut deps_of: impl FnMut(usize, &mut Vec<usize>),
    ) -> Self {
        assert!(nthreads >= 1, "need at least one thread");
        assert!(!level_ptr.is_empty() && level_ptr[0] == 0);
        assert_eq!(*level_ptr.last().expect("nonempty"), m);

        let mut owner = vec![0usize; m];
        let mut pos = vec![0usize; m];
        let mut thread_tasks: Vec<Vec<usize>> = vec![Vec::new(); nthreads];
        for lvl in level_ptr.windows(2) {
            let chunk = (lvl[1] - lvl[0]).div_ceil(nthreads);
            for (t, list) in thread_tasks.iter_mut().enumerate() {
                let lo = (lvl[0] + t * chunk).min(lvl[1]);
                for task in lo..(lo + chunk).min(lvl[1]) {
                    owner[task] = t;
                    pos[task] = list.len();
                    list.push(task);
                }
            }
        }

        // Prune dependencies: keep, per foreign thread, only the largest
        // position; same-thread deps vanish (program order).
        let mut wait_ptr = vec![0usize; m + 1];
        let mut waits: Vec<(usize, usize)> = Vec::new();
        let mut dep_buf: Vec<usize> = Vec::new();
        // needed[t] = required progress of thread t for the current task;
        // stamped to avoid clearing.
        let mut needed = vec![0usize; nthreads];
        let mut stamp = vec![usize::MAX; nthreads];
        for task in 0..m {
            dep_buf.clear();
            deps_of(task, &mut dep_buf);
            let me = owner[task];
            for &d in &dep_buf {
                debug_assert!(d < task, "dependency {d} not before task {task}");
                let t = owner[d];
                if t == me {
                    debug_assert!(pos[d] < pos[task], "program order violated");
                    continue;
                }
                let req = pos[d] + 1; // progress counts completed tasks
                if stamp[t] != task {
                    stamp[t] = task;
                    needed[t] = req;
                } else if req > needed[t] {
                    needed[t] = req;
                }
            }
            for t in 0..nthreads {
                if stamp[t] == task {
                    waits.push((t, needed[t]));
                }
            }
            wait_ptr[task + 1] = waits.len();
        }

        let mut thread_ptr = vec![0usize; nthreads + 1];
        for t in 0..nthreads {
            thread_ptr[t + 1] = thread_ptr[t] + thread_tasks[t].len();
        }
        let tasks = thread_tasks.concat();
        P2PSchedule {
            nthreads,
            thread_ptr,
            tasks,
            owner,
            pos,
            wait_ptr,
            waits,
        }
    }

    /// Thread count the schedule was built for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Total number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.owner.len()
    }

    /// Ordered task list of thread `t`.
    pub fn thread_tasks(&self, t: usize) -> &[usize] {
        &self.tasks[self.thread_ptr[t]..self.thread_ptr[t + 1]]
    }

    /// Owning thread of a task.
    pub fn owner(&self, task: usize) -> usize {
        self.owner[task]
    }

    /// Position of a task within its owner's sequence.
    pub fn position(&self, task: usize) -> usize {
        self.pos[task]
    }

    /// Pruned waits of a task: `(thread, required_progress)` pairs.
    pub fn waits(&self, task: usize) -> &[(usize, usize)] {
        &self.waits[self.wait_ptr[task]..self.wait_ptr[task + 1]]
    }

    /// Total number of wait edges after pruning (the schedule's
    /// synchronization cost; compare against raw dependency counts to
    /// quantify the sparsification, as Park et al. do).
    pub fn n_waits(&self) -> usize {
        self.waits.len()
    }

    /// Confirms the pruned wait lists still dominate the full
    /// dependency set: a same-thread dependency comes earlier in program
    /// order, a foreign one is covered by a wait on its owner, and every
    /// wait targets a task earlier in execution order (what makes the
    /// runtime's waits cycle-free). Test/debug helper — O(total deps).
    pub fn validate(&self, mut deps_of: impl FnMut(usize, &mut Vec<usize>)) -> bool {
        let m = self.n_tasks();
        let mut dep_buf = Vec::new();
        for task in 0..m {
            let earlier = self.waits(task).iter().all(|&(wt, req)| {
                let list = self.thread_tasks(wt);
                req >= 1 && req <= list.len() && list[req - 1] < task
            });
            if !earlier {
                return false;
            }
            dep_buf.clear();
            deps_of(task, &mut dep_buf);
            for &d in &dep_buf {
                let t = self.owner[d];
                if t == self.owner[task] {
                    if self.pos[d] >= self.pos[task] {
                        return false;
                    }
                    continue;
                }
                // Some wait on thread t must cover position pos[d].
                let covered = self
                    .waits(task)
                    .iter()
                    .any(|&(wt, req)| wt == t && req > self.pos[d]);
                if !covered {
                    return false;
                }
            }
        }
        true
    }

    /// `true` when every thread's list ascends in execution order and
    /// its tasks within each level of `level_ptr` are one contiguous run
    /// of execution indices — the block invariant per-block progress
    /// publication relies on. Test/debug helper — O(m log levels).
    pub fn has_level_blocks(&self, level_ptr: &[usize]) -> bool {
        let level = |task: usize| level_ptr.partition_point(|&p| p <= task);
        (0..self.nthreads).all(|t| {
            self.thread_tasks(t)
                .windows(2)
                .all(|w| w[0] < w[1] && (level(w[0]) != level(w[1]) || w[1] == w[0] + 1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain of m tasks (task i depends on i-1), one level each.
    fn chain_deps(i: usize, out: &mut Vec<usize>) {
        if i > 0 {
            out.push(i - 1);
        }
    }

    fn chain_levels(m: usize) -> Vec<usize> {
        (0..=m).collect()
    }

    #[test]
    fn single_thread_has_no_waits() {
        let m = 10;
        let s = P2PSchedule::build(m, 1, &chain_levels(m), chain_deps);
        assert_eq!(s.n_waits(), 0);
        assert_eq!(s.thread_tasks(0).len(), m);
        assert!(s.validate(chain_deps));
    }

    #[test]
    fn chain_on_two_threads_is_one_merged_block() {
        let m = 6;
        let levels = chain_levels(m);
        let s = P2PSchedule::build(m, 2, &levels, chain_deps);
        // Levels of size 1 ⇒ every task is the first block of its level
        // and lands on thread 0, whose blocks touch and merge: all deps
        // are same-thread, no waits.
        assert_eq!(s.thread_tasks(0), &[0, 1, 2, 3, 4, 5]);
        assert!(s.thread_tasks(1).is_empty());
        assert_eq!(s.n_waits(), 0);
        assert!(s.validate(chain_deps));
        assert!(s.has_level_blocks(&levels));
    }

    #[test]
    fn wide_level_with_cross_deps() {
        // Level 0: tasks 0..4; level 1: tasks 4..8, task 4+k depends on
        // all of level 0.
        let level_ptr = vec![0, 4, 8];
        let deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 4 {
                out.extend(0..4);
            }
        };
        let s = P2PSchedule::build(8, 2, &level_ptr, deps);
        // Blocks: lvl0 t0:{0,1} t1:{2,3}; lvl1 t0:{4,5} t1:{6,7}.
        assert_eq!(s.thread_tasks(0), &[0, 1, 4, 5]);
        assert_eq!(s.thread_tasks(1), &[2, 3, 6, 7]);
        // Tasks 4, 5 (t0): foreign deps {2,3} on t1, pruned to
        // pos(3)+1 = 2.
        assert_eq!(s.waits(4), &[(1, 2)]);
        assert_eq!(s.waits(5), &[(1, 2)]);
        // Tasks 6, 7 (t1): foreign deps {0,1} on t0, pruned to
        // pos(1)+1 = 2.
        assert_eq!(s.waits(6), &[(0, 2)]);
        assert_eq!(s.waits(7), &[(0, 2)]);
        assert!(s.validate(deps));
        assert!(s.has_level_blocks(&level_ptr));
    }

    #[test]
    fn pruning_keeps_max_position_only() {
        // One level of 6 tasks, then a task depending on all six.
        let level_ptr = vec![0, 6, 7];
        let deps = |i: usize, out: &mut Vec<usize>| {
            if i == 6 {
                out.extend(0..6);
            }
        };
        let s = P2PSchedule::build(7, 3, &level_ptr, deps);
        // Blocks {0,1} {2,3} {4,5}; task 6 on thread 0; deps per thread
        // pruned to a single wait for each foreign thread.
        let w = s.waits(6);
        assert_eq!(w, &[(1, 2), (2, 2)], "one wait per foreign thread");
        assert!(s.validate(deps));
    }

    #[test]
    fn more_threads_than_level_width() {
        let level_ptr = vec![0, 2, 4];
        let deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 2 {
                out.push(i - 2);
            }
        };
        let s = P2PSchedule::build(4, 8, &level_ptr, deps);
        // Only threads 0 and 1 ever receive work.
        assert_eq!(s.thread_tasks(0).len(), 2);
        assert_eq!(s.thread_tasks(1).len(), 2);
        for t in 2..8 {
            assert!(s.thread_tasks(t).is_empty());
        }
        assert!(s.validate(deps));
    }

    #[test]
    fn waits_reference_real_progress_values() {
        // Dense dependency triangle over three levels.
        let level_ptr = vec![0, 3, 6, 9];
        let deps = |i: usize, out: &mut Vec<usize>| {
            let lvl = i / 3;
            if lvl > 0 {
                out.extend((lvl - 1) * 3..lvl * 3);
            }
        };
        let s = P2PSchedule::build(9, 3, &level_ptr, deps);
        for task in 0..9 {
            for &(t, req) in s.waits(task) {
                assert!(t < 3);
                assert!(req >= 1 && req <= s.thread_tasks(t).len());
            }
        }
        assert!(s.validate(deps));
        // Every level-1+ task waits on exactly the 2 foreign threads.
        for task in 3..9 {
            assert_eq!(s.waits(task).len(), 2);
        }
    }

    #[test]
    fn validate_catches_missing_waits() {
        // Build with a deps_of that hides the dependencies, then validate
        // with the true deps: must fail.
        let level_ptr = vec![0, 4, 8];
        let no_deps = |_: usize, _: &mut Vec<usize>| {};
        let true_deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 4 {
                out.push(i - 4);
            }
        };
        let s = P2PSchedule::build(8, 4, &level_ptr, no_deps);
        // Task 4 depends on task 0: same thread (both first blocks) ⇒ fine;
        // but task 5 depends on 1 (thread 1, same) ⇒ also fine. Use a
        // rotated dep to force cross-thread: i depends on i-3.
        let rotated = |i: usize, out: &mut Vec<usize>| {
            if i >= 4 {
                out.push(i - 3);
            }
        };
        assert!(!s.validate(rotated));
        assert!(s.validate(true_deps));
        assert!(s.validate(no_deps));
    }

    #[test]
    fn empty_schedule() {
        let s = P2PSchedule::build(0, 4, &[0], |_, _| {});
        assert_eq!(s.n_tasks(), 0);
        assert_eq!(s.n_waits(), 0);
    }

    #[test]
    fn levels_are_cut_into_contiguous_blocks() {
        let level_ptr = vec![0usize, 8, 13];
        let s = P2PSchedule::build(13, 3, &level_ptr, |_, _| {});
        // Level 0 (8 tasks): blocks of 3, 3, 2; level 1 (5): 2, 2, 1.
        assert_eq!(s.thread_tasks(0), &[0, 1, 2, 8, 9]);
        assert_eq!(s.thread_tasks(1), &[3, 4, 5, 10, 11]);
        assert_eq!(s.thread_tasks(2), &[6, 7, 12]);
        assert!(s.has_level_blocks(&level_ptr));
    }

    #[test]
    fn dense_cross_level_dependencies_validate() {
        let level_ptr = vec![0usize, 5, 10];
        let deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 5 {
                out.extend(0..5);
            }
        };
        let s = P2PSchedule::build(10, 3, &level_ptr, deps);
        assert!(s.validate(deps));
        assert!(s.has_level_blocks(&level_ptr));
    }

    #[test]
    fn block_check_rejects_a_thread_split_inside_a_level() {
        // Built on two levels of two, thread 0 owns {0, 2}: one block per
        // level. Read against a single level of four, that is a gap.
        let s = P2PSchedule::build(4, 2, &[0, 2, 4], |_, _| {});
        assert_eq!(s.thread_tasks(0), &[0, 2]);
        assert!(s.has_level_blocks(&[0, 2, 4]));
        assert!(!s.has_level_blocks(&[0, 4]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::levels::LevelSets;
    use javelin_sparse::pattern::{
        lower_pattern, lower_symmetrized_pattern, upper_pattern, SparsityPattern,
    };
    use javelin_sparse::CooMatrix;
    use javelin_synth::circuit::transient_circuit;
    use javelin_synth::grid::laplace_2d;
    use javelin_synth::util::bordered;
    use proptest::prelude::*;

    /// Random strictly-lower dependency pattern.
    fn arb_lower(n_max: usize) -> impl Strategy<Value = SparsityPattern> {
        (2..n_max).prop_flat_map(|n| {
            proptest::collection::vec((1..n, 0..n), 0..n * 3).prop_map(move |pairs| {
                let mut coo = CooMatrix::new(n, n);
                for i in 0..n {
                    coo.push(i, i, 1.0).unwrap();
                }
                for (r, c) in pairs {
                    if c < r {
                        coo.push(r, c, 1.0).unwrap();
                    }
                }
                lower_pattern(&coo.to_csr())
            })
        })
    }

    /// One schedule of `m` tasks over `level_ptr`: pruning dominates
    /// the full dependency set, every thread takes one contiguous block
    /// per level, the lists partition the tasks, and there are never
    /// more waits than raw dependencies.
    fn check_schedule(
        m: usize,
        nthreads: usize,
        level_ptr: &[usize],
        deps: impl Fn(usize, &mut Vec<usize>) + Copy,
    ) {
        let s = P2PSchedule::build(m, nthreads, level_ptr, deps);
        prop_assert!(s.validate(deps), "nthreads {}", nthreads);
        prop_assert!(s.has_level_blocks(level_ptr), "nthreads {}", nthreads);
        let mut seen = vec![false; m];
        for t in 0..nthreads {
            for &task in s.thread_tasks(t) {
                prop_assert!(!seen[task]);
                seen[task] = true;
                prop_assert_eq!(s.owner(task), t);
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        let mut raw = 0usize;
        let mut buf = Vec::new();
        for task in 0..m {
            buf.clear();
            deps(task, &mut buf);
            raw += buf.len();
        }
        prop_assert!(s.n_waits() <= raw);
    }

    /// Schedules the strictly-triangular dependency pattern `deps` in
    /// the execution order of `levels` (task `i` is the `i`-th row in
    /// level order), as `SymbolicIlu::analyze` does for both sweeps.
    fn check_levels(deps: &SparsityPattern, levels: &LevelSets, nthreads: usize) {
        let row_of = levels.rows_in_level_order();
        let mut task_of = vec![0usize; row_of.len()];
        for (task, &r) in row_of.iter().enumerate() {
            task_of[r] = task;
        }
        let deps_of = |task: usize, out: &mut Vec<usize>| {
            out.extend(deps.row_cols(row_of[task]).iter().map(|&c| task_of[c]));
        };
        check_schedule(deps.nrows(), nthreads, levels.level_ptr(), deps_of)
    }

    proptest! {
        /// For arbitrary lower patterns, at 1–4 threads and one wider
        /// count, the schedule is sound and blocked (`check_schedule`).
        #[test]
        fn pruned_schedule_is_sound(pat in arb_lower(48), wide in 5usize..9) {
            let lv = LevelSets::compute_lower(&pat);
            for nthreads in (1..=4).chain([wide]) {
                check_levels(&pat, &lv, nthreads);
            }
        }

        /// The same on the `javelin-synth` generators the factor tests
        /// use — a grid, a circuit and a bordered grid — for the forward
        /// schedule (levels of `lower(A + Aᵀ)`, dependencies `lower(A)`)
        /// and the backward one (`upper(A)`), at 1–4 threads.
        #[test]
        fn synth_schedules_are_sound_and_blocked(
            kind in 0usize..3,
            size in 4usize..14,
            seed in 0u64..1000,
        ) {
            let a = match kind {
                0 => laplace_2d(size, size + 3),
                1 => transient_circuit(25 * size, size, seed % 2 == 0, seed),
                _ => bordered(&laplace_2d(size, size), 6),
            };
            let fwd_levels = LevelSets::compute_lower(&lower_symmetrized_pattern(&a));
            let upper = upper_pattern(&a);
            let bwd_levels = LevelSets::compute_upper(&upper);
            for nthreads in 1..=4 {
                check_levels(&lower_pattern(&a), &fwd_levels, nthreads);
                check_levels(&upper, &bwd_levels, nthreads);
            }
        }

        /// Dependencies in level order are always "earlier task index":
        /// the permuted execution order must be topological.
        #[test]
        fn level_order_is_topological(pat in arb_lower(48)) {
            let lv = LevelSets::compute_lower(&pat);
            let perm = lv.permutation();
            let new_of_old = perm.old_to_new();
            for i in 0..pat.nrows() {
                for &j in pat.row_cols(i) {
                    prop_assert!(new_of_old[j] < new_of_old[i]);
                }
            }
        }
    }
}
