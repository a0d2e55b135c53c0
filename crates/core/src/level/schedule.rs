//! Sparsified point-to-point schedules (paper §III-A, Fig. 4).
//!
//! Traditional level scheduling separates levels with barriers; Javelin
//! instead maps rows to threads *statically* (each thread takes one
//! contiguous **block** of every level), which induces an implied
//! execution order per thread, and then **prunes** the dependency set:
//! a dependency on a row owned by the same thread is satisfied by
//! program order, and among dependencies on rows owned by a foreign
//! thread only the latest must be waited for. What remains is at most
//! one `(thread, progress)` wait per foreign thread per block,
//! implemented at runtime with cache-padded monotone progress counters
//! and spin-waits — the paper's "inexpensive spinlocks [that allow]
//! certain threads to speed ahead of others".
//!
//! The schedule is stored in that block form: per thread, its blocks in
//! execution order, each a contiguous range of execution indices with
//! one wait list — the per-thread maximum over its tasks' dependencies,
//! less what an earlier block of the same thread already awaited.
//! Progress counts *finished blocks*: the runtime
//! (`crate::sync::ProgressCounters::walk`) checks a block's waits once,
//! runs its tasks, and publishes once. Where a thread's blocks of
//! consecutive levels touch (a width-1 level, say) they merge into one.
//! [`P2PSchedule::validate`] proves the waits dominate every task's
//! dependencies and target only blocks that end before the waiting
//! block starts; `P2PSchedule::has_level_blocks` checks the
//! one-block-per-level cut.
//!
//! The same machinery schedules the up-looking factorization (this was
//! the paper's observation: up-looking ILU has exactly the dependency
//! structure of a sparse lower-triangular solve) and both triangular
//! solves.

use std::ops::Range;

/// A point-to-point schedule over `m` tasks for `nthreads` threads, in
/// block form (see module docs).
///
/// Tasks are identified by their *execution index* `0..m` — the caller
/// arranges that execution indices are topologically sorted and grouped
/// into levels (`level_ptr`). For a forward sweep over a level-permuted
/// matrix the execution index is simply the (new) row index; for a
/// backward sweep the caller maps each execution index to its row.
#[derive(Debug, Clone)]
pub struct P2PSchedule {
    nthreads: usize,
    n_tasks: usize,
    /// Thread `t`'s blocks are `blocks[block_ptr[t]..block_ptr[t + 1]]`,
    /// in execution order.
    block_ptr: Vec<usize>,
    /// Each block's execution indices.
    blocks: Vec<Range<usize>>,
    /// Block `b` may start once every pair of
    /// `waits[wait_ptr[b]..wait_ptr[b + 1]]`, `(thread, blocks_done)`,
    /// holds: `thread` has finished at least `blocks_done` blocks.
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
    ///   execution indices (all strictly smaller than `task`). Called
    ///   once per task.
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

        let mut lists: Vec<Vec<Range<usize>>> = vec![Vec::new(); nthreads];
        for lvl in level_ptr.windows(2) {
            let chunk = (lvl[1] - lvl[0]).div_ceil(nthreads);
            for (t, list) in lists.iter_mut().enumerate() {
                let lo = (lvl[0] + t * chunk).min(lvl[1]);
                let hi = (lo + chunk).min(lvl[1]);
                match list.last_mut() {
                    _ if lo == hi => {}
                    Some(prev) if prev.end == lo => prev.end = hi,
                    _ => list.push(lo..hi),
                }
            }
        }
        let (owner, block_of) = task_blocks(m, &lists);

        // Prune: per block and foreign thread, keep the largest block
        // count its tasks need, and drop it when an earlier block of the
        // same thread already waited for as much; same-thread
        // dependencies vanish (program order).
        let mut block_ptr = vec![0usize; nthreads + 1];
        let mut wait_ptr = vec![0usize];
        let mut waits: Vec<(usize, usize)> = Vec::new();
        let mut dep_buf: Vec<usize> = Vec::new();
        let mut needed = vec![0usize; nthreads];
        let mut awaited = vec![0usize; nthreads];
        for (me, list) in lists.iter().enumerate() {
            awaited.fill(0);
            for (b, block) in list.iter().enumerate() {
                needed.fill(0);
                for task in block.clone() {
                    dep_buf.clear();
                    deps_of(task, &mut dep_buf);
                    for &d in &dep_buf {
                        debug_assert!(d < task, "dependency {d} not before task {task}");
                        let t = owner[d];
                        if t == me {
                            debug_assert!(block_of[d] <= b, "program order violated");
                            continue;
                        }
                        needed[t] = needed[t].max(block_of[d] + 1);
                    }
                }
                for t in 0..nthreads {
                    if needed[t] > awaited[t] {
                        awaited[t] = needed[t];
                        waits.push((t, needed[t]));
                    }
                }
                wait_ptr.push(waits.len());
            }
            block_ptr[me + 1] = block_ptr[me] + list.len();
        }
        P2PSchedule {
            nthreads,
            n_tasks: m,
            block_ptr,
            blocks: lists.concat(),
            wait_ptr,
            waits,
        }
    }

    /// Thread count the schedule was built for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Total number of tasks.
    #[cfg(test)]
    pub(crate) fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Thread `t`'s blocks in execution order, each with its wait list
    /// of `(thread, blocks_done)` pairs — the sequence
    /// `crate::sync::ProgressCounters::walk` runs.
    pub fn thread_blocks(
        &self,
        t: usize,
    ) -> impl ExactSizeIterator<Item = (Range<usize>, &[(usize, usize)])> + Clone + '_ {
        (self.block_ptr[t]..self.block_ptr[t + 1]).map(move |b| {
            (
                self.blocks[b].clone(),
                &self.waits[self.wait_ptr[b]..self.wait_ptr[b + 1]],
            )
        })
    }

    /// Total number of blocks — one progress publication each per walk.
    pub(crate) fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of wait entries after pruning — the wait checks one
    /// walk of the schedule performs (its synchronization cost; compare
    /// against raw dependency counts to quantify the sparsification, as
    /// Park et al. do).
    pub fn n_waits(&self) -> usize {
        self.waits.len()
    }

    /// The weighted makespan of one walk when task `i` costs
    /// `weight(i)` and synchronization is free: the heaviest chain of
    /// block weights through each thread's program order and its
    /// waits. A block starts once its thread's previous block and every
    /// block it waits on have finished, so the result lies between
    /// `max(total / nthreads, heaviest dependency chain)` and `total`,
    /// and at one thread it is `total`.
    pub fn makespan(&self, weight: impl Fn(usize) -> usize) -> usize {
        // Every wait targets a block that ends before the waiting block
        // starts, so blocks in order of their first task are in
        // dependency order.
        let mut order: Vec<(usize, usize)> = (0..self.nthreads)
            .flat_map(|t| (self.block_ptr[t]..self.block_ptr[t + 1]).map(move |b| (t, b)))
            .collect();
        order.sort_unstable_by_key(|&(_, b)| self.blocks[b].start);
        let mut finish = vec![0usize; self.blocks.len()];
        for (t, b) in order {
            let after_own = if b > self.block_ptr[t] {
                finish[b - 1]
            } else {
                0
            };
            let start = self.waits[self.wait_ptr[b]..self.wait_ptr[b + 1]]
                .iter()
                .fold(after_own, |s, &(u, done)| {
                    s.max(finish[self.block_ptr[u] + done - 1])
                });
            finish[b] = start + self.blocks[b].clone().map(&weight).sum::<usize>();
        }
        finish.into_iter().max().unwrap_or(0)
    }

    /// Bytes of schedule metadata one walk reads: each block's task
    /// range and wait-list bounds, and each wait entry.
    pub(crate) fn walk_bytes(&self) -> usize {
        use std::mem::size_of;
        self.blocks.len() * (size_of::<Range<usize>>() + 2 * size_of::<usize>())
            + self.waits.len() * size_of::<(usize, usize)>()
    }

    /// Bytes of the schedule's four arrays, `len × size_of` each.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.block_ptr[..])
            + size_of_val(&self.blocks[..])
            + size_of_val(&self.wait_ptr[..])
            + size_of_val(&self.waits[..])
    }

    /// Confirms the schedule is sound for the block runtime: the blocks
    /// partition the tasks and ascend per thread; every wait targets
    /// another thread's block that ends before the waiting block starts
    /// (which makes the runtime's waits cycle-free); and every task's
    /// dependencies are dominated — a same-thread one comes earlier in
    /// program order, a foreign one is covered by a wait of this block
    /// or an earlier block of the same thread. Test/debug helper —
    /// O(m + total deps).
    pub fn validate(&self, mut deps_of: impl FnMut(usize, &mut Vec<usize>)) -> bool {
        let lists: Vec<Vec<Range<usize>>> = (0..self.nthreads)
            .map(|t| self.thread_blocks(t).map(|(r, _)| r).collect())
            .collect();
        let ascending = lists.iter().all(|list| {
            list.iter().all(|r| !r.is_empty()) && list.windows(2).all(|w| w[0].end <= w[1].start)
        });
        let covered: usize = self.blocks.iter().map(|r| r.len()).sum();
        if !ascending || covered != self.n_tasks || self.blocks.iter().any(|r| r.end > self.n_tasks)
        {
            return false;
        }
        let (owner, block_of) = task_blocks(self.n_tasks, &lists);
        if owner.contains(&usize::MAX) {
            return false;
        }
        let mut dep_buf = Vec::new();
        let mut awaited = vec![0usize; self.nthreads];
        for me in 0..self.nthreads {
            awaited.fill(0);
            for (b, (block, waits)) in self.thread_blocks(me).enumerate() {
                for &(t, req) in waits {
                    let ok = t != me
                        && t < self.nthreads
                        && req >= 1
                        && req <= lists[t].len()
                        && lists[t][req - 1].end <= block.start;
                    if !ok {
                        return false;
                    }
                    awaited[t] = awaited[t].max(req);
                }
                for task in block {
                    dep_buf.clear();
                    deps_of(task, &mut dep_buf);
                    for &d in &dep_buf {
                        let ok = if owner[d] == me {
                            block_of[d] < b || (block_of[d] == b && d < task)
                        } else {
                            awaited[owner[d]] > block_of[d]
                        };
                        if !ok {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// `true` when no thread has two blocks meeting one level of
    /// `level_ptr` — the cut that makes a walk publish once per thread
    /// and level. Test/debug helper — O(blocks · log levels).
    pub(crate) fn has_level_blocks(&self, level_ptr: &[usize]) -> bool {
        let level = |task: usize| level_ptr.partition_point(|&p| p <= task);
        (0..self.nthreads).all(|t| {
            let blocks: Vec<Range<usize>> = self.thread_blocks(t).map(|(r, _)| r).collect();
            blocks
                .windows(2)
                .all(|w| w[0].end <= w[1].start && level(w[0].end - 1) < level(w[1].start))
        })
    }
}

/// Owning thread and block number (within the owner's list) of every
/// task of `lists`; `usize::MAX` marks a task no block covers.
fn task_blocks(m: usize, lists: &[Vec<Range<usize>>]) -> (Vec<usize>, Vec<usize>) {
    let mut owner = vec![usize::MAX; m];
    let mut block_of = vec![usize::MAX; m];
    for (t, list) in lists.iter().enumerate() {
        for (b, block) in list.iter().enumerate() {
            for task in block.clone() {
                owner[task] = t;
                block_of[task] = b;
            }
        }
    }
    (owner, block_of)
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

    /// Thread `t`'s blocks as `(tasks, waits)` pairs.
    fn blocks(s: &P2PSchedule, t: usize) -> Vec<(Range<usize>, Vec<(usize, usize)>)> {
        s.thread_blocks(t).map(|(r, w)| (r, w.to_vec())).collect()
    }

    /// Thread `t`'s block ranges.
    fn ranges(s: &P2PSchedule, t: usize) -> Vec<Range<usize>> {
        s.thread_blocks(t).map(|(r, _)| r).collect()
    }

    #[test]
    fn single_thread_has_no_waits() {
        let m = 10;
        let s = P2PSchedule::build(m, 1, &chain_levels(m), chain_deps);
        assert_eq!(s.n_waits(), 0);
        assert_eq!(ranges(&s, 0), vec![0..m; 1]);
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
        assert_eq!(ranges(&s, 0), vec![0..6; 1]);
        assert!(ranges(&s, 1).is_empty());
        assert_eq!((s.n_blocks(), s.n_waits()), (1, 0));
        assert!(s.validate(chain_deps));
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
        // Blocks: lvl0 t0:{0,1} t1:{2,3}; lvl1 t0:{4,5} t1:{6,7}. Each
        // level-1 block's foreign deps are the other thread's first
        // block: one wait on one finished block.
        assert_eq!(blocks(&s, 0), [(0..2, vec![]), (4..6, vec![(1, 1)])]);
        assert_eq!(blocks(&s, 1), [(2..4, vec![]), (6..8, vec![(0, 1)])]);
        assert!(s.validate(deps));
        assert!(s.has_level_blocks(&level_ptr));
    }

    #[test]
    fn pruning_keeps_max_block_only() {
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
        assert_eq!(blocks(&s, 0)[1], (6..7, vec![(1, 1), (2, 1)]));
        assert!(s.validate(deps));
    }

    #[test]
    fn a_wait_an_earlier_block_made_is_not_repeated() {
        // Three levels of four on two threads; every level-1 and
        // level-2 task depends on task 2 (thread 1's first block).
        // Thread 0's level-1 block waits for it; its level-2 block
        // needs nothing new.
        let level_ptr = vec![0, 4, 8, 12];
        let deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 4 {
                out.push(2);
            }
        };
        let s = P2PSchedule::build(12, 2, &level_ptr, deps);
        assert_eq!(
            blocks(&s, 0),
            [(0..2, vec![]), (4..6, vec![(1, 1)]), (8..10, vec![])]
        );
        assert_eq!(s.n_waits(), 1, "thread 1 owns task 2: no waits of its own");
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
        assert_eq!(ranges(&s, 0), [0..1, 2..3]);
        assert_eq!(ranges(&s, 1), [1..2, 3..4]);
        for t in 2..8 {
            assert!(ranges(&s, t).is_empty());
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
        assert!(s.validate(deps));
        // Every level-1+ block waits on exactly the 2 foreign threads,
        // for their previous level's block.
        for t in 0..3 {
            let b = blocks(&s, t);
            assert!(b[0].1.is_empty());
            for (lvl, (_, waits)) in b.iter().enumerate().skip(1) {
                let want: Vec<(usize, usize)> =
                    (0..3).filter(|&u| u != t).map(|u| (u, lvl)).collect();
                assert_eq!(*waits, want, "thread {t} level {lvl}");
            }
        }
    }

    #[test]
    fn validate_catches_missing_waits() {
        // Build with a deps_of that hides the dependencies, then validate
        // with the true deps: a cross-thread dependency must fail.
        let level_ptr = vec![0, 4, 8];
        let no_deps = |_: usize, _: &mut Vec<usize>| {};
        let true_deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 4 {
                out.push(i - 4);
            }
        };
        let s = P2PSchedule::build(8, 4, &level_ptr, no_deps);
        // Task i depends on i-4: same thread (both levels' block t) ⇒
        // fine. Rotated to i-3, task 4 (thread 0) needs task 1 (thread
        // 1), which nothing waits for.
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
    fn validate_rejects_a_wait_on_an_unfinished_block() {
        // A hand-made schedule whose thread-0 block waits on thread 1's
        // block that starts after it: the walk could deadlock.
        let s = P2PSchedule {
            nthreads: 2,
            n_tasks: 4,
            block_ptr: vec![0, 1, 2],
            blocks: vec![0..2, 2..4],
            wait_ptr: vec![0, 1, 1],
            waits: vec![(1, 1)],
        };
        assert!(!s.validate(|_, _| {}));
        let sound = P2PSchedule {
            wait_ptr: vec![0, 0, 1],
            waits: vec![(0, 1)],
            ..s
        };
        assert!(sound.validate(|i, out| out.extend((i >= 2).then_some(0))));
    }

    #[test]
    fn makespan_follows_program_order_and_waits() {
        // Level 0: tasks 0..4; level 1: tasks 4..8, each depending on
        // all of level 0. Blocks {0,1} {2,3} then {4,5} {6,7}: each
        // level-1 block waits on the other thread's level-0 block.
        let level_ptr = vec![0, 4, 8];
        let deps = |i: usize, out: &mut Vec<usize>| {
            if i >= 4 {
                out.extend(0..4);
            }
        };
        let s = P2PSchedule::build(8, 2, &level_ptr, deps);
        // Task i costs i + 1: level 0 blocks 3 and 7, level 1 blocks 11
        // and 15. Thread 0's level-1 block starts when thread 1's first
        // block ends (7), thread 1's at its own (7): 7 + 15 = 22.
        assert_eq!(s.makespan(|i| i + 1), 22);
        assert_eq!(s.makespan(|_| 0), 0);
        let one = P2PSchedule::build(8, 1, &level_ptr, deps);
        assert_eq!(one.makespan(|i| i + 1), 36);
        // A chain stays on thread 0: its makespan is its total.
        let chain = P2PSchedule::build(6, 3, &chain_levels(6), chain_deps);
        assert_eq!(chain.makespan(|_| 2), 12);
    }

    #[test]
    fn empty_schedule() {
        let s = P2PSchedule::build(0, 4, &[0], |_, _| {});
        assert_eq!(s.n_tasks(), 0);
        assert_eq!((s.n_blocks(), s.n_waits(), s.walk_bytes()), (0, 0, 0));
        assert_eq!(s.makespan(|_| 1), 0);
    }

    #[test]
    fn levels_are_cut_into_contiguous_blocks() {
        let level_ptr = vec![0usize, 8, 13];
        let s = P2PSchedule::build(13, 3, &level_ptr, |_, _| {});
        // Level 0 (8 tasks): blocks of 3, 3, 2; level 1 (5): 2, 2, 1.
        assert_eq!(ranges(&s, 0), [0..3, 8..10]);
        assert_eq!(ranges(&s, 1), [3..6, 10..12]);
        assert_eq!(ranges(&s, 2), [6..8, 12..13]);
        assert!(s.has_level_blocks(&level_ptr));
        assert_eq!(s.n_blocks(), 6);
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
        // Built on two levels of two, thread 0 owns {0} and {2}: one
        // block per level. Read against a single level of four, that is
        // two blocks in one level.
        let s = P2PSchedule::build(4, 2, &[0, 2, 4], |_, _| {});
        assert_eq!(ranges(&s, 0), [0..1, 2..3]);
        assert!(s.has_level_blocks(&[0, 2, 4]));
        assert!(!s.has_level_blocks(&[0, 4]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::level::levels::LevelSets;
    use javelin_sparse::pattern::{lower_pattern, lower_symmetrized_pattern, SparsityPattern};
    use javelin_sparse::{CooMatrix, Perm};
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
    /// the full dependency set, every thread takes at most one block
    /// per level, the blocks partition the tasks, and there are never
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
            for (block, _) in s.thread_blocks(t) {
                for task in block {
                    prop_assert!(!seen[task]);
                    seen[task] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        prop_assert!(s.n_blocks() <= (level_ptr.len() - 1) * nthreads);
        let mut raw = 0usize;
        let mut buf = Vec::new();
        for task in 0..m {
            buf.clear();
            deps(task, &mut buf);
            raw += buf.len();
        }
        prop_assert!(s.n_waits() <= raw);
        // The weighted makespan lies between the two lower bounds —
        // an even share of the work and the heaviest dependency chain —
        // and the total work.
        let weight = |task: usize| (task * 31 + 7) % 11;
        let total: usize = (0..m).map(weight).sum();
        let mut chain = vec![0usize; m];
        for task in 0..m {
            buf.clear();
            deps(task, &mut buf);
            chain[task] = weight(task) + buf.iter().map(|&d| chain[d]).max().unwrap_or(0);
        }
        let heaviest = chain.iter().copied().max().unwrap_or(0);
        let span = s.makespan(weight);
        prop_assert!(
            span * nthreads >= total,
            "{} < {} / {}",
            span,
            total,
            nthreads
        );
        prop_assert!(span >= heaviest, "{} < chain {}", span, heaviest);
        prop_assert!(span <= total, "{} > total {}", span, total);
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
        /// and the backward one (`upper(A)`: the lower pattern of `A` with
        /// rows and columns reversed), at 1–4 threads.
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
            let reverse = Perm::from_new_to_old((0..a.nrows()).rev().collect()).unwrap();
            let upper = lower_pattern(&a.permute_sym(&reverse).unwrap());
            let bwd_levels = LevelSets::compute_lower(&upper);
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
