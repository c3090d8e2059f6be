//! The split → processing → merge execution phases (Fig. 5).
//!
//! "After a data block is formed, it is placed in a work queue for the
//! processing phase. … As ATs make the tasks independent, it can be
//! scaled to many parallel threads. The merge phase combines all of
//! the partial results from the processing phase." Each worker thread
//! runs the *entire* pipeline for its blocks (§1: "each thread
//! executes the entire pipeline, for separate blocks of the input
//! data"); only fragments cross thread boundaries.
//!
//! Two deliberate deviations from the paper's prototype, both for
//! sustained-traffic throughput:
//!
//! * threads are **persistent** ([`crate::pool::WorkerPool`]) instead
//!   of being re-created per query, and result slots are pre-sized and
//!   written lock-free (the work-queue cursor hands each slot exactly
//!   one writer);
//! * the merge phase is an **incremental left fold**
//!   ([`StreamMerger`]): each fragment is folded into its neighbours
//!   the moment its task completes, in whatever order completions
//!   arrive. Adjacent runs coalesce immediately, so live fragment
//!   memory is bounded by the number of *gaps* between completed runs
//!   — `O(in-flight tasks)`, i.e. `O(workers)`, never `O(blocks)`.
//!   Because ⊗ is associative (§3.2) and only **adjacent** fragments
//!   ever merge, the result is identical to a sequential left fold at
//!   every thread count. A streamed region is one more block run
//!   whose fold joins the regions before it.

use crate::cancel::CancelToken;
use crate::pool::{available_parallelism, recover, JobFault, WorkerPool};
use crate::stats::Timings;
use atgis_formats::Block;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Resolves a configured thread count: `0` means "match the machine"
/// (`std::thread::available_parallelism`), anything else is taken
/// as-is. Guards against the oversubscription of spawning more workers
/// than there are result slots — the pool additionally clamps per-job
/// concurrency to the task count.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_parallelism()
    } else {
        threads
    }
}

/// The incremental, out-of-order fragment merger behind every merge
/// phase ([`run_blocks_on`]).
///
/// Fragments arrive as `(index, fragment)` in *any* order (whichever
/// task finishes first). The merger keeps maximal runs of contiguous
/// indices, merging a new fragment into its adjacent runs immediately,
/// so at any instant it holds one fragment per contiguous run — at
/// most `in-flight tasks + 1`, never the total fragment count. Only
/// adjacent fragments are ever combined, in index order, which by
/// ⊗-associativity makes the final fold bit-identical to a sequential
/// left fold regardless of arrival order.
///
/// A merge or process error poisons the merger: held fragments are
/// dropped, later pushes are discarded, and [`StreamMerger::finish`]
/// reports the first error.
pub struct StreamMerger<T, E> {
    /// Maximal contiguous runs, keyed by start index, holding
    /// `(end_exclusive, folded_fragment)`.
    runs: BTreeMap<usize, (usize, T)>,
    error: Option<E>,
    /// Fragments temporarily owned by workers merging outside the
    /// lock ([`StreamMerger::push_shared`]); counted into the peak so
    /// the bounded-memory claim covers in-flight merges too.
    detached: usize,
    peak_runs: usize,
    merged: u64,
    merge_time: Duration,
}

impl<T, E> Default for StreamMerger<T, E> {
    fn default() -> Self {
        StreamMerger::new()
    }
}

impl<T, E> StreamMerger<T, E> {
    /// An empty merger.
    pub fn new() -> Self {
        StreamMerger {
            runs: BTreeMap::new(),
            error: None,
            detached: 0,
            peak_runs: 0,
            merged: 0,
            merge_time: Duration::ZERO,
        }
    }

    /// Folds fragment `index` in, coalescing with the runs ending at
    /// `index` and starting at `index + 1` if present. The merger is
    /// shared across pool workers: the lock is held only to detach
    /// adjacent runs and to reinsert the result — the `merge` calls
    /// themselves run **outside** the lock, so one expensive merge
    /// never stalls other workers from folding their own fragments or
    /// claiming the next task. The loop re-checks for new neighbours
    /// after every merge round (another worker may have completed the
    /// adjacent run meanwhile), so runs still coalesce maximally.
    pub fn push_shared<M>(this: &Mutex<Self>, index: usize, frag: T, merge: M)
    where
        M: Fn(T, T) -> std::result::Result<T, E>,
    {
        let mut start = index;
        let mut end = index + 1;
        let mut frag = frag;
        let mut merges = 0u64;
        let mut spent = Duration::ZERO;
        loop {
            let mut m = recover(this.lock());
            if m.error.is_some() {
                m.merged += merges;
                m.merge_time += spent;
                return; // poisoned: drop the fragment
            }
            // Detach the adjacent runs, if any, under the lock.
            let left = match m.runs.range(..start).next_back() {
                Some((&ls, &(le, _))) if le == start => {
                    let (_, (_, f)) = m.runs.remove_entry(&ls).expect("run exists");
                    Some((ls, f))
                }
                _ => None,
            };
            let right = m.runs.remove(&end);
            if left.is_none() && right.is_none() {
                m.runs.insert(start, (end, frag));
                m.merged += merges;
                m.merge_time += spent;
                m.peak_runs = m.peak_runs.max(m.runs.len() + m.detached);
                return;
            }
            // Count every live fragment this worker now owns — its
            // own plus each detached neighbour — so the observable
            // peak honestly covers in-flight merges.
            let owned = 1 + usize::from(left.is_some()) + usize::from(right.is_some());
            m.detached += owned;
            m.peak_runs = m.peak_runs.max(m.runs.len() + m.detached);
            drop(m);

            // Merge outside the lock.
            let started = Instant::now();
            let merged: std::result::Result<T, E> = (|| {
                let mut cur = frag;
                if let Some((ls, lf)) = left {
                    merges += 1;
                    cur = merge(lf, cur)?;
                    start = ls;
                }
                if let Some((re, rf)) = right {
                    merges += 1;
                    cur = merge(cur, rf)?;
                    end = re;
                }
                Ok(cur)
            })();
            spent += started.elapsed();
            let mut m = recover(this.lock());
            m.detached -= owned;
            match merged {
                // Loop: new neighbours may have landed while we merged.
                Ok(f) => frag = f,
                Err(e) => {
                    m.merged += merges;
                    m.merge_time += spent;
                    m.poison(e);
                    return;
                }
            }
        }
    }

    /// Poisons the merger with an error (used for process-phase
    /// failures too, so the first error of a run wins and fragments
    /// stop accumulating).
    pub fn poison(&mut self, e: E) {
        self.runs.clear();
        self.error.get_or_insert(e);
    }

    /// True when a poison error is pending.
    pub fn is_poisoned(&self) -> bool {
        self.error.is_some()
    }

    /// Largest number of live runs (fragments) ever held — the bounded
    /// memory claim of the streaming scan, observable.
    pub fn peak_runs(&self) -> usize {
        self.peak_runs
    }

    /// Number of pairwise merges performed.
    pub fn merges(&self) -> u64 {
        self.merged
    }

    /// Wall time spent inside `merge` calls (and run bookkeeping).
    pub fn merge_time(&self) -> Duration {
        self.merge_time
    }

    /// Finishes the fold. With every index `0..n` pushed exactly once
    /// this yields the single folded fragment (`None` when nothing was
    /// pushed); a pending error wins over any partial state.
    pub fn finish(mut self) -> std::result::Result<Option<T>, E> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        debug_assert!(
            self.runs.len() <= 1,
            "finish with {} disjoint runs — an index was never pushed",
            self.runs.len()
        );
        Ok(self.runs.into_iter().next().map(|(_, (_, f))| f))
    }
}

/// What one [`run_blocks_on`] fold did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldStats {
    /// Pairwise fragment merges.
    pub merges: u64,
    /// Most fragments alive at once ([`StreamMerger::peak_runs`]).
    pub peak_fragments: u64,
}

/// Runs `process` over every block on up to `threads` workers of
/// `pool`, folding the per-block fragments incrementally in block
/// order with `merge` as completions arrive (see [`StreamMerger`]).
/// Returns `Ok(None)` for an empty block list.
///
/// Workers poll `token` (when given) before each block, so a
/// cancelled or past-deadline scan stops within one in-flight block
/// per thread. Pool faults — a task panic, an interruption — convert
/// into `E` via its `From<JobFault>` impl, so callers see one error
/// channel for process errors, merge errors and execution faults
/// alike.
pub fn run_blocks_on<T, E, P, M>(
    pool: &WorkerPool,
    blocks: &[Block],
    threads: usize,
    token: Option<&CancelToken>,
    process: P,
    merge: M,
) -> (std::result::Result<Option<T>, E>, Timings, FoldStats)
where
    T: Send,
    E: Send + From<JobFault>,
    P: Fn(Block) -> std::result::Result<T, E> + Sync,
    M: Fn(T, T) -> std::result::Result<T, E> + Sync,
{
    let threads = resolve_threads(threads);
    let mut timings = Timings::default();

    // Processing phase: the pool's job cursor is the work queue. Each
    // completing task folds its fragment straight into the shared
    // merger, so merging overlaps processing on other workers and
    // fragments never pile up.
    let merger: Mutex<StreamMerger<T, E>> = Mutex::new(StreamMerger::new());
    let started = Instant::now();
    let fault = pool.run_cancellable(blocks.len(), threads, token, |i| {
        crate::fault_point!("executor.block");
        match process(blocks[i]) {
            Ok(frag) => StreamMerger::push_shared(&merger, i, frag, &merge),
            Err(e) => recover(merger.lock()).poison(e),
        }
    });
    let elapsed = started.elapsed();
    let merger = recover(merger.into_inner());
    // Attribution: merges ran inside the same wall interval, possibly
    // concurrently on several workers, so the summed merge time is
    // worker-time and can exceed the wall clock. Clamp it so the
    // reported phases always partition the actual elapsed wall time
    // (`total()` stays meaningful for figures and amortisation
    // ratios).
    timings.merge = merger.merge_time().min(elapsed);
    timings.process = elapsed - timings.merge;
    let fold = FoldStats {
        merges: merger.merges(),
        peak_fragments: merger.peak_runs() as u64,
    };
    // A pool fault outranks the merger's contents: an interrupted or
    // panicked job has holes, so its partial fold must not be
    // finished (or even asserted on).
    let result = match fault {
        Err(f) => Err(E::from(f)),
        Ok(()) => merger.finish(),
    };
    (result, timings, fold)
}

/// Runs `work` over the indices `0..n` on up to `threads` workers of
/// `pool`, collecting outputs in index order. A simpler variant of
/// [`run_blocks_on`] for partition-parallel stages (the join pipeline
/// fans out over partitions, not blocks). Returns the structured
/// fault when a task panicked or `token` tripped.
pub fn run_indexed_on<T, P>(
    pool: &WorkerPool,
    n: usize,
    threads: usize,
    token: Option<&CancelToken>,
    work: P,
) -> Result<Vec<T>, JobFault>
where
    T: Send,
    P: Fn(usize) -> T + Sync,
{
    pool.run_collect_cancellable(n, resolve_threads(threads), token, work)
}

/// Runs `work(outer, inner)` over the full `outer × inner` grid as
/// ONE flattened job space, collecting results outer-major. The batch
/// join stage fans out over (query, partition) pairs this way instead
/// of running per-query passes back to back: a query whose partitions
/// are few or cheap no longer leaves workers idle while its
/// predecessor finishes, because every worker drains one shared
/// cursor over all pairs. Returns the structured fault when a task
/// panicked or `token` tripped mid-grid.
pub fn run_grid_on<T, P>(
    pool: &WorkerPool,
    outer: usize,
    inner: usize,
    threads: usize,
    token: Option<&CancelToken>,
    work: P,
) -> Result<Vec<Vec<T>>, JobFault>
where
    T: Send,
    P: Fn(usize, usize) -> T + Sync,
{
    if outer == 0 || inner == 0 {
        return Ok((0..outer).map(|_| Vec::new()).collect());
    }
    let mut flat =
        pool.run_collect_cancellable(outer * inner, resolve_threads(threads), token, |i| {
            work(i / inner, i % inner)
        })?;
    // Split rows off the back so each split moves only one row, not
    // the whole remaining tail.
    let mut out = Vec::with_capacity(outer);
    for _ in 0..outer {
        let row = flat.split_off(flat.len() - inner);
        out.push(row);
    }
    out.reverse();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::Interrupt;
    use atgis_formats::fixed_blocks;

    /// Test error: a user-side message or a pool fault, so the tests
    /// can distinguish the two channels structurally.
    #[derive(Debug, PartialEq)]
    enum TErr {
        Msg(&'static str),
        Fault(JobFault),
    }

    impl From<JobFault> for TErr {
        fn from(f: JobFault) -> Self {
            TErr::Fault(f)
        }
    }

    #[test]
    fn sums_blocks_in_order() {
        let blocks = fixed_blocks(100, 10);
        for threads in [1, 2, 4, 8] {
            let (result, ..) = run_blocks_on(
                WorkerPool::global(),
                &blocks,
                threads,
                None,
                |b| Ok::<_, JobFault>(vec![b.index]),
                |mut a, b| {
                    a.extend(b);
                    Ok(a)
                },
            );
            let merged = result.unwrap().unwrap();
            assert_eq!(merged, (0..10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_machine_parallelism() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
        let blocks = fixed_blocks(50, 5);
        let (result, ..) = run_blocks_on(
            WorkerPool::global(),
            &blocks,
            0,
            None,
            |b| Ok::<_, JobFault>(b.len()),
            |a, b| Ok(a + b),
        );
        assert_eq!(result.unwrap(), Some(50));
    }

    #[test]
    fn empty_blocks_yield_none() {
        let (result, ..) = run_blocks_on(
            WorkerPool::global(),
            &[],
            4,
            None,
            |_| Ok::<_, JobFault>(0u64),
            |a, b| Ok(a + b),
        );
        assert_eq!(result.unwrap(), None);
    }

    #[test]
    fn process_errors_propagate() {
        let blocks = fixed_blocks(10, 5);
        let (result, ..) = run_blocks_on(
            WorkerPool::global(),
            &blocks,
            2,
            None,
            |b| {
                if b.index == 3 {
                    Err(TErr::Msg("boom"))
                } else {
                    Ok(b.index)
                }
            },
            |a, _| Ok(a),
        );
        assert_eq!(result.unwrap_err(), TErr::Msg("boom"));
    }

    #[test]
    fn merge_errors_propagate() {
        let blocks = fixed_blocks(10, 5);
        // Merges coalesce adjacent runs in completion order: make the
        // failure reachable under any adjacency by failing whenever
        // block 2 is involved.
        let (result, ..) = run_blocks_on(
            WorkerPool::global(),
            &blocks,
            2,
            None,
            |b| Ok(vec![b.index]),
            |a: Vec<usize>, b| {
                if a.contains(&2) || b.contains(&2) {
                    Err(TErr::Msg("merge fail"))
                } else {
                    Ok(a.into_iter().chain(b).collect())
                }
            },
        );
        assert_eq!(result.unwrap_err(), TErr::Msg("merge fail"));
    }

    #[test]
    fn task_panics_surface_as_faults_not_pool_death() {
        let pool = WorkerPool::new(2);
        let blocks = fixed_blocks(100, 10);
        let (result, ..) = run_blocks_on(
            &pool,
            &blocks,
            3,
            None,
            |b| {
                if b.index == 4 {
                    panic!("process blew up");
                }
                Ok::<_, TErr>(b.index)
            },
            |a, _| Ok(a),
        );
        assert_eq!(
            result.unwrap_err(),
            TErr::Fault(JobFault::Panicked("process blew up".to_string()))
        );
        // The same pool still serves the next scan.
        let (ok, ..) = run_blocks_on(
            &pool,
            &blocks,
            3,
            None,
            |b| Ok::<_, JobFault>(b.len()),
            |a, b| Ok(a + b),
        );
        assert_eq!(ok.unwrap(), Some(100));
    }

    #[test]
    fn cancelled_scan_interrupts_instead_of_finishing() {
        let pool = WorkerPool::new(2);
        let blocks = fixed_blocks(100, 10);
        let token = CancelToken::new();
        token.cancel();
        let (result, ..) = run_blocks_on(
            &pool,
            &blocks,
            3,
            Some(&token),
            |b| Ok::<_, TErr>(b.len()),
            |a, b| Ok(a + b),
        );
        assert_eq!(
            result.unwrap_err(),
            TErr::Fault(JobFault::Interrupted(Interrupt::Cancelled))
        );
    }

    #[test]
    fn stream_merger_folds_out_of_order_pushes_in_index_order() {
        // Every permutation of 6 fragments must fold to the same
        // left-to-right concatenation.
        let perms: Vec<Vec<usize>> = vec![
            (0..6).collect(),
            (0..6).rev().collect(),
            vec![3, 0, 5, 2, 4, 1],
            vec![1, 3, 5, 0, 2, 4],
        ];
        for perm in perms {
            let m: Mutex<StreamMerger<Vec<usize>, ()>> = Mutex::new(StreamMerger::new());
            for &i in &perm {
                StreamMerger::push_shared(&m, i, vec![i], |mut a, b| {
                    a.extend(b);
                    Ok(a)
                });
            }
            assert_eq!(
                m.into_inner().unwrap().finish().unwrap().unwrap(),
                vec![0, 1, 2, 3, 4, 5],
                "{perm:?}"
            );
        }
    }

    #[test]
    fn stream_merger_memory_is_bounded_by_gaps() {
        // Pushing evens then odds: after the evens, runs == 3 gaps + …
        // — the peak equals the maximal number of disjoint runs, not
        // the fragment count.
        let m: Mutex<StreamMerger<u64, ()>> = Mutex::new(StreamMerger::new());
        let n = 64usize;
        for i in (0..n).step_by(2) {
            StreamMerger::push_shared(&m, i, 1, |a, b| Ok(a + b));
        }
        assert_eq!(m.lock().unwrap().peak_runs(), n / 2);
        for i in (1..n).step_by(2) {
            StreamMerger::push_shared(&m, i, 1, |a, b| Ok(a + b));
        }
        // Coalescing kept the peak at the even-phase level, plus the
        // one fragment the first odd push holds while it merges with
        // both neighbours outside the lock.
        let m = m.into_inner().unwrap();
        assert_eq!(m.peak_runs(), n / 2 + 1);
        assert_eq!(m.finish().unwrap(), Some(n as u64));
    }

    #[test]
    fn stream_merger_poison_discards_fragments() {
        let m: Mutex<StreamMerger<u64, &'static str>> = Mutex::new(StreamMerger::new());
        StreamMerger::push_shared(&m, 0, 7, |a, b| Ok(a + b));
        m.lock().unwrap().poison("boom");
        assert!(m.lock().unwrap().is_poisoned());
        StreamMerger::push_shared(&m, 1, 9, |a, b| Ok(a + b)); // dropped
        assert_eq!(m.into_inner().unwrap().finish().unwrap_err(), "boom");
    }

    #[test]
    fn incremental_merge_agrees_with_left_fold_for_associative_ops() {
        for n in 0..24usize {
            let blocks = fixed_blocks(n.max(1) * 10, n.max(1));
            let (result, ..) = run_blocks_on(
                WorkerPool::global(),
                &blocks,
                3,
                None,
                |b| Ok::<_, JobFault>(vec![b.index]),
                |mut a, b| {
                    a.extend(b);
                    Ok(a)
                },
            );
            let merged = result.unwrap().unwrap();
            assert_eq!(merged, (0..blocks_len(n)).collect::<Vec<_>>(), "n={n}");
        }

        fn blocks_len(n: usize) -> usize {
            fixed_blocks(n.max(1) * 10, n.max(1)).len()
        }
    }

    #[test]
    fn indexed_execution_preserves_order() {
        for threads in [1, 3, 7] {
            let out = run_indexed_on(WorkerPool::global(), 20, threads, None, |i| i * i).unwrap();
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn grid_execution_is_outer_major_and_complete() {
        let pool = WorkerPool::global();
        for threads in [1, 2, 7] {
            let grid = run_grid_on(pool, 3, 5, threads, None, |o, i| (o, i, o * 100 + i)).unwrap();
            assert_eq!(grid.len(), 3);
            for (o, row) in grid.iter().enumerate() {
                assert_eq!(row.len(), 5);
                for (i, &(ro, ri, v)) in row.iter().enumerate() {
                    assert_eq!((ro, ri, v), (o, i, o * 100 + i), "threads={threads}");
                }
            }
        }
        assert_eq!(
            run_grid_on(pool, 0, 5, 2, None, |_, _| 0u8).unwrap().len(),
            0
        );
        let empty_inner = run_grid_on(pool, 4, 0, 2, None, |_, _| 0u8).unwrap();
        assert_eq!(empty_inner.len(), 4);
        assert!(empty_inner.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn grid_cancellation_returns_the_fault() {
        let pool = WorkerPool::global();
        let token = CancelToken::new();
        token.cancel();
        let fault = run_grid_on(pool, 3, 5, 2, Some(&token), |_, _| 0u8).unwrap_err();
        assert_eq!(fault, JobFault::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn timings_are_recorded() {
        let blocks = fixed_blocks(1000, 4);
        let (_, t, _) = run_blocks_on(
            WorkerPool::global(),
            &blocks,
            2,
            None,
            |b| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok::<_, JobFault>(b.len())
            },
            |a, b| Ok(a + b),
        );
        assert!(t.process >= std::time::Duration::from_millis(1));
    }
}
