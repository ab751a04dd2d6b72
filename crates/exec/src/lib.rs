//! # jcdn-exec — scatter–gather execution for sharded pipelines
//!
//! The sharded trace pipeline follows one parallelism shape everywhere:
//! split work into independent items (workload client blocks, trace
//! shards, edge partitions), farm the items out to a bounded worker pool,
//! and gather the results back **in item order** so downstream merging is
//! deterministic regardless of worker count or scheduling.
//!
//! [`scatter_gather_labeled`] is that shape, as one worker loop on
//! `std::thread::scope`: each worker claims the next item index from a
//! shared atomic counter until none is left, keeping its `(index,
//! outcome)` pairs, and the results are filed by index once the scope
//! joins, so out-of-order completion never reorders them. The calling
//! thread runs the same loop as worker 0, so a fan-out spawns
//! `min(threads, items) - 1` threads; with `threads <= 1` it spawns none
//! and runs the items in order — callers need no separate serial path.
//!
//! ## Panic isolation
//!
//! Every task runs inside the workspace's one sanctioned unwind boundary
//! (`run_quarantined`): a panicking task costs *that item*, never the
//! pool. A failed item is retried once, sequentially, after the pool
//! drains — transient failures (a poisoned scratch state, an injected
//! fault that fires once) recover with no caller involvement. Items that
//! fail both attempts are **quarantined**:
//!
//! * [`scatter_gather_isolated`] reports them explicitly — the result slot
//!   stays `None` and the index lands in [`Gathered::quarantined`] so the
//!   caller can finish with a partial result and say so.
//! * [`scatter_gather_labeled`] re-raises the first panic payload on the
//!   calling thread if any item is still failing after the retry.
//!
//! Both surface `task_panics` in the filed [`PoolReport`], so a run
//! manifest shows every caught panic even when the retry recovered it.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use jcdn_obs::clock::Stopwatch;
use jcdn_obs::metrics::Histogram;
use jcdn_obs::pool::PoolReport;

/// Outcome of a panic-isolated fan-out ([`scatter_gather_isolated`]).
///
/// `results` is indexed by item; a `None` slot means the item panicked in
/// the pool *and* in the sequential retry, and its index is listed in
/// `quarantined`. Callers that merge partials should skip `None` slots and
/// surface the quarantined shard list to the user — a partial report that
/// says it is partial beats an aborted pipeline.
pub struct Gathered<T> {
    /// Per-item results; `None` marks a quarantined item.
    pub results: Vec<Option<T>>,
    /// Total panics caught, counting a pool failure and its failed retry
    /// separately (so a recovered item contributes 1, a quarantined one 2).
    pub task_panics: u64,
    /// Item indices (sorted) that failed both attempts.
    pub quarantined: Vec<usize>,
}

impl<T> Gathered<T> {
    /// Whether every item produced a result.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// A task's value, or the payload of the panic it raised.
type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// Per-worker tallies, gathered after the scope joins.
struct WorkerStats {
    tasks: u64,
    busy_us: u64,
    latency: Histogram,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            tasks: 0,
            busy_us: 0,
            latency: Histogram::default(),
        }
    }

    /// Runs item `index` inside the unwind boundary and tallies its wall
    /// time against this worker.
    fn run<T, F>(&mut self, label: &'static str, index: usize, f: &F) -> Outcome<T>
    where
        F: Fn(usize) -> T + Sync,
    {
        let task = Stopwatch::start();
        let outcome = run_quarantined(label, index, f);
        let us = task.elapsed_us();
        self.tasks += 1;
        self.busy_us += us;
        self.latency.observe(us);
        outcome
    }
}

/// Internal result of one pool pass plus its retry bookkeeping.
struct PoolRun<T> {
    results: Vec<Option<T>>,
    task_panics: u64,
    quarantined: Vec<usize>,
    first_panic: Option<Box<dyn Any + Send>>,
    worker_stats: Vec<WorkerStats>,
}

impl<T> PoolRun<T> {
    /// Files item `index`'s outcome: a value fills its slot, a panic is
    /// counted and quarantines the index.
    fn settle(&mut self, index: usize, outcome: Outcome<T>) {
        match outcome {
            Ok(value) => self.results[index] = Some(value),
            Err(payload) => {
                self.task_panics += 1;
                self.quarantined.push(index);
                if self.first_panic.is_none() {
                    self.first_panic = Some(payload);
                }
            }
        }
    }
}

/// Runs one task inside the unwind boundary, after giving an installed
/// chaos plan the chance to inject a fault for this `(label, index)`.
///
/// This is the single sanctioned `catch_unwind` site in the workspace
/// (clippy's `disallowed_methods` flags any other): the boundary exists
/// so a panic in one shard's task is converted into a typed per-item
/// failure instead of tearing down the whole pipeline, and every use of
/// it funnels through the quarantine-and-retry policy above.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned unwind boundary: converts a task panic into a per-item failure that the quarantine/retry policy handles"
)]
fn run_quarantined<T, F>(label: &'static str, index: usize, f: &F) -> Outcome<T>
where
    F: Fn(usize) -> T + Sync,
{
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        jcdn_chaos::handle().on_task(label, index);
        f(index)
    }))
}

/// One pass over `0..items` on `min(threads, items)` workers, the calling
/// thread among them, with panics caught per item. Does not file a
/// report — callers do, after folding in any retry.
fn pool_run<T, F>(label: &'static str, items: usize, threads: usize, f: &F) -> PoolRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    // The worker loop: claim the next unclaimed index until none is left.
    // `Relaxed` suffices: `fetch_add` alone hands out each index once, and
    // the outcomes reach this thread through the joins, which synchronize.
    let work = || {
        let mut stats = WorkerStats::new();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                return (done, stats);
            }
            done.push((i, stats.run(label, i, f)));
        }
    };
    let workers = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads.min(items)).map(|_| scope.spawn(work)).collect();
        let mut workers = vec![work()];
        for handle in spawned {
            // Task panics are caught inside run_quarantined, so a worker
            // body cannot unwind; re-raise one that somehow did.
            workers.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        workers
    });

    let mut run = PoolRun {
        results: (0..items).map(|_| None).collect(),
        task_panics: 0,
        quarantined: Vec::new(),
        first_panic: None,
        worker_stats: Vec::with_capacity(workers.len()),
    };
    for (done, stats) in workers {
        for (i, outcome) in done {
            run.settle(i, outcome);
        }
        run.worker_stats.push(stats);
    }
    // Which worker ran an item is scheduling-dependent; sort so the retry
    // pass and the caller-visible quarantine list are deterministic.
    run.quarantined.sort_unstable();
    run
}

/// Retries each quarantined item once, sequentially, on the calling
/// thread. Recovered items fill their result slot; persistent failures
/// stay quarantined. Retry timings are appended as one extra
/// [`WorkerStats`] entry so the filed report covers all work done.
fn retry_quarantined<T, F>(label: &'static str, run: &mut PoolRun<T>, f: &F)
where
    F: Fn(usize) -> T + Sync,
{
    if run.quarantined.is_empty() {
        return;
    }
    let mut stats = WorkerStats::new();
    for i in std::mem::take(&mut run.quarantined) {
        let outcome = stats.run(label, i, f);
        run.settle(i, outcome);
    }
    run.worker_stats.push(stats);
}

/// One fan-out, shared by both panic contracts: the pool pass, the
/// sequential retry of its failed items, and the filed [`PoolReport`].
fn fan_out<T, F>(label: &'static str, items: usize, threads: usize, f: &F) -> PoolRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let wall = Stopwatch::start();
    let mut run = pool_run(label, items, threads, f);
    retry_quarantined(label, &mut run, f);
    if items > 0 {
        file_report(
            label,
            items,
            &run.worker_stats,
            run.task_panics,
            wall.elapsed_us(),
        );
    }
    run
}

/// Runs `f(0..items)` on a pool of `threads` workers and returns the
/// results indexed by item, exactly as `(0..items).map(f).collect()`
/// would. Workers claim items one at a time from a shared counter, so
/// uneven item costs balance across them; the calling thread is one of
/// the workers. For tasks that return `Result`, collect the output into
/// `Result<Vec<_>, _>`: that stops at the lowest-indexed error, as a
/// sequential loop would.
///
/// `label` attributes the fan-out. Every fan-out files a [`PoolReport`]
/// (per-worker task counts, task-latency histogram, caught-panic count)
/// into the `jcdn-obs` pool sink, so a starved worker is visible in the
/// run manifest instead of silent; with
/// `jcdn_obs::pool::set_logging(true)` each fan-out also logs a one-line
/// summary. The report is wall-clock perf data — the *results* stay
/// deterministic for any thread count.
///
/// Panic contract: a panicking item is retried once sequentially; if it
/// panics both times, the first captured payload is re-raised here after
/// the report is filed. Use [`scatter_gather_isolated`] to receive the
/// partial result instead.
#[expect(
    clippy::expect_used,
    reason = "quarantined is empty after the re-raise, so every slot was filled by the pool or the retry"
)]
pub fn scatter_gather_labeled<T, F>(
    label: &'static str,
    items: usize,
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = fan_out(label, items, threads, &f);
    if !run.quarantined.is_empty() {
        if let Some(payload) = run.first_panic {
            std::panic::resume_unwind(payload);
        }
    }
    run.results
        .into_iter()
        .map(|slot| slot.expect("every item produced a result"))
        .collect()
}

/// Panic-isolated fan-out: like [`scatter_gather_labeled`] but instead of
/// re-raising a persistent panic it returns the partial result, with the
/// failing items quarantined (see [`Gathered`]). The filed [`PoolReport`]
/// carries the caught-panic count either way.
pub fn scatter_gather_isolated<T, F>(
    label: &'static str,
    items: usize,
    threads: usize,
    f: F,
) -> Gathered<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = fan_out(label, items, threads, &f);
    Gathered {
        results: run.results,
        task_panics: run.task_panics,
        quarantined: run.quarantined,
    }
}

/// Assembles and files the [`PoolReport`] for one fan-out.
fn file_report(
    label: &str,
    items: usize,
    worker_stats: &[WorkerStats],
    task_panics: u64,
    wall_us: u64,
) {
    let mut report = PoolReport {
        label: label.to_string(),
        items: items as u64,
        workers: worker_stats.len() as u64,
        worker_tasks: Vec::with_capacity(worker_stats.len()),
        busy_us: 0,
        wall_us,
        task_panics,
        task_latency_us: Histogram::default(),
    };
    for stats in worker_stats {
        report.worker_tasks.push(stats.tasks);
        report.busy_us += stats.busy_us;
        report.task_latency_us.merge(&stats.latency);
    }
    jcdn_obs::pool::record(report);
}

/// Splits `len` items into at most `parts` contiguous index ranges of
/// near-equal size (the first `len % parts` ranges get one extra item).
/// Empty ranges are never returned, so fewer than `parts` ranges come back
/// when `len < parts`.
pub fn partition(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Merges runs that are each sorted ascending into one sorted vector of
/// exactly their total length — the gather step for fan-outs whose items
/// return sorted partials, in place of concatenating and sorting again.
/// Equal elements leave in run order, so the merge is stable.
pub fn merge_sorted<T: Ord + Copy>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    // `next[r]` indexes run `r`'s head. The heap holds the indices of the
    // runs not yet drained, least (head, run) first: only indices move,
    // and the run index breaks ties.
    let mut next = vec![0usize; runs.len()];
    let head = |run: usize, next: &[usize]| (runs[run][next[run]], run);
    let sift_down = |heap: &mut [usize], next: &[usize], mut i: usize| loop {
        let mut least = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if child < heap.len() && head(heap[child], next) < head(heap[least], next) {
                least = child;
            }
        }
        if least == i {
            return;
        }
        heap.swap(i, least);
        i = least;
    };
    let mut heap: Vec<usize> = (0..runs.len()).filter(|&r| !runs[r].is_empty()).collect();
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, &next, i);
    }
    while heap.len() > 1 {
        let run = heap[0];
        out.push(runs[run][next[run]]);
        next[run] += 1;
        if next[run] == runs[run].len() {
            heap.swap_remove(0);
        }
        sift_down(&mut heap, &next, 0);
    }
    // The last run standing needs no more comparisons.
    if let Some(&run) = heap.first() {
        out.extend_from_slice(&runs[run][next[run]..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_map_for_any_thread_count() {
        let expected: Vec<u64> = (0..37).map(|i| (i as u64) * (i as u64)).collect();
        for threads in [0, 1, 2, 4, 16] {
            let got =
                scatter_gather_labeled("exec.test.map", 37, threads, |i| (i as u64) * (i as u64));
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn borrows_environment() {
        let data: Vec<u64> = (0..100).collect();
        let sums = scatter_gather_labeled("exec.test.borrow", 4, 2, |i| {
            data[i * 25..(i + 1) * 25].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<u8> =
            scatter_gather_labeled("exec.test.empty", 0, 4, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_item_costs_still_return_in_order() {
        let got = scatter_gather_labeled("exec.test.uneven", 16, 4, |i| {
            // Early items sleep longest, so completion order inverts
            // submission order if the pool doesn't re-index results.
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn partition_covers_exactly_once() {
        for (len, parts) in [(10, 3), (3, 10), (0, 4), (8, 1), (100, 7)] {
            let ranges = partition(len, parts);
            let mut covered = 0;
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous");
                assert!(!r.is_empty(), "no empty ranges");
                covered += r.len();
                next = r.end;
            }
            assert_eq!(covered, len, "len={len} parts={parts}");
            assert!(ranges.len() <= parts.max(1));
        }
        // Near-equal sizes: 10 into 3 → 4,3,3.
        let sizes: Vec<usize> = partition(10, 3).iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    proptest! {
        // Small values over few runs: empty runs, a single run, no runs
        // and duplicates across runs all come up.
        #[test]
        fn merge_sorted_matches_a_full_sort(
            runs in prop::collection::vec(prop::collection::vec(0u8..16, 0..40), 0..6),
        ) {
            let runs: Vec<Vec<u8>> = runs
                .into_iter()
                .map(|mut run| {
                    run.sort_unstable();
                    run
                })
                .collect();
            let mut expected: Vec<u8> = runs.concat();
            expected.sort_unstable();
            let merged = merge_sorted(runs);
            prop_assert_eq!(merged.capacity(), merged.len());
            prop_assert_eq!(merged, expected);
        }
    }

    #[test]
    fn merge_sorted_keeps_run_order_among_equals() {
        /// Ordered by `key` alone, so equal elements can still differ.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        struct Tagged {
            key: u8,
            run: u8,
        }
        impl PartialOrd for Tagged {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Tagged {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.key.cmp(&other.key)
            }
        }
        let runs: Vec<Vec<Tagged>> = (0..3)
            .map(|run| (0..4).map(|key| Tagged { key, run }).collect())
            .collect();
        let merged: Vec<(u8, u8)> = merge_sorted(runs)
            .into_iter()
            .map(|t| (t.key, t.run))
            .collect();
        let expected: Vec<(u8, u8)> = (0..4)
            .flat_map(|key| (0..3).map(move |run| (key, run)))
            .collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn fan_out_files_a_pool_report() {
        // The sink is process-global; filter to this test's unique label
        // rather than assuming an empty sink.
        let _ = scatter_gather_labeled("exec.test.report", 16, 4, |i| i);
        let (reports, _) = jcdn_obs::pool::drain();
        let report = reports
            .iter()
            .find(|r| r.label == "exec.test.report")
            .expect("fan-out filed a report");
        assert_eq!(report.items, 16);
        assert_eq!(report.workers, 4);
        assert_eq!(report.worker_tasks.iter().sum::<u64>(), 16);
        assert_eq!(report.task_latency_us.count(), 16);
        assert_eq!(report.task_panics, 0);
    }

    #[test]
    fn sequential_path_files_a_report_too() {
        let _ = scatter_gather_labeled("exec.test.seq", 5, 1, |i| i * 2);
        let (reports, _) = jcdn_obs::pool::drain();
        let report = reports
            .iter()
            .find(|r| r.label == "exec.test.seq")
            .expect("sequential fan-out filed a report");
        assert_eq!(report.workers, 1);
        assert_eq!(report.worker_tasks, vec![5]);
    }

    #[test]
    fn threads_beyond_items_run_one_worker_per_item() {
        let _ = scatter_gather_labeled("exec.test.wide", 3, 16, |i| i);
        let (reports, _) = jcdn_obs::pool::drain();
        let report = reports
            .iter()
            .find(|r| r.label == "exec.test.wide")
            .expect("fan-out filed a report");
        assert_eq!(report.workers, 3);
        assert_eq!(report.worker_tasks.iter().sum::<u64>(), 3);
        assert_eq!(report.task_latency_us.count(), 3);
    }

    #[test]
    fn collected_results_report_the_lowest_indexed_error() {
        for threads in [1, 4] {
            let got: Result<Vec<usize>, usize> =
                scatter_gather_labeled("exec.test.collect", 12, threads, |i| {
                    if i == 7 || i == 3 || i == 11 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                })
                .into_iter()
                .collect();
            assert_eq!(got.unwrap_err(), 3, "{threads} threads");
        }
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        scatter_gather_labeled("exec.test.panic", 8, 2, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn transient_panic_recovers_via_retry() {
        // Panics the first time item 3 runs, succeeds on the retry — the
        // caller sees a complete, ordered result and a panic count of 1.
        let failures = AtomicUsize::new(0);
        let got = scatter_gather_labeled("exec.test.retry", 8, 4, |i| {
            if i == 3 && failures.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            i * 10
        });
        assert_eq!(got, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        let (reports, _) = jcdn_obs::pool::drain();
        let report = reports
            .iter()
            .find(|r| r.label == "exec.test.retry")
            .expect("fan-out filed a report");
        assert_eq!(report.task_panics, 1);
        // The retry pass contributes one extra stats entry.
        assert_eq!(report.workers, 5);
        assert_eq!(report.worker_tasks.iter().sum::<u64>(), 9);
    }

    #[test]
    fn isolated_quarantines_persistent_failures() {
        let gathered = scatter_gather_isolated("exec.test.isolated", 6, 3, |i| {
            if i == 2 || i == 4 {
                panic!("always fails");
            }
            i as u64
        });
        assert!(!gathered.is_complete());
        assert_eq!(gathered.quarantined, vec![2, 4]);
        // Each quarantined item panicked in the pool and in the retry.
        assert_eq!(gathered.task_panics, 4);
        let values: Vec<Option<u64>> = gathered.results;
        assert_eq!(values.len(), 6);
        assert!(values[2].is_none() && values[4].is_none());
        assert_eq!(values[0], Some(0));
        assert_eq!(values[5], Some(5));
    }

    #[test]
    fn isolated_sequential_path_also_quarantines() {
        let gathered = scatter_gather_isolated("exec.test.isolated.seq", 4, 1, |i| {
            if i == 1 {
                panic!("always fails");
            }
            i
        });
        assert_eq!(gathered.quarantined, vec![1]);
        assert_eq!(gathered.results[0], Some(0));
        assert_eq!(gathered.results[3], Some(3));
    }
}
