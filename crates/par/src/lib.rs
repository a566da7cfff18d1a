//! # dkc-par — the deterministic scoped parallel executor
//!
//! Every parallel hot path in the workspace (k-clique counting and listing,
//! node scores, the L/LP solver's `HeapInit`, clique-graph conflict
//! construction) distributes *root ranges* over a fixed pool of scoped
//! worker threads. This crate owns that pattern once, instead of each call
//! site hand-rolling a `std::thread::scope` + atomic-chunk work loop:
//!
//! * [`ParConfig`] — thread count plus chunk granularity; honours the
//!   `DKC_THREADS` environment variable so whole test/bench runs can be
//!   pinned to a thread budget without touching code.
//! * [`par_reduce`] — fold chunks into per-worker accumulators, then merge.
//! * [`par_collect`] / [`par_for_each_root`] — gather per-chunk output
//!   vectors and concatenate them **in ascending chunk order**, so the
//!   result is exactly the sequential iteration order.
//! * [`par_try_collect`] — fallible variant with cooperative early abort,
//!   used for budgeted ("emulated OOM") construction.
//! * [`join`] — run two closures concurrently and return both results.
//! * [`SharedBudget`] — a monotone atomic charge counter shared across
//!   workers, packaging the monotone abort criterion [`par_try_collect`]
//!   requires (budgeted listing, clique-graph edge budgets).
//!
//! ## Determinism contract
//!
//! All entry points guarantee **bit-identical results for any thread
//! count** (including the inline sequential path used for tiny inputs):
//!
//! * [`par_collect`]-family output order never depends on scheduling — the
//!   chunk index, not the worker, decides placement.
//! * [`par_reduce`] merges worker accumulators in worker order, but workers
//!   steal chunks dynamically, so the caller's `merge` must be commutative
//!   and associative over its `fold` outputs (integer sums and element-wise
//!   `u64` additions — every use in this workspace — qualify; float
//!   additions do not).
//! * [`par_try_collect`] returns `Err` deterministically as long as the
//!   caller's abort criterion is monotone in the set of processed items
//!   (e.g. "a shared running total exceeded a budget") and every failing
//!   item reports the same error value.
//!
//! Worker panics are propagated to the caller with their original payload
//! (no wrapping). A panicking worker sets the shared stop flag, so sibling
//! workers stop claiming chunks promptly (in-flight chunks finish) instead
//! of draining the remaining input before the scope join re-raises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Default number of roots handed to a worker per grab.
pub const DEFAULT_CHUNK: usize = 256;

/// Environment variable overriding [`default_threads`].
pub const THREADS_ENV: &str = "DKC_THREADS";

/// The process-wide default worker count: `DKC_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// A `DKC_THREADS` value that is zero or unparsable is ignored (falls back
/// to the available parallelism) — use `DKC_THREADS=1` for sequential
/// runs, as the CI determinism matrix does.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Execution configuration for the scoped executor.
///
/// `threads` is the maximum worker count; `chunk` is the number of
/// consecutive roots a worker claims per atomic grab. Inputs smaller than
/// four chunks of work run inline on the caller thread (see
/// [`ParConfig::effective_threads`]) — results are identical either way,
/// per the crate-level determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Maximum number of worker threads (clamped to >= 1).
    pub threads: usize,
    /// Roots per work-stealing grab (clamped to >= 1). Smaller chunks
    /// balance skewed per-root costs at the price of more atomic traffic.
    pub chunk: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig { threads: default_threads(), chunk: DEFAULT_CHUNK }
    }
}

impl ParConfig {
    /// Configuration with an explicit thread count and the default chunk.
    pub fn new(threads: usize) -> Self {
        ParConfig { threads: threads.max(1), chunk: DEFAULT_CHUNK }
    }

    /// Fully sequential configuration (always runs inline).
    pub fn sequential() -> Self {
        ParConfig::new(1)
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Number of workers actually spawned for an input of `n` roots: never
    /// more than one per chunk, and 1 (inline, no spawns) below four chunks
    /// of work — at that size thread spawn/join costs more than the work
    /// itself. With the default chunk this reproduces the pre-executor
    /// `n < 1024` sequential cutoff; tests shrink `chunk` to force fan-out
    /// on small inputs.
    pub fn effective_threads(&self, n: usize) -> usize {
        let chunk = self.chunk.max(1);
        if self.threads <= 1 || n < chunk.saturating_mul(4) {
            return 1;
        }
        self.threads.clamp(1, n.div_ceil(chunk))
    }

    fn chunk_ranges(&self, n: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let chunk = self.chunk.max(1);
        (0..n.div_ceil(chunk)).map(move |c| c * chunk..((c + 1) * chunk).min(n))
    }
}

/// Sets the shared stop flag when its worker unwinds, so sibling workers
/// stop claiming chunks instead of draining the remaining input while the
/// panic waits for the scope join.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Spawns `threads` scoped workers and joins them, re-raising the first
/// worker panic with its original payload.
fn run_workers<R, W>(threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let worker = &worker;
                scope.spawn(move || worker(w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Runs `a` and `b` concurrently and returns both results, `a`'s first.
///
/// `a` runs on one scoped worker and `b` on the caller thread; with
/// `par.threads <= 1` both run inline, `a` first. A panic in either half
/// is re-raised with its original payload once the other half is done.
pub fn join<A, B, RA, RB>(par: ParConfig, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if par.threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(a);
        let rb = b();
        match handle.join() {
            Ok(ra) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Parallel fold over the roots `0..n`.
///
/// Each worker builds one `scratch()` (reusable recursion state — buffers
/// grow once and are reused across every chunk the worker processes) and
/// one `acc()` accumulator, then folds dynamically-claimed chunk ranges
/// into it via `fold`. Worker accumulators are merged into a fresh `acc()`
/// on the caller thread.
///
/// Deterministic for any thread count **iff** `merge` is commutative and
/// associative over the values `fold` produces (see the crate docs).
pub fn par_reduce<S, A, FS, FA, FF, FM>(
    par: ParConfig,
    n: usize,
    scratch: FS,
    acc: FA,
    fold: FF,
    mut merge: FM,
) -> A
where
    S: Send,
    A: Send,
    FS: Fn() -> S + Sync,
    FA: Fn() -> A + Sync,
    FF: Fn(&mut S, &mut A, Range<usize>) + Sync,
    FM: FnMut(&mut A, A),
{
    let threads = par.effective_threads(n);
    if threads == 1 {
        let mut s = scratch();
        let mut a = acc();
        // Same chunk granularity as the parallel path, so folds that do
        // per-range work still satisfy the bit-identical contract.
        for range in par.chunk_ranges(n) {
            fold(&mut s, &mut a, range);
        }
        return a;
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let chunk = par.chunk.max(1);
    let locals = run_workers(threads, |_| {
        let _guard = StopOnPanic(&stop);
        let mut s = scratch();
        let mut a = acc();
        while !stop.load(Ordering::Relaxed) {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            fold(&mut s, &mut a, start..(start + chunk).min(n));
        }
        a
    });
    let mut merged = acc();
    for local in locals {
        merge(&mut merged, local);
    }
    merged
}

/// Parallel collection over the roots `0..n` with sequential output order.
///
/// Each chunk range appends into its own output segment; segments are
/// concatenated in ascending chunk order, so the result is exactly what a
/// sequential loop over `0..n` would have produced, for any thread count.
pub fn par_collect<S, R, FS, FF>(par: ParConfig, n: usize, scratch: FS, fold: FF) -> Vec<R>
where
    S: Send,
    R: Send,
    FS: Fn() -> S + Sync,
    FF: Fn(&mut S, Range<usize>, &mut Vec<R>) + Sync,
{
    enum Never {}
    let result: Result<Vec<R>, Never> = par_try_collect(par, n, scratch, |s, range, out| {
        fold(s, range, out);
        Ok(())
    });
    match result {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Fallible [`par_collect`]: the first chunk-level `Err` aborts the run.
///
/// A failing chunk sets a shared stop flag, so workers stop claiming new
/// chunks (chunks already in flight finish). The `Err`/`Ok` *decision* is
/// deterministic when the caller's failure criterion is monotone in the set
/// of processed items — a shared running total compared against a budget,
/// as in clique-graph construction, qualifies: if the full input stays
/// under budget no schedule fails, and if it exceeds the budget every
/// schedule eventually crosses the threshold. Every failing item must
/// report the same error value.
pub fn par_try_collect<S, R, E, FS, FF>(
    par: ParConfig,
    n: usize,
    scratch: FS,
    fold: FF,
) -> Result<Vec<R>, E>
where
    S: Send,
    R: Send,
    E: Send,
    FS: Fn() -> S + Sync,
    FF: Fn(&mut S, Range<usize>, &mut Vec<R>) -> Result<(), E> + Sync,
{
    let threads = par.effective_threads(n);
    if threads == 1 {
        let mut s = scratch();
        let mut out = Vec::new();
        for range in par.chunk_ranges(n) {
            fold(&mut s, range, &mut out)?;
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let chunk = par.chunk.max(1);
    // Each worker returns (per-chunk segments keyed by chunk index, first
    // error it hit). Segment placement depends only on the chunk index.
    type Segments<R> = Vec<(usize, Vec<R>)>;
    let locals: Vec<(Segments<R>, Option<E>)> = run_workers(threads, |_| {
        let _guard = StopOnPanic(&stop);
        let mut s = scratch();
        let mut segments: Segments<R> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let mut seg = Vec::new();
            if let Err(e) = fold(&mut s, start..(start + chunk).min(n), &mut seg) {
                stop.store(true, Ordering::Relaxed);
                return (segments, Some(e));
            }
            segments.push((start / chunk, seg));
        }
        (segments, None)
    });
    let mut all: Segments<R> = Vec::new();
    let mut first_err = None;
    for (segments, err) in locals {
        all.extend(segments);
        if first_err.is_none() {
            first_err = err;
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    all.sort_unstable_by_key(|(c, _)| *c);
    let mut out = Vec::with_capacity(all.iter().map(|(_, s)| s.len()).sum());
    for (_, mut seg) in all {
        out.append(&mut seg);
    }
    Ok(out)
}

/// A monotone shared budget for cooperative early abort across workers.
///
/// Workers call [`SharedBudget::charge`] for every unit of output they are
/// about to produce; the first charge that pushes the running total past the
/// limit returns `false` and the caller aborts its chunk (typically by
/// returning `Err` from a [`par_try_collect`] fold). This is the Rossi-style
/// shared bound specialised to budgeted enumeration: the counter only ever
/// grows, so "total exceeded the limit" is a monotone criterion in the set
/// of processed items and the [`par_try_collect`] contract applies directly.
///
/// **Determinism argument**: the total number of items the full input
/// produces is a property of the input, not of the schedule. If it is
/// `<= limit`, no schedule ever sees `charge` fail and every schedule
/// returns the complete, chunk-ordered output. If it is `> limit`, every
/// schedule eventually crosses the limit — the *moment* differs per run,
/// but the early abort only skips work whose output is discarded, because
/// the run returns `Err` regardless. Callers must report the same error
/// value from every failing chunk.
#[derive(Debug)]
pub struct SharedBudget {
    limit: usize,
    used: AtomicUsize,
}

impl SharedBudget {
    /// Creates a budget allowing at most `limit` charged units in total.
    pub fn new(limit: usize) -> Self {
        SharedBudget { limit, used: AtomicUsize::new(0) }
    }

    /// Reserves `amount` units. Returns `true` when the reservation fits,
    /// `false` once the cumulative total would exceed the limit. The counter
    /// is monotone: a failed charge still counts, so later charges keep
    /// failing (`exhausted` stays `true`).
    #[inline]
    pub fn charge(&self, amount: usize) -> bool {
        let prev = self.used.fetch_add(amount, Ordering::Relaxed);
        prev.saturating_add(amount) <= self.limit
    }

    /// Whether any charge has failed (the limit was crossed).
    pub fn exhausted(&self) -> bool {
        self.used.load(Ordering::Relaxed) > self.limit
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// Per-root convenience over [`par_collect`]: `body` is invoked once per
/// root in `0..n` with the worker's scratch and the chunk's output buffer.
/// Output order equals the sequential root order for any thread count.
pub fn par_for_each_root<S, R, FS, FB>(par: ParConfig, n: usize, scratch: FS, body: FB) -> Vec<R>
where
    S: Send,
    R: Send,
    FS: Fn() -> S + Sync,
    FB: Fn(&mut S, usize, &mut Vec<R>) + Sync,
{
    par_collect(par, n, scratch, |s, range, out| {
        for u in range {
            body(s, u, out);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn configs() -> Vec<ParConfig> {
        vec![
            ParConfig::sequential(),
            ParConfig::new(2).with_chunk(1),
            ParConfig::new(4).with_chunk(3),
            ParConfig::new(8).with_chunk(16),
            ParConfig::default(),
        ]
    }

    #[test]
    fn reduce_sums_are_identical_across_configs() {
        let expect: u64 = (0..10_000u64).map(|i| i * i).sum();
        for par in configs() {
            let got = par_reduce(
                par,
                10_000,
                || (),
                || 0u64,
                |_, acc, range| {
                    for i in range {
                        *acc += (i as u64) * (i as u64);
                    }
                },
                |a, b| *a += b,
            );
            assert_eq!(got, expect, "{par:?}");
        }
    }

    #[test]
    fn reduce_elementwise_vectors_merge_exactly() {
        let n = 4096usize;
        for par in configs() {
            let got = par_reduce(
                par,
                n,
                || (),
                || vec![0u64; 8],
                |_, acc, range| {
                    for i in range {
                        acc[i % 8] += i as u64;
                    }
                },
                |a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                },
            );
            let mut expect = vec![0u64; 8];
            for i in 0..n {
                expect[i % 8] += i as u64;
            }
            assert_eq!(got, expect, "{par:?}");
        }
    }

    #[test]
    fn collect_preserves_sequential_order() {
        for par in configs() {
            let got = par_for_each_root(
                par,
                5000,
                || 0usize, // scratch: per-worker call counter (reused)
                |calls, u, out| {
                    *calls += 1;
                    if u % 3 == 0 {
                        out.push(u * 2);
                    }
                },
            );
            let expect: Vec<usize> = (0..5000).filter(|u| u % 3 == 0).map(|u| u * 2).collect();
            assert_eq!(got, expect, "{par:?}");
        }
    }

    #[test]
    fn scratch_is_created_once_per_worker() {
        let created = AtomicUsize::new(0);
        let par = ParConfig::new(3).with_chunk(10);
        let out = par_collect(
            par,
            1000,
            || {
                created.fetch_add(1, Ordering::Relaxed);
            },
            |_, range, out: &mut Vec<usize>| out.extend(range),
        );
        assert_eq!(out.len(), 1000);
        assert!(created.load(Ordering::Relaxed) <= 3, "scratch must be per-worker, not per-chunk");
    }

    #[test]
    fn try_collect_budget_abort_is_deterministic() {
        // Monotone criterion: running total of processed roots > budget.
        for par in configs() {
            for (n, budget) in [(100usize, 1000usize), (100, 99), (2048, 500), (64, 64)] {
                let total = AtomicUsize::new(0);
                let got = par_try_collect(
                    par,
                    n,
                    || (),
                    |_, range, out: &mut Vec<usize>| {
                        let add = range.len();
                        let t = total.fetch_add(add, Ordering::Relaxed) + add;
                        if t > budget {
                            return Err("over budget");
                        }
                        out.extend(range);
                        Ok(())
                    },
                );
                if n > budget {
                    assert!(got.is_err(), "{par:?} n={n} budget={budget}");
                } else {
                    assert_eq!(got.unwrap(), (0..n).collect::<Vec<_>>(), "{par:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn empty_input_yields_identity() {
        for par in configs() {
            let sum =
                par_reduce(par, 0, || (), || 7u64, |_, _, _| unreachable!(), |_, _| unreachable!());
            assert_eq!(sum, 7);
            let v: Vec<u32> = par_collect(par, 0, || (), |_, _, _| unreachable!());
            assert!(v.is_empty());
        }
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let par = ParConfig::new(4).with_chunk(8);
        let result = std::panic::catch_unwind(|| {
            par_reduce(
                par,
                1000,
                || (),
                || 0u64,
                |_, _, range| {
                    if range.contains(&777) {
                        panic!("root 777 exploded");
                    }
                },
                |a, b| *a += b,
            )
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("root 777 exploded"), "payload preserved, got {msg:?}");
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for threads in [1, 2] {
            let par = ParConfig::new(threads);
            let ran = std::sync::Mutex::new(Vec::new());
            let (a, b) = join(
                par,
                || {
                    ran.lock().unwrap().push('a');
                    (0..100u64).sum::<u64>()
                },
                || {
                    ran.lock().unwrap().push('b');
                    "second"
                },
            );
            assert_eq!((a, b), (4950, "second"), "threads={threads}");
            let ran = ran.into_inner().unwrap();
            assert_eq!(ran.len(), 2, "both halves run once");
            if threads == 1 {
                assert_eq!(ran, ['a', 'b'], "inline: `a` runs first");
            }
        }
    }

    #[test]
    fn join_propagates_a_panic_from_either_half() {
        for threads in [1, 2] {
            let par = ParConfig::new(threads);
            let from_a = std::panic::catch_unwind(|| join(par, || panic!("left half"), || 1));
            let payload = from_a.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>().copied(), Some("left half"), "{threads}");
            let from_b = std::panic::catch_unwind(|| join(par, || 1, || panic!("right half")));
            let payload = from_b.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>().copied(), Some("right half"), "{threads}");
        }
    }

    #[test]
    fn effective_threads_is_bounded_by_chunks_with_inline_cutoff() {
        let par = ParConfig::new(8).with_chunk(100);
        assert_eq!(par.effective_threads(0), 1);
        assert_eq!(par.effective_threads(50), 1);
        // Below four chunks of work: run inline, don't pay spawn/join.
        assert_eq!(par.effective_threads(399), 1);
        assert_eq!(par.effective_threads(400), 4);
        assert_eq!(par.effective_threads(10_000), 8);
        assert_eq!(ParConfig::sequential().effective_threads(10_000), 1);
    }

    #[test]
    fn shared_budget_is_monotone() {
        let b = SharedBudget::new(10);
        assert_eq!(b.limit(), 10);
        assert!(b.charge(4));
        assert!(b.charge(6)); // exactly at the limit still fits
        assert!(!b.exhausted());
        assert!(!b.charge(1));
        assert!(b.exhausted());
        // Once crossed, every later charge fails — even a zero-size one.
        assert!(!b.charge(0));
        assert!(!b.charge(5));
    }

    #[test]
    fn shared_budget_zero_limit_rejects_first_unit() {
        let b = SharedBudget::new(0);
        assert!(b.charge(0), "charging nothing against a zero budget is fine");
        assert!(!b.charge(1));
        assert!(b.exhausted());
    }

    #[test]
    fn shared_budget_err_decision_matches_sequential_for_any_schedule() {
        // The Err/Ok decision of a budgeted par_try_collect must depend only
        // on the input's total output count, not the schedule.
        for par in configs() {
            for (n, limit) in [(100usize, 1000usize), (100, 99), (100, 100), (2048, 500)] {
                let budget = SharedBudget::new(limit);
                let got = par_try_collect(
                    par,
                    n,
                    || (),
                    |_, range, out: &mut Vec<usize>| {
                        for u in range {
                            if !budget.charge(1) {
                                return Err(limit);
                            }
                            out.push(u);
                        }
                        Ok(())
                    },
                );
                if n > limit {
                    assert_eq!(got.unwrap_err(), limit, "{par:?} n={n} limit={limit}");
                } else {
                    assert_eq!(got.unwrap(), (0..n).collect::<Vec<_>>(), "{par:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn config_builders_clamp() {
        let p = ParConfig::new(0).with_chunk(0);
        assert_eq!(p.threads, 1);
        assert_eq!(p.chunk, 1);
        assert_eq!(ParConfig::sequential().threads, 1);
        assert!(default_threads() >= 1);
    }
}
