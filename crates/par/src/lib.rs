//! Deterministic data parallelism for the workspace's sweep loops.
//!
//! Every parallel hot loop in this workspace — MDS restarts, log-synthesis
//! fan-out, the Table 3 Hurst sweep, the section-8 subset search — is a map
//! over items whose results are **pure functions of the item** (any
//! randomness derives its seed from the item index, never from the worker).
//! That invariant makes parallelism trivial to reason about: this crate runs
//! such maps on a scoped pool of `std::thread`s, returns the results in
//! input order, and is therefore **bit-identical to the sequential path for
//! any thread count**. Threads change wall time, nothing else.
//!
//! The pool is work-stealing in the simplest possible sense: workers claim
//! item indices from a shared atomic counter, so a slow item (one workload
//! synthesizes slower, one MDS start converges later) never idles the other
//! workers the way fixed chunking would. Claim order varies run to run;
//! results cannot, because each index is computed exactly once and each
//! worker hands its `(index, result)` pairs back through the join, where
//! they are put in index order.
//!
//! There is deliberately no registry dependency (the build environment has
//! no crates.io access — see `vendor/README.md`), no global pool, and no
//! channel machinery: a [`par_map`] call spawns at most `threads - 1`
//! workers inside a [`std::thread::scope`], the calling thread works too,
//! and everything joins before the call returns.
//!
//! When the `wl-obs` registry is armed (`--trace`/`--metrics-out`), each
//! call records pool metrics — jobs, items, tasks claimed per worker, and
//! workers that claimed nothing — from per-worker tallies folded in after
//! the join, so instrumentation adds no cross-thread traffic to the claim
//! loop and cannot perturb the determinism contract (results never depend
//! on claim order to begin with).
//!
//! # Choosing a thread count
//!
//! CLI layers resolve the knob in one place: `--threads N` if given, else
//! the `WL_THREADS` environment variable, else the machine's available
//! parallelism — exactly what [`default_threads`] returns.
//!
//! # Determinism contract
//!
//! `f` must be a pure function of its input (index or item). In particular,
//! per-item RNG streams must be seeded by deriving from the item index
//! (e.g. `wl_stats::rng::derive_seed(base, index)`), never by sharing a
//! generator across items or seeding per worker. Under that contract:
//!
//! * results are returned in input order;
//! * every item is evaluated exactly once;
//! * the output is byte-identical for every `threads >= 1`.

use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(unix)]
#[allow(unsafe_code)] // the poll(2) FFI call; the only `unsafe` in the workspace
pub mod poll;
#[cfg(unix)]
pub use poll::{waker, PollSet, Readiness, WakeReceiver, Waker};

/// The workspace-wide default thread count: `WL_THREADS` when set to a
/// positive integer, else [`std::thread::available_parallelism`], else 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("WL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `0..n` on up to `threads` workers, returning results in
/// index order.
///
/// Bit-identical to `(0..n).map(f).collect()` when `f` is pure (see the
/// crate-level determinism contract). `threads <= 1`, `n <= 1`, or a
/// single-worker clamp all take the plain sequential path on the calling
/// thread.
pub fn par_map_indexed<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        let _span = wl_obs::span!("par.map.seq");
        wl_obs::counter!("par.seq_items", n as u64);
        return (0..n).map(f).collect();
    }

    let _span = wl_obs::span!("par.map");
    wl_obs::counter!("par.jobs", 1u64);
    wl_obs::counter!("par.items", n as u64);
    wl_obs::hist_record!("par.workers_per_job", workers as u64);

    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);

    let mut parts: Vec<Vec<(usize, U)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        // The calling thread is worker 0; spawn the other workers.
        let handles: Vec<_> = (1..workers)
            .map(|_| scope.spawn(move || worker_loop(next, n, f)))
            .collect();
        parts.push(worker_loop(next, n, f));
        // Re-raise a worker panic with its original payload (plain scope
        // exit would replace it with "a scoped thread panicked").
        for handle in handles {
            match handle.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    if wl_obs::enabled() {
        for part in &parts {
            wl_obs::hist_record!("par.tasks_per_worker", part.len() as u64);
            if part.is_empty() {
                wl_obs::counter!("par.idle_workers", 1u64);
            }
        }
    }

    // Every index in 0..n was claimed exactly once: put each result back
    // at its index.
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, result) in parts.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed and computed"))
        .collect()
}

/// Claim indices from the shared counter until they run out; returns the
/// `(index, result)` pairs this worker computed, in claim order.
fn worker_loop<U, F>(next: &AtomicUsize, n: usize, f: &F) -> Vec<(usize, U)>
where
    F: Fn(usize) -> U,
{
    let mut part = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return part;
        }
        part.push((i, f(i)));
    }
}

/// Map `f` over a slice on up to `threads` workers, preserving input order.
///
/// Bit-identical to `items.iter().map(f).collect()` when `f` is pure.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// SplitMix64 finalizer: a cheap pure per-index "workload".
    fn mix(i: usize) -> u64 {
        let mut z = (i as u64).wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let seq: Vec<u64> = (0..257).map(mix).collect();
        for threads in [1usize, 2, 3, 4, 8, 64] {
            let par = par_map_indexed(threads, 257, mix);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_preserves_order_over_slices() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let seq: Vec<f64> = items.iter().map(|x| x.sin() * x.cos()).collect();
        for threads in [1usize, 3, 8] {
            let par = par_map(threads, &items, |x| x.sin() * x.cos());
            // Bit-identity, not approximate equality.
            let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(par_bits, seq_bits, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_evaluated_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map_indexed(4, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map_indexed(16, 3, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(par_map_indexed(16, 1, |i| i), vec![0]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = par_map_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        let out: Vec<usize> = par_map(4, &[], |&x: &usize| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        assert_eq!(par_map_indexed(0, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn uneven_item_costs_still_ordered() {
        // Early items sleep, late items are instant: with fixed chunking
        // the result would still be ordered, but this exercises stealing.
        let out = par_map_indexed(4, 32, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "item 7 exploded")]
    fn worker_panics_propagate() {
        par_map_indexed(4, 16, |i| {
            if i == 7 {
                panic!("item 7 exploded");
            }
            i
        });
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_metrics_record_all_items() {
        wl_obs::set_enabled(true);
        let before_items = wl_obs::registry().snapshot().counter("par.items");
        let before_hist = wl_obs::registry()
            .snapshot()
            .histogram("par.tasks_per_worker")
            .map_or(0, |h| h.sum);
        par_map_indexed(4, 123, mix);
        let snap = wl_obs::registry().snapshot();
        // Delta assertions: the registry is global and other tests run
        // concurrently, so check monotone growth by at least our job.
        assert!(snap.counter("par.items") >= before_items + 123);
        let per_worker = snap.histogram("par.tasks_per_worker").unwrap();
        assert!(
            per_worker.sum >= before_hist + 123,
            "claims across workers must cover every item"
        );
    }

    #[test]
    fn panicking_task_leaves_span_stack_balanced() {
        wl_obs::set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            let _outer = wl_obs::span!("par.test.outer");
            par_map_indexed(4, 16, |i| {
                if i == 9 {
                    panic!("task 9 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
        // Every recorded enter for the pool spans has a matching exit, and
        // the unwound ones are flagged. Pool spans open on the calling
        // thread, so filtering by it excludes concurrently running tests.
        let me = wl_obs::current_thread_id();
        let events: Vec<_> = wl_obs::events_snapshot()
            .into_iter()
            .filter(|e| e.thread == me)
            .collect();
        for name in ["par.test.outer", "par.map"] {
            let enters = events
                .iter()
                .filter(|e| e.name == name && e.kind == wl_obs::SpanEventKind::Enter)
                .count();
            let exits = events
                .iter()
                .filter(|e| e.name == name && e.kind == wl_obs::SpanEventKind::Exit)
                .count();
            assert_eq!(enters, exits, "{name} unbalanced after task panic");
        }
        assert!(events
            .iter()
            .any(|e| e.name == "par.test.outer" && e.panicked));
    }

    proptest::proptest! {
        /// Whatever item panics and whatever the pool geometry, the span
        /// stack stays well-formed (every enter matched by an exit).
        #[test]
        fn span_stack_wellformed_for_any_panicking_item(
            n in 1usize..40,
            threads in 1usize..6,
            bad_frac in 0.0f64..1.0,
        ) {
            wl_obs::set_enabled(true);
            let bad = ((n as f64 * bad_frac) as usize).min(n - 1);
            let result = std::panic::catch_unwind(|| {
                par_map_indexed(threads, n, |i| {
                    if i == bad {
                        panic!("boom");
                    }
                    i
                })
            });
            proptest::prop_assert!(result.is_err());
            let me = wl_obs::current_thread_id();
            let events: Vec<_> = wl_obs::events_snapshot()
                .into_iter()
                .filter(|e| e.thread == me)
                .collect();
            for name in ["par.map", "par.map.seq"] {
                let enters = events
                    .iter()
                    .filter(|e| e.name == name && e.kind == wl_obs::SpanEventKind::Enter)
                    .count();
                let exits = events
                    .iter()
                    .filter(|e| e.name == name && e.kind == wl_obs::SpanEventKind::Exit)
                    .count();
                proptest::prop_assert_eq!(enters, exits);
            }
        }
    }

    #[test]
    fn wl_threads_env_overrides() {
        // Serialized by being the only test touching this variable.
        std::env::set_var("WL_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("WL_THREADS", "not a number");
        assert!(default_threads() >= 1);
        std::env::set_var("WL_THREADS", "0");
        assert!(default_threads() >= 1);
        std::env::remove_var("WL_THREADS");
    }
}
