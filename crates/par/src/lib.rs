//! Deterministic trial-level parallelism for the Monte-Carlo experiments.
//!
//! The Figure-2 study and the schedule explorer run hundreds of
//! independent trials per configuration point. Parallelism must not
//! change results, so the contract here is strict:
//!
//! * **Per-trial seed derivation.** A trial's RNG is
//!   `StdRng::seed_from_u64(mix(seed, stream, trial))` — a pure function
//!   of the experiment seed, the sweep point (e.g. node degree), and the
//!   trial index. No trial ever reads another trial's RNG stream, so the
//!   schedule of threads cannot influence any trial's randomness.
//! * **Ordered collection.** [`run_trials`] returns results indexed by
//!   trial, whatever interleaving the OS chose; callers print from the
//!   returned vector only. Together these make experiment output
//!   **bit-identical for any `--threads N`** (asserted by
//!   `crates/bench/tests/thread_determinism.rs`).
//!
//! Threads come from [`std::thread::scope`] — no work-stealing runtime,
//! no extra dependencies; trials are striped across workers so a slow
//! region of the trial space (e.g. high-degree graphs) spreads evenly.
//!
//! This is the workspace's only parallelism. One simulated world runs
//! on one event heap on one thread; cores pay off across independent
//! trials, the way a campaign or a Monte-Carlo sweep is structured.

#![warn(missing_docs)]

/// Derive a per-trial seed from the experiment seed, a stream id (sweep
/// point: node degree, loss level, ...), and the trial index.
///
/// SplitMix64-style finalizer over a multiplicative combination of the
/// three inputs: adjacent `(stream, trial)` pairs land in statistically
/// unrelated parts of the 64-bit space, so trial RNGs never overlap the
/// way `seed ^ trial` streams can.
#[inline]
pub fn mix(seed: u64, stream: u64, trial: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ trial.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 62)
}

/// The machine's available parallelism (defaults `--threads`).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `trials` independent trials of `f` across `threads` scoped
/// threads and return the results **in trial order**.
///
/// Trial `i` is computed by worker `i % threads` (striping), but the
/// returned vector is indexed by trial, so the output is identical for
/// every thread count — including `threads == 1`, which runs inline with
/// no thread machinery at all. `f` must derive all of its randomness
/// from the trial index (see [`mix`]); that is what makes the fan-out
/// deterministic rather than merely parallel.
///
/// # Panics
/// Propagates a panic from any trial.
pub fn run_trials<T, F>(threads: usize, trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(trials.max(1));
    if threads == 1 {
        return (0..trials).map(f).collect();
    }
    let f = &f;
    let stripes: Vec<Vec<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| s.spawn(move || (k..trials).step_by(threads).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let mut iters: Vec<_> = stripes.into_iter().map(Vec::into_iter).collect();
    (0..trials)
        .map(|i| iters[i % threads].next().expect("stripe underrun"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1994, 4, 17), mix(1994, 4, 17));
        let mut seen = HashSet::new();
        for stream in 0..16u64 {
            for trial in 0..256u64 {
                seen.insert(mix(1994, stream, trial));
            }
        }
        assert_eq!(seen.len(), 16 * 256, "derived seeds must not collide");
        // Swapping stream and trial must not alias.
        assert_ne!(mix(7, 3, 5), mix(7, 5, 3));
    }

    #[test]
    fn results_are_in_trial_order_for_any_thread_count() {
        let reference: Vec<u64> = (0..97).map(|i| mix(1, 0, i as u64)).collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            let got = run_trials(threads, 97, |i| mix(1, 0, i as u64));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn zero_trials_is_empty() {
        let got: Vec<u8> = run_trials(4, 0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn work_actually_crosses_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let max_seen = AtomicUsize::new(0);
        let ids: Vec<std::thread::ThreadId> = run_trials(4, 64, |i| {
            max_seen.fetch_max(i, Ordering::Relaxed);
            std::thread::current().id()
        });
        assert_eq!(max_seen.load(Ordering::Relaxed), 63);
        // On a multi-core box several worker ids appear; on a 1-core box
        // the scheduler may still serialize them, so only assert the
        // fan-out ran every trial under scoped threads.
        assert_eq!(ids.len(), 64);
    }
}
