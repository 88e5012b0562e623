//! Deterministic parallel fan-out: the workspace's shared execution layer.
//!
//! The paper runs 100,000 Monte-Carlo trials per parameter combination over
//! a 37,262-user population; every experiment in the reproduction funnels
//! its per-trial and per-user work through this module. The engine spreads
//! work over threads while keeping results **bit-for-bit reproducible**:
//!
//! * every trial (or item) gets its own RNG derived from
//!   `(master seed, index)` via [`derive_seed`], never from a worker-local
//!   stream, so the outcome is independent of the thread count, the shard
//!   layout, and the scheduler;
//! * results are written into pre-allocated, index-addressed slots, so
//!   collection order equals trial order with no reordering step.
//!
//! [`Fanout`] is the configurable entry point (`threads == 0` means "use
//! the available parallelism"); [`run_trials`] and
//! [`run_trials_with_workers`] remain as thin historical wrappers.

use privlocad_geo::rng::{derive_seed, seeded};
use rand::rngs::StdRng;

/// A deterministic parallel executor with a fixed master seed and thread
/// count.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::montecarlo::Fanout;
/// use rand::Rng;
///
/// let serial = Fanout::with_threads(9, 1);
/// let parallel = Fanout::with_threads(9, 8);
/// let a = serial.run_trials(1_000, |_, rng| rng.gen::<u64>());
/// let b = parallel.run_trials(1_000, |_, rng| rng.gen::<u64>());
/// assert_eq!(a, b); // identical for any thread count
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanout {
    seed: u64,
    threads: usize,
}

impl Fanout {
    /// An executor using the machine's available parallelism.
    pub fn new(seed: u64) -> Self {
        Fanout { seed, threads: 0 }
    }

    /// An executor with an explicit thread count; `0` means "auto".
    pub fn with_threads(seed: u64, threads: usize) -> Self {
        Fanout { seed, threads }
    }

    /// The master seed every per-index RNG derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same executor with a different master seed.
    pub fn reseeded(&self, seed: u64) -> Self {
        Fanout { seed, threads: self.threads }
    }

    /// The resolved worker count (auto-detected when constructed with `0`).
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        }
    }

    /// Runs `trials` independent trials of `f` and collects the results in
    /// trial order. `f` receives the trial index and a per-trial RNG seeded
    /// from `(seed, trial)`.
    pub fn run_trials<T, F>(&self, trials: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        let seed = self.seed;
        self.run_sharded(trials, |base, slots| {
            for (offset, out) in slots.iter_mut().enumerate() {
                let trial = base + offset;
                let mut rng = seeded(derive_seed(seed, trial as u64));
                *out = Some(f(trial, &mut rng));
            }
        })
    }

    /// Like [`Fanout::run_trials`], with a per-worker scratch value built by
    /// `init` and passed mutably to every trial the worker runs — the hook
    /// hot loops use to reuse allocation-heavy buffers across trials.
    ///
    /// Determinism contract: `f` must not let results depend on scratch
    /// state carried over from previous trials (reset what you read), since
    /// which trials share a scratch depends on the shard layout.
    pub fn run_trials_with_scratch<T, S, I, F>(&self, trials: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut StdRng, &mut S) -> T + Sync,
    {
        let seed = self.seed;
        self.run_sharded(trials, |base, slots| {
            let mut scratch = init();
            for (offset, out) in slots.iter_mut().enumerate() {
                let trial = base + offset;
                let mut rng = seeded(derive_seed(seed, trial as u64));
                *out = Some(f(trial, &mut rng, &mut scratch));
            }
        })
    }

    /// Applies `f` to every item of a slice in parallel (index-sharded),
    /// collecting results in item order. For pure per-item work — no RNG.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run_sharded(items.len(), |base, slots| {
            for (offset, out) in slots.iter_mut().enumerate() {
                let index = base + offset;
                *out = Some(f(index, &items[index]));
            }
        })
    }

    /// The sharding engine: splits `0..n` into contiguous chunks, one per
    /// worker, and lets `run_shard` fill each chunk's slots.
    fn run_sharded<T, F>(&self, n: usize, run_shard: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut [Option<T>]) + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads().min(n).max(1);
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let chunk = n.div_ceil(workers);
        if workers == 1 {
            run_shard(0, &mut results);
        } else {
            std::thread::scope(|scope| {
                for (w, slots) in results.chunks_mut(chunk).enumerate() {
                    let run_shard = &run_shard;
                    scope.spawn(move || run_shard(w * chunk, slots));
                }
            });
        }
        results.into_iter().map(|r| r.expect("every index ran")).collect()
    }
}

/// Runs `trials` independent trials of `f` in parallel and collects the
/// results in trial order.
///
/// `f` receives the trial index and a per-trial RNG. The number of worker
/// threads defaults to the available parallelism.
///
/// # Examples
///
/// ```
/// use privlocad_metrics::montecarlo::run_trials;
/// use rand::Rng;
///
/// let xs = run_trials(1_000, 9, |_, rng| rng.gen::<f64>());
/// let mean = xs.iter().sum::<f64>() / xs.len() as f64;
/// assert!((mean - 0.5).abs() < 0.05);
/// // Fully reproducible regardless of thread count:
/// assert_eq!(xs, run_trials(1_000, 9, |_, rng| rng.gen::<f64>()));
/// ```
pub fn run_trials<T, F>(trials: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    Fanout::new(seed).run_trials(trials, f)
}

/// Like [`run_trials`] with an explicit worker count (useful in tests and
/// for measuring scaling).
///
/// # Panics
///
/// Panics if `workers` is zero.
// lint:allow(dead-pub): integration-test hook: tests/concurrency.rs pins worker-count invariance with it
pub fn run_trials_with_workers<T, F>(trials: usize, seed: u64, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    assert!(workers > 0, "at least one worker is required");
    Fanout::with_threads(seed, workers).run_trials(trials, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_in_trial_order() {
        let xs = run_trials_with_workers(100, 0, 7, |i, _| i);
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let f = |i: usize, rng: &mut StdRng| (i, rng.gen::<u64>());
        let a = run_trials_with_workers(257, 5, 1, f);
        let b = run_trials_with_workers(257, 5, 8, f);
        let c = run_trials_with_workers(257, 5, 64, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn trial_seeds_depend_only_on_master_seed_and_index() {
        // The contract behind thread-count invariance: trial i's RNG is
        // `seeded(derive_seed(master, i))` no matter which shard — and
        // hence which worker thread and chunk layout — runs the trial.
        let master = 31;
        let observed = run_trials_with_workers(17, master, 5, |_, rng| rng.gen::<u64>());
        for (i, &draw) in observed.iter().enumerate() {
            let mut expected = seeded(derive_seed(master, i as u64));
            assert_eq!(draw, expected.gen::<u64>(), "trial {i}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let f = |_: usize, rng: &mut StdRng| rng.gen::<u64>();
        assert_ne!(run_trials(10, 1, f), run_trials(10, 2, f));
    }

    #[test]
    fn zero_trials_empty() {
        let xs: Vec<u8> = run_trials(0, 0, |_, _| 0);
        assert!(xs.is_empty());
    }

    #[test]
    fn more_workers_than_trials() {
        let xs = run_trials_with_workers(3, 0, 16, |i, _| i * 2);
        assert_eq!(xs, vec![0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = run_trials_with_workers(1, 0, 0, |i, _| i);
    }

    #[test]
    fn scratch_reuse_matches_plain_run() {
        let fan = Fanout::with_threads(3, 4);
        let plain = fan.run_trials(200, |i, rng| i as u64 + rng.gen::<u64>() % 100);
        let scratched = fan.run_trials_with_scratch(200, Vec::<u64>::new, |i, rng, buf| {
            buf.clear();
            buf.push(rng.gen::<u64>() % 100);
            i as u64 + buf[0]
        });
        assert_eq!(plain, scratched);
    }

    #[test]
    fn map_preserves_item_order_and_is_thread_count_independent() {
        let items: Vec<u64> = (0..137).collect();
        let serial = Fanout::with_threads(0, 1).map(&items, |i, &x| x * 2 + i as u64);
        let parallel = Fanout::with_threads(0, 8).map(&items, |i, &x| x * 2 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn auto_thread_count_resolves_to_nonzero() {
        assert!(Fanout::new(0).threads() > 0);
        assert_eq!(Fanout::with_threads(0, 3).threads(), 3);
    }

    #[test]
    fn reseeded_changes_only_the_seed() {
        let fan = Fanout::with_threads(1, 2).reseeded(9);
        assert_eq!(fan.seed(), 9);
        assert_eq!(fan.threads(), 2);
    }
}
