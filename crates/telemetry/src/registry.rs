//! Lock-sharded metrics registry with deterministic merge.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are assigned a shard
//! round-robin at creation; every update locks only that shard, so
//! unrelated workers never contend. A [`Registry::snapshot`] locks the
//! shards in shard order and merges them with commutative sums — the
//! merged value is therefore independent of which thread (and which
//! shard) performed each update, which is what makes snapshots
//! thread-count-invariant for workloads whose *totals* are deterministic.
//!
//! Metrics additionally carry a [`Determinism`] class: `Deterministic`
//! metrics are pure functions of seed + workload (request counts, fault
//! injections), `Scheduling` metrics depend on wakeup interleaving (batch
//! sizes, queue transients). Only the former participate in the
//! byte-identical export surface.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of log-scale histogram buckets.
///
/// Bucket 0 counts zero-valued observations; bucket `b >= 1` counts values
/// in `[2^(b-1), 2^b)`, with the final bucket absorbing everything larger.
const HISTOGRAM_BUCKETS: usize = 32;

/// Default shard count for [`Registry::default`].
const DEFAULT_SHARDS: usize = 8;

/// Whether a metric's merged total is reproducible across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Determinism {
    /// A pure function of seed and workload: identical totals for any
    /// thread/shard count. Part of the byte-identical export surface.
    Deterministic,
    /// Depends on scheduler interleaving (wakeup batching, queue
    /// transients, restart timing); excluded from determinism checks.
    Scheduling,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug, Clone, Copy)]
struct MetricMeta {
    kind: MetricKind,
    class: Determinism,
    index: usize,
}

#[derive(Debug, Default)]
struct Shard {
    counters: Vec<u64>,
    gauges: Vec<i64>,
    histograms: Vec<[u64; HISTOGRAM_BUCKETS]>,
}

#[derive(Debug, Default)]
struct Directory {
    metrics: BTreeMap<String, MetricMeta>,
    counters: usize,
    gauges: usize,
    histograms: usize,
}

#[derive(Debug)]
struct Inner {
    directory: Mutex<Directory>,
    shards: Vec<Mutex<Shard>>,
    next_shard: AtomicUsize,
}

/// The sharded registry; a cheaply cloneable handle to shared state.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_shards(DEFAULT_SHARDS)
    }
}

impl Registry {
    /// Creates a registry with the default shard count.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates a registry with exactly `shards` accumulator shards
    /// (clamped to at least one).
    fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Registry {
            inner: Arc::new(Inner {
                directory: Mutex::new(Directory::default()),
                shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
                next_shard: AtomicUsize::new(0),
            }),
        }
    }

    fn register(&self, name: &str, kind: MetricKind, class: Determinism) -> usize {
        let mut dir = self.inner.directory.lock();
        if let Some(meta) = dir.metrics.get(name) {
            assert!(meta.kind == kind, "metric `{name}` already registered with a different kind");
            return meta.index;
        }
        let index = match kind {
            MetricKind::Counter => {
                dir.counters += 1;
                dir.counters - 1
            }
            MetricKind::Gauge => {
                dir.gauges += 1;
                dir.gauges - 1
            }
            MetricKind::Histogram => {
                dir.histograms += 1;
                dir.histograms - 1
            }
        };
        dir.metrics.insert(name.to_owned(), MetricMeta { kind, class, index });
        index
    }

    fn pick_shard(&self) -> usize {
        self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % self.inner.shards.len()
    }

    /// Registers (or re-opens) a monotonic counter.
    ///
    /// Each returned handle writes to its own shard; handles for the same
    /// name merge into one total at snapshot time. Re-registering an
    /// existing name with a different metric kind panics.
    pub fn counter(&self, name: &str, class: Determinism) -> Counter {
        Counter {
            inner: Arc::clone(&self.inner),
            index: self.register(name, MetricKind::Counter, class),
            shard: self.pick_shard(),
        }
    }

    /// Registers (or re-opens) an additive gauge (a signed up/down
    /// counter; the merged value is the sum of all deltas).
    pub fn gauge(&self, name: &str, class: Determinism) -> Gauge {
        Gauge {
            inner: Arc::clone(&self.inner),
            index: self.register(name, MetricKind::Gauge, class),
            shard: self.pick_shard(),
        }
    }

    /// Registers (or re-opens) a fixed-bucket log-scale histogram.
    pub fn histogram(&self, name: &str, class: Determinism) -> Histogram {
        Histogram {
            inner: Arc::clone(&self.inner),
            index: self.register(name, MetricKind::Histogram, class),
            shard: self.pick_shard(),
        }
    }

    /// Merges every shard (in shard order) into a point-in-time snapshot.
    ///
    /// All merges are commutative sums, so for metrics whose total is
    /// workload-determined the snapshot does not depend on the shard or
    /// thread count that produced it. Entries are sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let dir = self.inner.directory.lock();
        let mut counters = vec![0u64; dir.counters];
        let mut gauges = vec![0i64; dir.gauges];
        let mut histograms = vec![[0u64; HISTOGRAM_BUCKETS]; dir.histograms];
        for shard in &self.inner.shards {
            let shard = shard.lock();
            for (i, v) in shard.counters.iter().enumerate() {
                counters[i] += v;
            }
            for (i, v) in shard.gauges.iter().enumerate() {
                gauges[i] += v;
            }
            for (i, h) in shard.histograms.iter().enumerate() {
                for (b, v) in h.iter().enumerate() {
                    histograms[i][b] += v;
                }
            }
        }
        let mut snap = MetricsSnapshot::default();
        for (name, meta) in &dir.metrics {
            match meta.kind {
                MetricKind::Counter => {
                    snap.counters.push((name.clone(), counters[meta.index], meta.class));
                }
                MetricKind::Gauge => {
                    snap.gauges.push((name.clone(), gauges[meta.index], meta.class));
                }
                MetricKind::Histogram => {
                    let mut cumulative = histograms[meta.index];
                    for b in 1..HISTOGRAM_BUCKETS {
                        cumulative[b] += cumulative[b - 1];
                    }
                    snap.histograms.push((name.clone(), cumulative, meta.class));
                }
            }
        }
        snap
    }
}

/// A merged, point-in-time view of every registered metric, sorted by
/// name. Histograms are exported as *cumulative* bucket counts (bucket `b`
/// holds the number of observations `< 2^b`), so each array is
/// monotonically non-decreasing by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, total, class)` per counter.
    pub counters: Vec<(String, u64, Determinism)>,
    /// `(name, summed deltas, class)` per gauge.
    pub gauges: Vec<(String, i64, Determinism)>,
    /// `(name, cumulative bucket counts, class)` per histogram.
    pub histograms: Vec<(String, [u64; HISTOGRAM_BUCKETS], Determinism)>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Looks up a histogram's cumulative buckets by name.
    pub fn histogram(&self, name: &str) -> Option<&[u64; HISTOGRAM_BUCKETS]> {
        self.histograms.iter().find(|(n, _, _)| n == name).map(|(_, h, _)| h)
    }
}

fn grow<T: Default + Clone>(v: &mut Vec<T>, index: usize) {
    if v.len() <= index {
        v.resize(index + 1, T::default());
    }
}

/// A monotonic counter handle bound to one shard.
#[derive(Debug, Clone)]
pub struct Counter {
    inner: Arc<Inner>,
    index: usize,
    shard: usize,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        let mut shard = self.inner.shards[self.shard].lock();
        grow(&mut shard.counters, self.index);
        shard.counters[self.index] += n;
    }

    /// The current merged total across all shards.
    pub fn value(&self) -> u64 {
        let mut total = 0;
        for shard in &self.inner.shards {
            total += shard.lock().counters.get(self.index).copied().unwrap_or(0);
        }
        total
    }
}

/// An additive gauge handle bound to one shard.
#[derive(Debug, Clone)]
pub struct Gauge {
    inner: Arc<Inner>,
    index: usize,
    shard: usize,
}

impl Gauge {
    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        let mut shard = self.inner.shards[self.shard].lock();
        grow(&mut shard.gauges, self.index);
        shard.gauges[self.index] += delta;
    }

    /// Subtracts `delta`.
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    /// The current merged value (sum of all deltas) across all shards.
    pub fn value(&self) -> i64 {
        let mut total = 0;
        for shard in &self.inner.shards {
            total += shard.lock().gauges.get(self.index).copied().unwrap_or(0);
        }
        total
    }
}

/// A log-scale histogram handle bound to one shard.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
    index: usize,
    shard: usize,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let bucket = Histogram::bucket(value);
        let mut shard = self.inner.shards[self.shard].lock();
        grow(&mut shard.histograms, self.index);
        shard.histograms[self.index][bucket] += 1;
    }

    /// The bucket index an observation of `value` lands in.
    pub fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_merge_across_handles_and_shards() {
        let registry = Registry::with_shards(4);
        let handles: Vec<Counter> =
            (0..6).map(|_| registry.counter("x", Determinism::Deterministic)).collect();
        for (i, h) in handles.iter().enumerate() {
            h.add(i as u64 + 1);
        }
        assert_eq!(handles[0].value(), 21);
        assert_eq!(registry.snapshot().counter("x"), Some(21));
    }

    #[test]
    fn gauges_sum_signed_deltas() {
        let registry = Registry::new();
        let up = registry.gauge("depth", Determinism::Scheduling);
        let down = registry.gauge("depth", Determinism::Scheduling);
        up.add(10);
        down.sub(3);
        assert_eq!(up.value(), 7);
        assert_eq!(registry.snapshot().gauge("depth"), Some(7));
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_is_cumulative_and_monotone() {
        let registry = Registry::new();
        let h = registry.histogram("sizes", Determinism::Scheduling);
        for v in [0, 1, 1, 2, 7, 1024] {
            h.observe(v);
        }
        let snap = registry.snapshot();
        let buckets = snap.histogram("sizes").unwrap();
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 6);
        for b in 1..HISTOGRAM_BUCKETS {
            assert!(buckets[b] >= buckets[b - 1]);
        }
        // 0 → bucket 0; the three 1s and 2 land below 4; 7 below 8.
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[2], 4);
        assert_eq!(buckets[3], 5);
    }

    #[test]
    fn snapshot_is_shard_count_invariant() {
        let totals = |shards: usize| {
            let registry = Registry::with_shards(shards);
            let handles: Vec<Counter> =
                (0..8).map(|_| registry.counter("work", Determinism::Deterministic)).collect();
            thread::scope(|scope| {
                for (i, h) in handles.iter().enumerate() {
                    scope.spawn(move || h.add(100 + i as u64));
                }
            });
            registry.snapshot()
        };
        assert_eq!(totals(1), totals(7));
    }

    #[test]
    fn reopening_a_name_shares_the_metric() {
        let registry = Registry::new();
        registry.counter("n", Determinism::Deterministic).inc();
        registry.counter("n", Determinism::Deterministic).inc();
        assert_eq!(registry.snapshot().counter("n"), Some(2));
        assert_eq!(registry.snapshot().counters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("m", Determinism::Deterministic);
        registry.gauge("m", Determinism::Deterministic);
    }
}
