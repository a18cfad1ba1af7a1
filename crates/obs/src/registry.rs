//! Global metric registry: interned counters, gauges and histograms.
//!
//! Interning goes through a `Mutex<BTreeMap>` once per call site (the macros
//! cache the returned `&'static` handle in a `OnceLock`), after which every
//! update is a relaxed atomic RMW — no locks on the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: bucket `i` holds values whose bit length is
/// `i` (bucket 0 is exactly zero), so `u64::MAX` lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, otherwise the value's bit length.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Monotone event counter.
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed level.
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram with exact count/sum and min/max.
///
/// All fields update with relaxed atomics; counts and sums wrap on overflow.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]. `min` is `u64::MAX` when empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile from the log2 buckets: the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(*b);
            if cum >= target {
                // Bucket i holds values of bit length i: upper bound 2^i - 1.
                return if i == 0 { 0 } else { (1u64 << i.min(63)) - 1 + u64::from(i == 64) };
            }
        }
        self.max
    }
}

/// Process-wide metric registry. Handles returned by the intern methods are
/// `&'static` (leaked once per name) and safe to cache forever.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.counters
            .lock()
            .unwrap()
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter(AtomicU64::new(0)))))
    }

    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        self.gauges
            .lock()
            .unwrap()
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge(AtomicI64::new(0)))))
    }

    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        self.histograms
            .lock()
            .unwrap()
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// Sorted point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(n, c)| (n.to_string(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(n, g)| (n.to_string(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(n, h)| (n.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of the registry, name-sorted within each kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Current value of a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram snapshot by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn counter_interning_returns_same_handle() {
        let a = registry().counter("obs.test.intern") as *const Counter;
        let b = registry().counter("obs.test.intern") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = registry().histogram("obs.test.hist_basic");
        let before = h.snapshot();
        h.record(0);
        h.record(7);
        h.record(100);
        let after = h.snapshot();
        assert_eq!(after.count - before.count, 3);
        assert_eq!(after.sum - before.sum, 107);
        assert_eq!(after.min, 0);
        assert!(after.max >= 100);
        assert!(after.quantile(1.0) >= 100);
    }

    #[test]
    fn snapshot_counter_lookup() {
        registry().counter("obs.test.lookup").add(5);
        let snap = registry().snapshot();
        assert!(snap.counter("obs.test.lookup") >= 5);
        assert_eq!(snap.counter("obs.test.never_registered"), 0);
    }
}
