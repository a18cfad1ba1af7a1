//! One byte-budgeted table type for the crate's process-wide caches: FFT
//! plans ([`crate::fft::plan`], 64 MiB) and fGn circulant amplitudes
//! ([`crate::fgn::FgnDaviesHarte::new`], 8 MiB), `Arc`s weighed in bytes
//! by the caller, since a count of them bounds nothing. A missing key is
//! built under the lock, once at any thread count. An error is not kept,
//! nor a value larger than the whole budget; a value that would not fit
//! empties the table first, which needs no recency bookkeeping and costs a
//! rebuild that is small next to the work that reads the value. Each table
//! counts `<name>.{hit,miss,evictions}` and sets the `<name>.bytes` gauge.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use wl_obs::{Counter, Gauge};

/// A process-wide cache of `Arc<V>` by `K`, within a byte budget.
pub(crate) struct Table<K, V: ?Sized> {
    hit: Metric<Counter>,
    miss: Metric<Counter>,
    evictions: Metric<Counter>,
    bytes: Metric<Gauge>,
    budget: usize,
    weigh: fn(&V) -> usize,
    entries: Mutex<Entries<K, V>>,
}

struct Entries<K, V: ?Sized> {
    map: HashMap<K, Arc<V>>,
    /// The kept values' weights, summed.
    bytes: usize,
}

/// A registry handle interned on first use with `wl_obs` enabled, as the
/// `counter!` macros intern theirs: an untouched metric stays out of snapshots.
struct Metric<T: 'static>(&'static str, OnceLock<&'static T>);

impl Metric<Counter> {
    fn add(&self, delta: u64) {
        if wl_obs::enabled() {
            self.1.get_or_init(|| wl_obs::registry().counter(self.0)).add(delta);
        }
    }
}

impl Metric<Gauge> {
    fn set(&self, value: usize) {
        if wl_obs::enabled() {
            self.1.get_or_init(|| wl_obs::registry().gauge(self.0)).set(value as i64);
        }
    }
}

impl<K: Eq + Hash, V: ?Sized> Table<K, V> {
    /// An empty table counting under `name` that keeps at most `budget`
    /// bytes of values, as `weigh` counts them.
    pub(crate) fn new(name: &str, budget: usize, weigh: fn(&V) -> usize) -> Self {
        // The registry keeps metric names for the life of the process.
        let name = |suffix| &*Box::leak(format!("{name}.{suffix}").into_boxed_str());
        Table {
            hit: Metric(name("hit"), OnceLock::new()),
            miss: Metric(name("miss"), OnceLock::new()),
            evictions: Metric(name("evictions"), OnceLock::new()),
            bytes: Metric(name("bytes"), OnceLock::new()),
            budget,
            weigh,
            entries: Mutex::new(Entries { map: HashMap::new(), bytes: 0 }),
        }
    }

    /// The value under `key`, or `build`'s, kept when it fits the budget.
    pub(crate) fn get<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E> {
        // Entries change only after `build` returns, so a lock poisoned by
        // a panicking build still guards a consistent map.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = entries.map.get(&key) {
            self.hit.add(1);
            return Ok(Arc::clone(value));
        }
        self.miss.add(1);
        let value = build()?;
        let bytes = (self.weigh)(&value);
        if bytes <= self.budget {
            if entries.bytes + bytes > self.budget {
                self.evictions.add(entries.map.len() as u64);
                entries.map.clear();
                entries.bytes = 0;
            }
            entries.bytes += bytes;
            entries.map.insert(key, Arc::clone(&value));
            self.bytes.set(entries.bytes);
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{self, FftPlan};
    use crate::fgn::FgnDaviesHarte;
    use std::convert::Infallible;
    use std::mem::size_of_val;

    type Amps = Table<(u64, usize), [f64]>;

    fn zeros(len: usize) -> impl FnOnce() -> Result<Arc<[f64]>, String> {
        move || Ok(vec![0.0; len].into())
    }

    /// Kept entries and bytes, checking the byte count against the map.
    fn held<K, V: ?Sized>(table: &Table<K, V>) -> (usize, usize) {
        let entries = table.entries.lock().unwrap();
        let weighed: usize = entries.map.values().map(|v| (table.weigh)(v)).sum();
        assert_eq!(weighed, entries.bytes);
        assert!(
            entries.bytes <= table.budget,
            "{} bytes kept",
            entries.bytes
        );
        (entries.map.len(), entries.bytes)
    }

    #[test]
    fn lengths_with_one_embedding_share_one_entry() {
        let table: Amps = Table::new("test.amps", 512 * 1024, size_of_val);
        // As in fGn: 2 * 300 and 2 * 500 both round up to m = 1024, and
        // the key holds the embedding size, not the path length.
        let amps = |n: usize| {
            let m = (2 * n).next_power_of_two();
            table.get((0.8f64.to_bits(), m), zeros(m / 2 + 1)).unwrap()
        };
        let (a, b) = (amps(300), amps(500));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(held(&table), (1, 513 * 8));
    }

    #[test]
    fn table_stays_within_its_byte_budget() {
        let budget = 512 * 1024;
        let table: Amps = Table::new("test.amps", budget, size_of_val);
        // Each entry takes 3/8 of the budget: the third overflows it.
        let len = 3 * budget / 8 / 8;
        for key in 0..3 {
            table.get((key, 0), zeros(len)).unwrap();
            held(&table);
        }
        assert_eq!(held(&table).0, 1, "emptied on overflow");

        // An entry larger than the whole budget is returned, never kept.
        let oversized = budget / 8 + 1;
        let amps = table.get((9, 0), zeros(oversized)).unwrap();
        assert_eq!(amps.len(), oversized);
        assert!(!table.entries.lock().unwrap().map.contains_key(&(9, 0)));
        assert_eq!(held(&table).0, 1, "the kept entry survives");
    }

    #[test]
    fn errors_are_not_cached() {
        let table: Amps = Table::new("test.amps", 512 * 1024, size_of_val);
        let err = table.get((1, 2), || Err("negative".to_string()));
        assert_eq!(err.unwrap_err(), "negative");
        assert_eq!(held(&table), (0, 0));
        let mut built = false;
        let amps = table
            .get((1, 2), || {
                built = true;
                Ok::<_, String>(vec![1.0, 2.0].into())
            })
            .unwrap();
        assert!(built, "the next call builds afresh");
        assert_eq!(&amps[..], &[1.0, 2.0]);
        // ... and that value is kept.
        let again = table
            .get((1, 2), || -> Result<_, String> { panic!("should hit") })
            .unwrap();
        assert!(Arc::ptr_eq(&amps, &again));
    }

    fn plan_in(table: &Table<usize, FftPlan>, n: usize) -> Arc<FftPlan> {
        let Ok(plan) = table.get(n, || Ok::<_, Infallible>(Arc::new(FftPlan::new(n))));
        plan
    }

    #[test]
    fn plans_for_many_long_lengths_stay_within_the_budget() {
        // A Bluestein plan near 40,000 points convolves at m = 131072 and
        // weighs about 5.4 MB, so 16 MiB keeps two or three of them.
        let budget = 16 << 20;
        let table = Table::new("test.plan", budget, FftPlan::bytes);
        for n in 40_000..40_040 {
            assert_eq!(plan_in(&table, n).len(), n);
            let (kept, _) = held(&table);
            assert!((1..=3).contains(&kept), "{kept} plans kept");
        }
    }

    #[test]
    fn a_plan_larger_than_the_budget_is_returned_but_not_kept() {
        let table = Table::new("test.plan", 1024, FftPlan::bytes);
        let plan = plan_in(&table, 1000);
        assert!(plan.bytes() > 1024);
        assert_eq!(plan.len(), 1000);
        assert_eq!(held(&table), (0, 0));
        assert!(!Arc::ptr_eq(&plan, &plan_in(&table, 1000)), "built again");
    }

    #[test]
    fn the_process_wide_tables_count_under_their_own_names() {
        wl_obs::set_enabled(true);
        // (lookups, misses) under one table's name.
        let counts = |name: &str| {
            let snapshot = wl_obs::registry().snapshot();
            let miss = snapshot.counter(&format!("{name}.miss"));
            (snapshot.counter(&format!("{name}.hit")) + miss, miss)
        };
        let (plans, amps) = (counts("fft.plan"), counts("fgn.amps"));
        // Two generators with an H and a plan length no other test asks
        // for: at least one miss in each table, and five lookups in all.
        for _ in 0..2 {
            FgnDaviesHarte::new(0.123_456_789, 1000).unwrap();
        }
        fft::plan(2021);
        // Other tests may count concurrently, so only lower bounds hold.
        let (plans_after, amps_after) = (counts("fft.plan"), counts("fgn.amps"));
        assert!(plans_after.0 >= plans.0 + 3 && plans_after.1 > plans.1);
        assert!(amps_after.0 >= amps.0 + 2 && amps_after.1 > amps.1);
        let gauges = wl_obs::registry().snapshot().gauges;
        for name in ["fft.plan.bytes", "fgn.amps.bytes"] {
            let bytes = gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            assert!(bytes.is_some_and(|b| b > 0), "{name}: {bytes:?}");
        }
    }
}
