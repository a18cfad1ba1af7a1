//! Per-thread metric shards.
//!
//! Pool workers (`wl-par`) record into a private `Shard` and flush once at
//! the end of their claim loop, so instrumentation adds no cross-thread
//! contention inside the work loop. Merges use the same wrapping arithmetic
//! as the atomic registry, which makes them associative, commutative and
//! order-independent — totals are identical for any worker interleaving.

use crate::registry::{bucket_index, HIST_BUCKETS};
use std::collections::BTreeMap;

/// Plain-value histogram state, the shard-local mirror of
/// [`crate::Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistData {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistData {
    pub fn record(&mut self, v: u64) {
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] = self.buckets[bucket_index(v)].wrapping_add(1);
    }

    pub fn merge(&mut self, other: &HistData) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.wrapping_add(*ob);
        }
    }
}

/// A local batch of counter increments and histogram observations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Shard {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistData>,
}

impl Shard {
    pub fn new() -> Self {
        Shard::default()
    }

    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        let slot = self.counters.entry(name).or_insert(0);
        *slot = slot.wrapping_add(delta);
    }

    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Fold `other` into `self`; `a.merge(b)` equals `b.merge(a)` and
    /// merging is associative (see the proptests).
    pub fn merge(&mut self, other: &Shard) {
        for (name, delta) in &other.counters {
            self.counter_add(name, *delta);
        }
        for (name, data) in &other.hists {
            self.hists.entry(name).or_default().merge(data);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    pub fn counters(&self) -> impl Iterator<Item = (&&'static str, &u64)> {
        self.counters.iter()
    }

    pub fn hists(&self) -> impl Iterator<Item = (&&'static str, &HistData)> {
        self.hists.iter()
    }

    /// Add this shard's contents to the global registry. A no-op unless
    /// [`crate::enabled`], so callers can flush unconditionally.
    pub fn flush(&self) {
        if crate::enabled() && !self.is_empty() {
            crate::registry().flush_shard(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NAMES: [&str; 4] = ["a", "b", "c", "d"];

    #[derive(Clone, Debug)]
    enum Op {
        Counter(usize, u64),
        Hist(usize, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..NAMES.len(), 0u64..=u64::MAX).prop_map(|(i, v)| Op::Counter(i, v)),
            (0usize..NAMES.len(), 0u64..=u64::MAX).prop_map(|(i, v)| Op::Hist(i, v)),
        ]
    }

    fn shard_of(ops: &[Op]) -> Shard {
        let mut s = Shard::new();
        for op in ops {
            match op {
                Op::Counter(i, v) => s.counter_add(NAMES[*i], *v),
                Op::Hist(i, v) => s.hist_record(NAMES[*i], *v),
            }
        }
        s
    }

    proptest! {
        /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        #[test]
        fn merge_is_associative(
            a in proptest::collection::vec(op_strategy(), 0..20),
            b in proptest::collection::vec(op_strategy(), 0..20),
            c in proptest::collection::vec(op_strategy(), 0..20),
        ) {
            let (sa, sb, sc) = (shard_of(&a), shard_of(&b), shard_of(&c));
            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);
            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        /// a ⊕ b == b ⊕ a
        #[test]
        fn merge_is_order_independent(
            a in proptest::collection::vec(op_strategy(), 0..30),
            b in proptest::collection::vec(op_strategy(), 0..30),
        ) {
            let (sa, sb) = (shard_of(&a), shard_of(&b));
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            prop_assert_eq!(ab, ba);
        }

        /// Recording all ops into one shard equals recording into split
        /// shards and merging — the property `wl-par` workers rely on.
        #[test]
        fn split_then_merge_equals_sequential(
            ops in proptest::collection::vec(op_strategy(), 0..60),
            cut_at in 0usize..61,
        ) {
            let cut = cut_at.min(ops.len());
            let whole = shard_of(&ops);
            let mut merged = shard_of(&ops[..cut]);
            merged.merge(&shard_of(&ops[cut..]));
            prop_assert_eq!(whole, merged);
        }
    }

    #[test]
    fn empty_merge_is_identity() {
        let mut s = shard_of(&[Op::Counter(0, 3), Op::Hist(1, 9)]);
        let before = s.clone();
        s.merge(&Shard::new());
        assert_eq!(s, before);
    }
}
