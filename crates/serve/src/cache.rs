//! The content-addressed result cache.
//!
//! Keys are `(dataset digest, canonical request digest)` — see
//! [`crate::datasets::dataset_digest`] and
//! [`coplot::AnalysisRequest::canonical_digest`]. Both halves exclude
//! anything that does not determine the response (the deadline, JSON key
//! order, defaulted fields), and responses are pure functions of the
//! canonical request, so a hit can be served verbatim. Values are the
//! exact serialized response bodies, keeping hits byte-identical to the
//! miss that filled them.
//!
//! A request is looked up at most twice and counted once. The reactor
//! looks a named dataset's request up when it admits it ([`lookup`],
//! which counts only a hit) and answers a hit inline. A request it
//! queues is looked up again by the worker that runs it ([`get`], which
//! counts the hit or the miss), because a path dataset can only be
//! digested there and a hit can appear while the request waits. So
//! `serve.cache.hit / (hit + miss)` is the share of requests answered
//! from the cache.
//!
//! [`lookup`]: ResultCache::lookup
//! [`get`]: ResultCache::get

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// A bounded FIFO cache of serialized response bodies.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(u64, u64), String>,
    order: VecDeque<(u64, u64)>,
}

impl ResultCache {
    /// A cache holding up to `capacity` bodies (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Look a body up, bumping the `serve.cache.hit`/`serve.cache.miss`
    /// counters.
    pub fn get(&self, key: (u64, u64)) -> Option<String> {
        let body = self.lookup(key);
        if body.is_none() {
            wl_obs::counter!("serve.cache.miss", 1);
        }
        body
    }

    /// Look a body up, bumping only `serve.cache.hit`: the reactor's
    /// admission lookup, whose miss is counted by the worker's [`get`].
    ///
    /// [`get`]: ResultCache::get
    pub(crate) fn lookup(&self, key: (u64, u64)) -> Option<String> {
        let body = self.inner.lock().unwrap().map.get(&key).cloned();
        if body.is_some() {
            wl_obs::counter!("serve.cache.hit", 1);
        }
        body
    }

    /// Insert a body, evicting oldest-first past the capacity.
    pub fn put(&self, key: (u64, u64), body: String) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.map.insert(key, body).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
    }

    /// Cached entries right now.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_and_serves_bodies() {
        let cache = ResultCache::new(4);
        assert_eq!(cache.get((1, 1)), None);
        cache.put((1, 1), "a".into());
        assert_eq!(cache.get((1, 1)).as_deref(), Some("a"));
        // Same request digest under a different dataset digest is distinct.
        assert_eq!(cache.get((2, 1)), None);
    }

    #[test]
    fn evicts_oldest_first() {
        let cache = ResultCache::new(2);
        cache.put((1, 0), "a".into());
        cache.put((2, 0), "b".into());
        cache.put((3, 0), "c".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get((1, 0)), None, "oldest entry evicted");
        assert_eq!(cache.get((2, 0)).as_deref(), Some("b"));
        assert_eq!(cache.get((3, 0)).as_deref(), Some("c"));
    }

    #[test]
    fn re_insert_refreshes_value_without_duplicating() {
        let cache = ResultCache::new(2);
        cache.put((1, 0), "a".into());
        cache.put((1, 0), "a2".into());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get((1, 0)).as_deref(), Some("a2"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.put((1, 0), "a".into());
        assert!(cache.is_empty());
        assert_eq!(cache.get((1, 0)), None);
    }
}
