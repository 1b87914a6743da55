//! The metrics registry: named counters, gauges, and histograms behind a
//! sharded name table.
//!
//! Registration (first use of a name) takes one shard's write lock;
//! after that a cloned handle is a bare `Arc` and every update is a
//! relaxed atomic operation — no lock is touched on the hot path. Call
//! sites that cannot conveniently hold a handle can use the by-name free
//! functions on the [`Registry::global`] registry, which cost one shard read-lock
//! plus a hash lookup.
//!
//! This is the only place a total is kept: every counter in the
//! workspace is registered here once, and spans ([`mod@crate::span`]) carry
//! per-event fields only. Semantics:
//!
//! * [`Counter`] — monotonically increasing `u64` (requests served,
//!   cache hits). Cumulative-sum semantics; durations are summed in
//!   integer nanoseconds (`*_ns`) so per-event fractions are not lost.
//! * [`Gauge`] — point-in-time `i64` (queue depth, workers busy). Set,
//!   add, and subtract; exporting a gauge reports *now*, not a sum.
//! * [`Histogram`] — a value distribution (latency, batch size). Exact
//!   counts, O(1) memory, quantiles within one bucket's relative error;
//!   see [`crate::hist`].

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::hist::{HistSnapshot, Histogram};

/// A monotonically increasing counter handle. Clone freely; all clones
/// share one atomic cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge handle (queue depth, busy workers).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Arc<Histogram>),
}

const SHARDS: usize = 16;

/// A named-metric registry (see the module docs). [`Registry::global`]
/// returns the process-wide instance; components that need isolation
/// (each `ft_serve::Runtime`, unit tests) own their own.
pub struct Registry {
    shards: [RwLock<HashMap<String, Metric>>; SHARDS],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: usize = self.shards.iter().map(|s| s.read().len()).sum();
        f.debug_struct("Registry").field("metrics", &names).finish()
    }
}

fn shard_of(name: &str) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry. Layers without a runtime reference
    /// (worker pool, executor arena, plan cache) record here.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        pick: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (Metric, T),
    ) -> T {
        let shard = &self.shards[shard_of(name)];
        if let Some(m) = shard.read().get(name) {
            if let Some(t) = pick(m) {
                return t;
            }
        }
        let mut w = shard.write();
        // Double-check: a racing registrar may have inserted it.
        if let Some(m) = w.get(name) {
            if let Some(t) = pick(m) {
                return t;
            }
            // Name registered under a different metric kind: a programming
            // error. Keep the first registration (never corrupt live
            // handles) and hand back a detached instance so the caller
            // stays functional — its updates just won't export.
            let (_, t) = make();
            return t;
        }
        let (metric, t) = make();
        w.insert(name.to_string(), metric);
        t
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::default();
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::default();
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            |m| match m {
                Metric::Hist(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (Metric::Hist(Arc::clone(&h)), h)
            },
        )
    }

    /// By-name convenience: `counter(name).add(n)`.
    pub fn counter_add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// By-name convenience: `gauge(name).set(v)`.
    pub fn gauge_set(&self, name: &str, v: i64) {
        self.gauge(name).set(v);
    }

    /// By-name convenience: `histogram(name).record(v)`.
    pub fn observe(&self, name: &str, v: f64) {
        self.histogram(name).record(v);
    }

    /// A point-in-time snapshot of every metric, name-ordered.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        for shard in &self.shards {
            for (name, metric) in shard.read().iter() {
                match metric {
                    Metric::Counter(c) => {
                        snap.counters.insert(name.clone(), c.get());
                    }
                    Metric::Gauge(g) => {
                        snap.gauges.insert(name.clone(), g.get());
                    }
                    Metric::Hist(h) => {
                        snap.hists.insert(name.clone(), h.snapshot());
                    }
                }
            }
        }
        snap
    }
}

/// An owned snapshot of a [`Registry`]: the exporter's input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl RegistrySnapshot {
    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value (it is the more specific source), histograms bucket-add.
    /// Used to export a runtime-local registry together with the global
    /// one as a single scrape.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => {
                    for (m, t) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *m += t;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_register_once() {
        let r = Registry::new();
        let a = r.counter("x.total");
        let b = r.counter("x.total");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x.total").get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["x.total"], 3);
    }

    #[test]
    fn gauge_is_point_in_time_not_cumulative() {
        let r = Registry::new();
        let g = r.gauge("q.depth");
        g.set(5);
        g.set(2);
        g.inc();
        assert_eq!(g.get(), 3);
        assert_eq!(r.snapshot().gauges["q.depth"], 3);
    }

    #[test]
    fn kind_mismatch_degrades_to_detached_metric() {
        let r = Registry::new();
        r.counter("name").add(7);
        // Same name re-registered as a gauge: first registration wins,
        // the gauge handle is detached but functional.
        let g = r.gauge("name");
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(r.snapshot().counters["name"], 7);
        assert!(!r.snapshot().gauges.contains_key("name"));
    }

    #[test]
    fn concurrent_registration_and_updates() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    let c = r.counter("hot");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                    r.observe("dist", 3.0);
                });
            }
        });
        assert_eq!(r.counter("hot").get(), 80_000);
        assert_eq!(r.histogram("dist").count(), 8);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        b.gauge_set("g", 9);
        a.observe("h", 5.0);
        b.observe("h", 50.0);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.gauges["g"], 9);
        assert_eq!(snap.hists["h"].count, 2);
    }
}
