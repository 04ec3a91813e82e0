//! The metrics registry and its atomic counter/gauge handles.

use crate::events::{Event, EventRing};
use crate::histogram::Histogram;
use crate::snapshot::MetricsSnapshot;
use crate::trace::TraceRecorder;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default capacity of the structured-event ring.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// A monotonically increasing atomic counter, and the total it is a part
/// of ([`MetricsRegistry::counter_part`]), which each `add` counts into too.
///
/// ```
/// use netagg_obs::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64, Option<Arc<Counter>>);

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
        if let Some(total) = &self.1 {
            total.add(n);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
///
/// The value is stored as its bit pattern in an `AtomicU64`, so reads and
/// writes are lock-free and never torn.
///
/// ```
/// use netagg_obs::Gauge;
///
/// let g = Gauge::new();
/// g.set(2.5);
/// assert_eq!(g.get(), 2.5);
/// ```
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Create a gauge at 0.0.
    pub fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    /// Set the current value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Read the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Add `delta` (may be negative) atomically — for gauges maintained as
    /// shared up/down counters, e.g. `runtime.threads_active`.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventRing,
    tracer: Arc<TraceRecorder>,
}

/// A thread-safe registry of named metrics.
///
/// Cloning a registry is cheap (an `Arc` bump) and all clones share the
/// same metrics, so one registry threaded through a deployment merges the
/// activity of every box, shim and transport into a single namespace.
/// Looking a metric up by name takes a short mutex; the returned handle is
/// lock-free, so hot paths fetch their handles once and update atomics
/// thereafter.
///
/// ```
/// use netagg_obs::MetricsRegistry;
///
/// let obs = MetricsRegistry::new();
/// let a = obs.counter("net.frames_sent");
/// let b = obs.clone().counter("net.frames_sent"); // same underlying atomic
/// a.inc();
/// b.inc();
/// assert_eq!(obs.snapshot().counter("net.frames_sent"), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Create an empty registry with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Create an empty registry retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: EventRing::new(capacity),
                tracer: Arc::new(TraceRecorder::default()),
            }),
        }
    }

    /// The registry's span recorder (DESIGN.md §11). Shared by every
    /// clone of the registry; disabled (and effectively free) until
    /// [`TraceRecorder::enable`] is called.
    pub fn tracer(&self) -> Arc<TraceRecorder> {
        self.inner.tracer.clone()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.inner.counters, name)
    }

    /// A fresh counter that is one node's part of the counter `name`:
    /// each `add` counts into both, so the part reads the node's own
    /// events and `counter(name)` their sum over every part.
    pub fn counter_part(&self, name: &str) -> Arc<Counter> {
        Arc::new(Counter(AtomicU64::new(0), Some(self.counter(name))))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.inner.gauges, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.inner.histograms, name)
    }

    /// Append a structured event to the bounded ring.
    pub fn emit(&self, kind: &str, detail: impl Into<String>) {
        self.inner.events.emit(kind, detail);
    }

    /// Append a structured event tied to one request.
    pub fn emit_for_request(&self, kind: &str, detail: impl Into<String>, request: u64) {
        self.inner.events.emit_for_request(kind, detail, request);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.events()
    }

    /// Total events ever emitted, including ones evicted from the ring.
    pub fn events_recorded(&self) -> u64 {
        self.inner.events.total_recorded()
    }

    /// Take a point-in-time [`MetricsSnapshot`] of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            events_recorded: self.events_recorded(),
            events: self.events(),
        }
    }
}

fn get_or_create<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock();
    if let Some(v) = map.get(name) {
        return v.clone();
    }
    let v = Arc::new(T::default());
    map.insert(name.to_string(), v.clone());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_handle() {
        let obs = MetricsRegistry::new();
        let a = obs.counter("x");
        let b = obs.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn a_part_moves_with_its_total() {
        let obs = MetricsRegistry::new();
        let (a, b) = (obs.counter_part("c"), obs.counter_part("c"));
        assert_eq!((a.get(), obs.snapshot().counter("c")), (0, Some(0)));
        a.add(3);
        assert_eq!((a.get(), obs.counter("c").get()), (3, 3));
        b.inc();
        assert_eq!((a.get(), b.get()), (3, 1));
        assert_eq!(obs.snapshot().counter("c"), Some(4));
        // A plain handle to the total counts into the total alone.
        obs.counter("c").inc();
        assert_eq!((a.get(), b.get(), obs.counter("c").get()), (3, 1, 5));
    }

    #[test]
    fn clones_share_state() {
        let obs = MetricsRegistry::new();
        let clone = obs.clone();
        obs.counter("c").add(3);
        clone.gauge("g").set(-1.5);
        clone.histogram("h").record(10);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-1.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn clones_share_the_tracer() {
        let obs = MetricsRegistry::new();
        obs.tracer().enable(1);
        let clone = obs.clone();
        assert!(clone.tracer().enabled());
        assert!(Arc::ptr_eq(&obs.tracer(), &clone.tracer()));
    }

    #[test]
    fn snapshot_names_are_sorted() {
        let obs = MetricsRegistry::new();
        obs.counter("zeta").inc();
        obs.counter("alpha").inc();
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
