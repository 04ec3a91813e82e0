//! Bounded ring buffer of structured runtime events.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One structured runtime event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, 1-based, assigned at emission. Gaps in a
    /// drained snapshot indicate events evicted by the bounded ring.
    pub seq: u64,
    /// Emission time on the [`crate::trace::now_ns`] monotonic axis, so
    /// events correlate with recorded spans.
    pub timestamp_ns: u64,
    /// Request the event concerns, when it concerns exactly one.
    pub request: Option<u64>,
    /// Event category, e.g. `"failure"` or `"straggler"`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A bounded, drop-oldest ring of [`Event`]s.
///
/// Rare but high-signal occurrences (a box declared failed, a straggler
/// bypass escalated to a permanent re-route) carry context a counter
/// cannot: *which* box, *which* request. The ring keeps the most recent
/// `capacity` of them; older ones are evicted but remain reflected in
/// [`EventRing::total_recorded`].
///
/// ```
/// use netagg_obs::EventRing;
///
/// let ring = EventRing::new(2);
/// ring.emit("failure", "box 0 declared failed");
/// ring.emit("failure", "box 1 declared failed");
/// ring.emit("straggler", "request 7 re-pointed");
///
/// let events = ring.events();
/// assert_eq!(events.len(), 2); // oldest evicted
/// assert_eq!(events[0].seq, 2);
/// assert_eq!(ring.total_recorded(), 3);
/// ```
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    total: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
}

impl EventRing {
    /// Create a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            total: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Append an event, evicting the oldest if the ring is full. The
    /// event is stamped with [`crate::trace::now_ns`] and carries no
    /// request id; use [`EventRing::emit_for_request`] when the event
    /// concerns exactly one request.
    pub fn emit(&self, kind: &str, detail: impl Into<String>) {
        self.push(kind, detail.into(), None);
    }

    /// Append an event tied to one request (correlates the ring with the
    /// request's trace spans).
    pub fn emit_for_request(&self, kind: &str, detail: impl Into<String>, request: u64) {
        self.push(kind, detail.into(), Some(request));
    }

    fn push(&self, kind: &str, detail: String, request: Option<u64>) {
        let seq = self.total.fetch_add(1, Ordering::Relaxed) + 1;
        let ev = Event {
            seq,
            timestamp_ns: crate::trace::now_ns(),
            request,
            kind: kind.to_string(),
            detail,
        };
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Total events ever emitted, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_in_order_below_capacity() {
        let ring = EventRing::new(8);
        ring.emit("a", "1");
        ring.emit("b", "2");
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[0].kind.as_str()), (1, "a"));
        assert_eq!((evs[1].seq, evs[1].kind.as_str()), (2, "b"));
        assert_eq!(ring.total_recorded(), 2);
    }

    #[test]
    fn wraparound_drops_oldest_and_keeps_count() {
        let ring = EventRing::new(3);
        for i in 0..10 {
            ring.emit("tick", format!("event {i}"));
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        // Seq 8, 9, 10 survive; 1..=7 were evicted.
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        assert_eq!(evs[0].detail, "event 7");
        assert_eq!(ring.total_recorded(), 10);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = EventRing::new(0);
        ring.emit("a", "1");
        ring.emit("a", "2");
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].seq, 2);
    }

    #[test]
    fn events_are_timestamped_and_optionally_request_scoped() {
        let ring = EventRing::new(4);
        let before = crate::trace::now_ns();
        ring.emit("failure", "box 0 declared failed");
        ring.emit_for_request("repoint", "request 7 re-pointed", 7);
        let evs = ring.events();
        assert!(evs[0].timestamp_ns >= before);
        assert!(evs[1].timestamp_ns >= evs[0].timestamp_ns);
        assert_eq!(evs[0].request, None);
        assert_eq!(evs[1].request, Some(7));
    }

    #[test]
    fn concurrent_emitters_never_exceed_capacity() {
        let ring = std::sync::Arc::new(EventRing::new(16));
        #[expect(
            clippy::disallowed_methods,
            reason = "concurrency smoke test hammers the ring from plain threads"
        )]
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.emit("t", format!("{t}:{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.events().len(), 16);
        assert_eq!(ring.total_recorded(), 400);
    }
}
