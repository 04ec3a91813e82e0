//! Indexed min-heap of projected flow completions: one entry per flow.
//!
//! The engine schedules one *projected completion* per active flow and
//! re-projects it whenever a re-solve changes the flow's rate. Pushing a
//! flow that is already scheduled re-keys its entry in place, found
//! through a `flow -> heap position` table, so a superseded projection is
//! never stored, scanned or popped and the heap is as deep as the active
//! set. A heap, not a bucket ring: completion horizons are heavy-tailed
//! (Pareto flow sizes), so no one bucket width fits them — the ring this
//! replaces examined ≈ 2 000 entries a pop on the sparse 10 240-server
//! workload (DESIGN.md §13).
//!
//! Determinism: entries order on `(time, flow)`, so identical inputs pop
//! identically regardless of insertion order.

/// A scheduled flow event (projected completion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Absolute simulation time, seconds.
    pub time: f64,
    /// Flow the event belongs to.
    pub flow: u32,
    /// Version of the flow's schedule when the event was pushed. An entry
    /// whose version no longer matches the flow's is dropped, not popped.
    pub version: u32,
}

impl Event {
    fn before(&self, other: &Event) -> bool {
        self.time < other.time || (self.time == other.time && self.flow < other.flow)
    }
}

/// `pos` value of a flow with no entry.
const UNSCHEDULED: u32 = u32::MAX;

/// Min-heap of [`Event`]s on `(time, flow)`, at most one per flow.
///
/// `pop_min(versions)` returns the earliest event whose version still
/// matches `versions[flow]`. [`EventQueue::stale_discards`] counts every
/// projection superseded instead of popped: re-keyed by a later `push` of
/// its flow, or dropped at the root because the flow's version moved on
/// without a push.
#[derive(Debug)]
pub struct EventQueue {
    heap: Vec<Event>,
    /// Flow -> index of its entry in `heap`, or [`UNSCHEDULED`].
    pos: Vec<u32>,
    stale_discards: u64,
}

/// The queue's name before it was a heap. `benchmark/` builds against this
/// name and [`EventQueue::new`]; both go when ROADMAP item 4 has followed.
pub type CalendarQueue = EventQueue;

impl EventQueue {
    /// A queue for flow ids below `flows` (a larger id grows the table).
    pub fn with_capacity(flows: usize) -> Self {
        Self {
            heap: Vec::new(),
            pos: vec![UNSCHEDULED; flows],
            stale_discards: 0,
        }
    }

    /// [`EventQueue::with_capacity`] under the bucket ring's signature
    /// (see [`CalendarQueue`]); a heap has no width.
    pub fn new(slots: usize, _width: f64) -> Self {
        Self::with_capacity(slots)
    }

    /// Number of scheduled flows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no flow is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Projections superseded so far (see the type's documentation).
    pub fn stale_discards(&self) -> u64 {
        self.stale_discards
    }

    /// Schedule `ev.flow` at `ev.time`, superseding the entry the flow
    /// already has, if any.
    pub fn push(&mut self, ev: Event) {
        debug_assert!(ev.time.is_finite(), "event time {} out of range", ev.time);
        let f = ev.flow as usize;
        if f >= self.pos.len() {
            self.pos.resize(f + 1, UNSCHEDULED);
        }
        let mut at = match self.pos[f] {
            UNSCHEDULED => {
                self.heap.push(ev);
                self.heap.len() - 1
            }
            scheduled => {
                self.stale_discards += 1;
                scheduled as usize
            }
        };
        // Towards the root while `ev` orders before the hole's parent; a
        // key that moved the other way is for `sift_down` to place.
        while at > 0 {
            let parent = self.heap[(at - 1) / 2];
            if !ev.before(&parent) {
                break;
            }
            self.heap[at] = parent;
            self.pos[parent.flow as usize] = at as u32;
            at = (at - 1) / 2;
        }
        self.sift_down(at, ev);
    }

    /// The earliest valid event, left in place. Entries met at the root
    /// whose version is stale are dropped and counted.
    pub fn peek_min(&mut self, versions: &[u32]) -> Option<Event> {
        while let Some(&root) = self.heap.first() {
            if root.version == versions[root.flow as usize] {
                return Some(root);
            }
            self.stale_discards += 1;
            self.remove_root();
        }
        None
    }

    /// Remove and return the earliest valid event: minimum `(time, flow)`
    /// among entries whose version matches `versions[flow]`. `None` when
    /// no valid entry is left (the queue is then empty).
    pub fn pop_min(&mut self, versions: &[u32]) -> Option<Event> {
        let root = self.peek_min(versions)?;
        self.remove_root();
        Some(root)
    }

    fn remove_root(&mut self) {
        let root = self.heap[0];
        let last = self.heap.pop().expect("a root was just read");
        self.pos[root.flow as usize] = UNSCHEDULED;
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
    }

    /// Move the hole at `at` towards the leaves while its smaller child
    /// orders before `ev`, then write `ev` into it.
    fn sift_down(&mut self, mut at: usize, ev: Event) {
        loop {
            let mut child = 2 * at + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            let c = self.heap[child];
            if !c.before(&ev) {
                break;
            }
            self.heap[at] = c;
            self.pos[c.flow as usize] = at as u32;
            at = child;
        }
        self.heap[at] = ev;
        self.pos[ev.flow as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn queue<const N: usize>(events: [(f64, u32); N]) -> EventQueue {
        let mut q = EventQueue::with_capacity(N);
        events
            .iter()
            .for_each(|&(time, flow)| q.push(ev(time, flow, 0)));
        q
    }

    fn ev(time: f64, flow: u32, version: u32) -> Event {
        Event {
            time,
            flow,
            version,
        }
    }

    fn drain(q: &mut EventQueue, versions: &[u32]) -> Vec<u32> {
        let popped = std::iter::from_fn(|| q.pop_min(versions));
        popped.map(|e| e.flow).collect()
    }

    #[test]
    fn ties_break_on_flow_id() {
        let mut q = queue([(1.0, 2), (1.0, 0), (1.0, 1)]);
        assert_eq!(drain(&mut q, &[0; 3]), vec![0, 1, 2]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = queue([(3.2, 0), (0.1, 1), (1.7, 2), (0.9, 3)]);
        assert_eq!(drain(&mut q, &[0; 4]), vec![1, 3, 2, 0]);
        // Horizons nine decades apart, ids beyond the stated capacity.
        let mut q = EventQueue::new(1, 1e-3);
        for (t, f) in [(1_000.0, 0), (4.5, 1), (1e-6, 2), (0.5, 3)] {
            q.push(ev(t, f, 0));
        }
        assert_eq!(drain(&mut q, &[0; 4]), vec![2, 3, 1, 0]);
    }

    #[test]
    fn a_superseded_projection_is_counted_and_never_returned() {
        let mut q = queue([(1.0, 0), (2.0, 1), (0.5, 2)]);
        let mut versions = vec![0u32; 3];
        versions[0] = 1; // flow 0 re-rated: its entry is re-keyed, not doubled
        q.push(ev(3.0, 0, 1));
        assert_eq!((q.len(), q.stale_discards()), (3, 1));
        versions[2] = 1; // flow 2 moved on without a push: dropped at the root
        assert_eq!(q.peek_min(&versions).unwrap().flow, 1);
        assert_eq!((q.len(), q.stale_discards()), (2, 2));
        assert_eq!(q.pop_min(&versions).unwrap().flow, 1);
        assert_eq!(q.pop_min(&versions), Some(ev(3.0, 0, 1)));
        assert_eq!((q.pop_min(&versions), q.stale_discards()), (None, 2));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = queue([(0.3, 0), (10.0, 1)]);
        let versions = [0u32; 5];
        assert_eq!(q.pop_min(&versions).unwrap().flow, 0);
        q.push(ev(0.5, 2, 0));
        q.push(ev(50.0, 3, 0));
        assert_eq!(q.pop_min(&versions).unwrap().flow, 2);
        assert_eq!(q.pop_min(&versions).unwrap().flow, 1);
        q.push(ev(2.0, 4, 0)); // earlier than the last pop: still next
        assert_eq!(drain(&mut q, &versions), vec![4, 3]);
        assert!(q.is_empty());
    }

    /// The oracle: each flow's one entry in a flat table, the earliest
    /// valid one found by scanning it. Stale entries that order before it
    /// are dropped and counted, as a queue that reads only its root must.
    fn scan(entry: &mut [Option<Event>], versions: &[u32], dropped: &mut u64) -> Option<Event> {
        loop {
            let key = |a: &Event, b: &Event| a.time.total_cmp(&b.time).then(a.flow.cmp(&b.flow));
            let min = entry.iter().flatten().copied().min_by(key)?;
            if min.version == versions[min.flow as usize] {
                return Some(min);
            }
            entry[min.flow as usize] = None;
            *dropped += 1;
        }
    }

    #[test]
    fn random_operations_match_a_linear_scan_oracle() {
        for seed in 0..6u32 {
            let mut rng = StdRng::seed_from_u64(0xE7E47 + seed as u64);
            // Later seeds use fewer flows, so re-keys and ties dominate.
            let flows = 64usize >> seed;
            let mut q = EventQueue::with_capacity(flows);
            let (mut entry, mut superseded) = (vec![None; flows], 0u64);
            let mut versions = vec![0u32; flows];
            for step in 0..12_000 {
                let f = rng.random_range(0..flows);
                match (rng.random_range(0..10u32), entry[f]) {
                    // The flow moves on without a new projection.
                    (7, _) => versions[f] += 1,
                    (8, _) => {
                        let want = scan(&mut entry, &versions, &mut superseded);
                        assert_eq!(q.peek_min(&versions), want, "step {step}");
                    }
                    (9, _) => {
                        let want = scan(&mut entry, &versions, &mut superseded);
                        if let Some(e) = want {
                            entry[e.flow as usize] = None;
                        }
                        assert_eq!(q.pop_min(&versions), want, "step {step}");
                    }
                    // Insert or re-key: strictly earlier, strictly later,
                    // on a coarse grid (ties across flows), heavy-tailed.
                    (op, old) => {
                        let time = match (op, old) {
                            (5, Some(old)) => old.time * 0.5 - 1e-9,
                            (6, Some(old)) => old.time * 2.0 + 1e-9,
                            _ if rng.random_bool(0.5) => rng.random_range(0..8u32) as f64 * 0.25,
                            _ => 1e-6 / (1.0 - rng.random::<f64>()).powi(3),
                        };
                        versions[f] += 1;
                        let e = ev(time, f as u32, versions[f]);
                        superseded += entry[f].replace(e).is_some() as u64;
                        q.push(e);
                    }
                }
                let scheduled = entry.iter().flatten().count();
                assert_eq!(
                    (q.len(), q.stale_discards()),
                    (scheduled, superseded),
                    "step {step}"
                );
                for (i, e) in q.heap.iter().enumerate() {
                    let (at, held) = (q.pos[e.flow as usize] as usize, entry[e.flow as usize]);
                    assert_eq!((at, held), (i, Some(*e)), "step {step}: position table");
                }
            }
            while let Some(want) = scan(&mut entry, &versions, &mut superseded) {
                entry[want.flow as usize] = None;
                assert_eq!(q.pop_min(&versions), Some(want), "seed {seed}: drain");
            }
            assert_eq!(
                (q.pop_min(&versions), q.stale_discards()),
                (None, superseded)
            );
        }
    }
}
