//! Failure detection (Section 3.1, "Handling failures"), as a pure core.
//!
//! Every node that is the *parent* of agg boxes in a tree (other boxes and
//! the master shim) heartbeats the child boxes its routes name. A
//! [`DetectorCore`] is that node's liveness bookkeeping and nothing else:
//! a probe is a value it returns for the shell to send, the ack an input,
//! a missed ack a deadline. After `misses` consecutive unanswered probes it
//! names the box dead; the owning [`crate::fanin::FanInCore`] then moves
//! the box's obligations and returns the permanent redirects in the same
//! transition. It holds no thread, clock, socket or watch list of its own;
//! the sends both owners' shells perform for it are the two functions at
//! the end.

use crate::conn_cache::ConnCache;
use crate::protocol::{AppId, Message, RequestId, TreeId};
use crate::tree::box_addr;
use netagg_net::NodeId;
use netagg_obs::{names, MetricsRegistry};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Detector timing parameters.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Probe interval.
    pub interval: Duration,
    /// How long to wait for a heartbeat ack.
    pub timeout: Duration,
    /// Consecutive misses before declaring failure.
    pub misses: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(100),
            timeout: Duration::from_millis(100),
            misses: 3,
        }
    }
}

/// One heartbeat to send to child box `box_id`; its ack echoes `nonce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The probed box.
    pub box_id: u32,
    /// Correlates the ack with this probe.
    pub nonce: u64,
}

/// One node's liveness view of its child boxes; see the module docs.
#[derive(Debug, Default)]
pub struct DetectorCore {
    /// The timing, and when the next probe round leaves; `None`: disabled.
    round: Option<(DetectorConfig, Instant)>,
    nonce: u64,
    /// The unanswered probe per box: its nonce and when the ack is missed.
    pending: HashMap<u32, (u64, Instant)>,
    /// Consecutive missed acks per box.
    misses: HashMap<u32, u32>,
}

impl DetectorCore {
    /// Start probing: the first round leaves one interval after `now`.
    pub fn enable(&mut self, cfg: DetectorConfig, now: Instant) {
        let first = now + cfg.interval;
        self.round = Some((cfg, first));
    }

    /// Box `from` answered probe `nonce`. An ack for anything but the
    /// outstanding probe — an older nonce, or one that already timed out —
    /// changes nothing.
    pub fn ack(&mut self, from: u32, nonce: u64) {
        if self.pending.get(&from).is_some_and(|(n, _)| *n == nonce) {
            self.pending.remove(&from);
            self.misses.remove(&from);
        }
    }

    /// These probes could not be sent: their acks are missed already.
    pub fn unsent(&mut self, probes: &[Probe], now: Instant) {
        for p in probes {
            let owed = self.pending.get_mut(&p.box_id);
            if let Some((_, missed)) = owed.filter(|(n, _)| *n == p.nonce) {
                *missed = now;
            }
        }
    }

    /// The earliest outstanding ack time-out, or the next probe round
    /// while the owner is `watching` at least one child box.
    pub fn next_deadline(&self, watching: impl FnOnce() -> bool) -> Option<Instant> {
        let round = self.round.as_ref().map(|(_, t)| *t).filter(|_| watching());
        self.pending.values().map(|(_, t)| *t).chain(round).min()
    }

    /// Run what is due at `now` against the child boxes currently routed.
    /// Returns the probes of a round that is due — all of them together,
    /// none to a box still owing an ack — and the boxes whose time-out
    /// just completed `misses` in a row. A probe to a box no longer in
    /// `boxes` (failed meanwhile by another path) lapses silently.
    pub fn on_timer(&mut self, now: Instant, boxes: &[u32]) -> (Vec<Probe>, Vec<u32>) {
        let (mut probes, mut dead) = (Vec::new(), Vec::new());
        let Some((cfg, next_round)) = &mut self.round else {
            return (probes, dead);
        };
        let missed = self.pending.iter().filter(|(_, (_, t))| *t <= now);
        for b in missed.map(|(b, _)| *b).collect::<Vec<_>>() {
            self.pending.remove(&b);
            let count = self.misses.entry(b).or_insert(0);
            *count += 1;
            if *count >= cfg.misses {
                self.misses.remove(&b);
                dead.push(b);
            }
        }
        dead.retain(|b| boxes.contains(b));
        if *next_round <= now {
            *next_round = now + cfg.interval;
            for b in boxes.iter().filter(|b| !dead.contains(b)) {
                if let Entry::Vacant(slot) = self.pending.entry(*b) {
                    self.nonce += 1;
                    slot.insert((self.nonce, now + cfg.timeout));
                    let (box_id, nonce) = (*b, self.nonce);
                    probes.push(Probe { box_id, nonce });
                }
            }
        }
        (probes, dead)
    }
}

/// The detector's own share of a firing at the node `here`: send the
/// round's heartbeats, returning those that could not be sent (for
/// [`DetectorCore::unsent`]), and count and audit every box declared dead.
pub fn announce(
    conns: &ConnCache,
    obs: &MetricsRegistry,
    here: NodeId,
    mut probes: Vec<Probe>,
    dead: &[u32],
) -> Vec<Probe> {
    for box_id in dead {
        obs.counter(names::FAILURE_DETECTIONS).inc();
        let addr = box_addr(*box_id);
        let detail = format!("detector at {here} declared box {box_id} (addr {addr}) failed");
        obs.emit(names::EVENT_FAILURE, detail);
    }
    probes.retain(|&Probe { box_id, nonce }| {
        let hb = Message::Heartbeat { from: here, nonce };
        conns.send_to(box_addr(box_id), hb.encode()).is_err()
    });
    probes
}

/// Tell a failed box's `children` — permanently — to send `(app, tree)`
/// data to `new_parent`, the node that has taken over its obligations.
pub fn repoint_children(
    conns: &ConnCache,
    obs: &MetricsRegistry,
    (app, tree): (AppId, TreeId),
    new_parent: NodeId,
    children: &[NodeId],
) {
    let msg = Message::Redirect {
        app,
        permanent: true,
        request: RequestId(0),
        tree,
        new_parent,
    };
    for child in children {
        if conns.send_to(*child, msg.encode()).is_ok() {
            obs.counter(names::FAILURE_REPOINTS).inc();
        }
    }
}
