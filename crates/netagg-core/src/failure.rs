//! Failure detection (Section 3.1, "Handling failures"), as a pure core.
//!
//! Every node that is the *parent* of agg boxes in a tree (other boxes and
//! the master shim) heartbeats the child boxes its routes name. A
//! [`DetectorCore`] is that node's liveness bookkeeping and nothing else:
//! a probe is a `Heartbeat` it returns for the shell to send, the ack an
//! input, a missed ack a deadline, a probe that could not be sent a miss at
//! once. After `misses` consecutive unanswered probes it names the box
//! dead; the owning [`crate::fanin::FanInCore`] then moves the box's
//! obligations and returns the permanent redirects in the same transition.
//! It holds no thread, clock, connection or watch list of its own.

use crate::protocol::Message;
use crate::tree::box_addr;
use netagg_net::NodeId;
use std::collections::btree_map::{BTreeMap, Entry};
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

/// One node's liveness view of its child boxes; see the module docs.
#[derive(Debug, Default)]
pub struct DetectorCore {
    /// The timing, and when the next probe round leaves; `None`: disabled.
    round: Option<(DetectorConfig, Instant)>,
    nonce: u64,
    /// The unanswered probe per box: its nonce and when the ack is missed.
    pending: BTreeMap<u32, (u64, Instant)>,
    /// Consecutive missed acks per box.
    misses: BTreeMap<u32, u32>,
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

    /// `msg` could not be sent to `to`. The outstanding probe of the box
    /// there is missed already — as of when it left, so the next firing
    /// counts it; anything else leaves the liveness view as it is.
    pub fn send_failed(&mut self, to: NodeId, msg: &Message) {
        let (Message::Heartbeat { nonce, .. }, Some((cfg, _))) = (msg, &self.round) else {
            return;
        };
        let mut owed = self.pending.iter_mut();
        let probe = owed.find(|(b, (n, _))| box_addr(**b) == to && n == nonce);
        if let Some((_, (_, missed))) = probe {
            *missed -= cfg.timeout;
        }
    }

    /// The owner could not read acks until `now`: its readers were held
    /// back by its own backlog (DESIGN.md §9), and acks share their
    /// connections. A time-out due by then is no miss: the probe lapses
    /// and the next round probes again.
    pub fn excuse(&mut self, now: Instant) {
        self.pending.retain(|_, (_, missed)| *missed > now);
    }

    /// The earliest outstanding ack time-out, or the next probe round
    /// while the owner is `watching` at least one child box.
    pub fn next_deadline(&self, watching: impl FnOnce() -> bool) -> Option<Instant> {
        let round = self.round.as_ref().map(|(_, t)| *t).filter(|_| watching());
        self.pending.values().map(|(_, t)| *t).chain(round).min()
    }

    /// Run what is due at `now` against the child boxes currently routed,
    /// for the node at `here`. Returns the `Heartbeat`s of a round that is
    /// due — all of them together, none to a box still owing an ack — and
    /// the boxes whose time-out just completed `misses` in a row. A probe
    /// to a box no longer in `boxes` (failed meanwhile by another path)
    /// lapses silently.
    pub fn on_timer(
        &mut self,
        now: Instant,
        here: NodeId,
        boxes: &[u32],
    ) -> (Vec<(NodeId, Message)>, Vec<u32>) {
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
                    let (from, nonce) = (here, self.nonce);
                    probes.push((box_addr(*b), Message::Heartbeat { from, nonce }));
                }
            }
        }
        (probes, dead)
    }
}
