//! Fault injection: kill endpoints, delay messages, and fire
//! deterministic fault schedules.
//!
//! Wraps any [`Transport`]. Killing a node makes every connection touching
//! it fail with [`NetError::Injected`], which is how the failure-recovery
//! experiments simulate an agg-box crash; per-node delays simulate
//! stragglers. A [`FaultStep`] schedule kills a node at an exact point in
//! the message flow (after the Nth frame delivered to a watched node), so
//! recovery tests can reproduce precise kill timings from a seed instead
//! of relying on sleeps.

use crate::hash::{Map, Set};
use crate::interpose::{Interposed, Interposer};
use crate::lifecycle::Wait;
use crate::transport::{Connection, NetError, NodeId, Transport};
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked receive and a delayed send look for a kill.
const KILL_POLL: Duration = Duration::from_millis(20);

/// One step of a deterministic fault schedule: once `after_frames` frames
/// have been delivered to `watch` (across all connections of the wrapping
/// [`FaultTransport`]), kill `kill_target`. The kill fires *after* the
/// Nth frame is through, so the frame itself is delivered.
///
/// Frame counts include every message type on the wire — heartbeats,
/// redirects and replays as well as data — which is exactly the point:
/// sweeping `after_frames` from a seeded RNG exercises kills at arbitrary
/// protocol moments, and recovery must be correct for all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStep {
    /// Node whose delivered-frame count triggers the step.
    pub watch: NodeId,
    /// Fire after this many frames have been delivered to `watch`.
    pub after_frames: u64,
    /// Node to kill when the step fires.
    pub kill_target: NodeId,
}

#[derive(Default)]
struct FaultState {
    dead: Set<NodeId>,
    delay: Map<NodeId, Duration>,
    /// Frames delivered per node; each link keeps its peer's counter.
    frames: Map<NodeId, Arc<AtomicU64>>,
    schedule: Vec<FaultStep>,
}

/// Shared controller used to inject faults at runtime.
#[derive(Clone, Default)]
pub struct FaultController {
    state: Arc<RwLock<FaultState>>,
    /// A kill, a delay or a step is armed: only then does a frame lock.
    armed: Arc<AtomicBool>,
}

impl FaultController {
    /// Create a controller with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    fn arm<T>(&self, f: impl FnOnce(&mut FaultState) -> T) -> T {
        let mut s = self.state.write();
        let out = f(&mut s);
        let armed = !(s.dead.is_empty() && s.delay.is_empty() && s.schedule.is_empty());
        self.armed.store(armed, Ordering::SeqCst);
        out
    }

    /// Kill a node: all of its present and future traffic fails.
    pub fn kill(&self, node: NodeId) {
        self.arm(|s| s.dead.insert(node));
    }

    /// Revive a previously killed node (new connections succeed again).
    pub fn revive(&self, node: NodeId) {
        self.arm(|s| s.dead.remove(&node));
    }

    /// Whether `node` is currently killed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.state.read().dead.contains(&node)
    }

    /// Add a fixed per-message send delay for a node (straggler injection).
    pub fn delay(&self, node: NodeId, d: Duration) {
        self.arm(|s| s.delay.insert(node, d));
    }

    /// Remove a node's send delay.
    pub fn clear_delay(&self, node: NodeId) {
        self.arm(|s| s.delay.remove(&node));
    }

    /// Arm a deterministic fault step (see [`FaultStep`]). Steps are
    /// independent; several can watch the same node.
    pub fn schedule(&self, step: FaultStep) {
        self.arm(|s| s.schedule.push(step));
    }

    /// Drop all armed fault steps (delivered-frame counts are kept).
    pub fn clear_schedule(&self) {
        self.arm(|s| s.schedule.clear());
    }

    /// Total frames successfully delivered to `node` so far.
    pub fn frames_delivered(&self, node: NodeId) -> u64 {
        let s = self.state.read();
        s.frames.get(&node).map_or(0, |n| n.load(Ordering::SeqCst))
    }
}

/// A transport that consults a [`FaultController`] on every operation.
pub type FaultTransport<T> = Interposed<FaultController, T>;

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner` so it consults `ctl` on every operation.
    pub fn new(inner: T, ctl: FaultController) -> Self {
        Self::over(inner, ctl)
    }

    /// Handle for injecting faults at runtime.
    pub fn controller(&self) -> FaultController {
        self.hook().clone()
    }
}

/// One connection's endpoints, their controller and the peer's frame count.
pub struct FaultLink {
    ctl: FaultController,
    local: NodeId,
    peer: NodeId,
    delivered: Arc<AtomicU64>,
}

impl FaultLink {
    /// Fails once either endpoint is dead; else the local node's send delay.
    fn check(&self) -> Result<Option<Duration>, NetError> {
        if !self.ctl.armed.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let s = self.ctl.state.read();
        if s.dead.contains(&self.local) || s.dead.contains(&self.peer) {
            return Err(NetError::Injected("endpoint dead"));
        }
        Ok(s.delay.get(&self.local).copied())
    }
}

impl Interposer for FaultController {
    type Link = FaultLink;

    fn admit(&self, local: NodeId, peer: Option<NodeId>) -> Result<(), NetError> {
        let s = self.state.read();
        match peer {
            None if s.dead.contains(&local) => Err(NetError::Injected("bind on dead node")),
            Some(p) if s.dead.contains(&local) || s.dead.contains(&p) => {
                Err(NetError::Injected("connect to/from dead node"))
            }
            _ => Ok(()),
        }
    }

    fn link(&self, local: NodeId, peer: NodeId) -> Result<FaultLink, NetError> {
        // A dialled connection was admitted a moment ago; an accepted one
        // is vetted here.
        if self.is_dead(local) {
            return Err(NetError::Injected("accept on dead node"));
        }
        let (ctl, mut s) = (self.clone(), self.state.write());
        let delivered = s.frames.entry(peer).or_default().clone();
        Ok(FaultLink {
            ctl,
            local,
            peer,
            delivered,
        })
    }

    /// Sleep out the configured delay in slices, re-reading it and the
    /// kill set each slice: `clear_delay` releases an in-flight delayed
    /// send promptly (a 30 s straggler delay must not pin a shutdown), and
    /// a kill that lands during the sleep fails the send instead of
    /// delivering to — and counting a frame for — a dead node. The check
    /// that ends the loop is the last thing before the send.
    fn before_send(link: &mut FaultLink, _len: usize) -> Result<(), NetError> {
        let mut t0 = None;
        while let Some(d) = link.check()? {
            let elapsed = t0.get_or_insert_with(Instant::now).elapsed();
            if elapsed >= d {
                break;
            }
            std::thread::sleep((d - elapsed).min(KILL_POLL));
        }
        Ok(())
    }

    /// Record the delivery to the peer and fire the armed fault steps it
    /// satisfies.
    fn after_send(link: &mut FaultLink, _len: usize) {
        let count = link.delivered.fetch_add(1, Ordering::SeqCst) + 1;
        if !link.ctl.armed.load(Ordering::SeqCst) {
            return;
        }
        let peer = link.peer;
        link.ctl.arm(|s| {
            let dead = &mut s.dead;
            s.schedule.retain(|step| {
                let fires = step.watch == peer && count >= step.after_frames;
                if fires {
                    dead.insert(step.kill_target);
                }
                !fires
            });
        });
    }

    /// Poll, so that a node killed mid-receive unblocks promptly: a kill is
    /// not a cancel, and the inner transport's wake-up does not cover it.
    fn recv(
        link: &mut FaultLink,
        inner: &mut dyn Connection,
        wait: Wait<'_>,
    ) -> Result<Bytes, NetError> {
        if let Wait::For(timeout) = wait {
            link.check()?;
            let r = inner.recv_timeout(timeout);
            link.check()?;
            return r;
        }
        loop {
            link.check()?;
            if matches!(wait, Wait::Cancel(c) if c.is_cancelled()) {
                return Err(NetError::Cancelled);
            }
            // A timed poll on purpose: a kill must interrupt a blocked recv
            // even when the inner transport never wakes (a documented
            // carve-out of §9 invariant 1; a kill is not a cancel).
            match inner.recv_timeout(KILL_POLL) {
                Err(NetError::Timeout) => continue,
                other => return other,
            }
        }
    }
}

/// A tiny deterministic RNG (splitmix64) for seeded fault schedules.
/// Not cryptographic; its only job is to make a recovery test's kill
/// timings reproducible from a printed seed.
#[derive(Debug, Clone)]
pub struct DetRng(u64);

impl DetRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let z = netagg_obs::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform-ish value in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelTransport;
    use std::thread;

    fn setup() -> (FaultTransport<ChannelTransport>, FaultController) {
        let ctl = FaultController::new();
        let t = FaultTransport::new(ChannelTransport::new(), ctl.clone());
        (t, ctl)
    }

    #[test]
    fn kill_blocks_new_connections() {
        let (t, ctl) = setup();
        let _l = t.bind(1).unwrap();
        ctl.kill(1);
        assert!(matches!(t.connect(2, 1), Err(NetError::Injected(_))));
        ctl.revive(1);
        assert!(t.connect(2, 1).is_ok());
    }

    #[test]
    fn kill_fails_existing_connections() {
        let (t, ctl) = setup();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        c.send(Bytes::from_static(b"ok")).unwrap();
        server.recv().unwrap();
        ctl.kill(1);
        assert!(matches!(
            c.send(Bytes::from_static(b"x")),
            Err(NetError::Injected(_))
        ));
    }

    #[test]
    fn kill_unblocks_pending_recv() {
        let (t, ctl) = setup();
        let mut l = t.bind(1).unwrap();
        let _c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "test parks a receiver to observe the injected kill"
        )]
        let h = thread::spawn(move || server.recv());
        thread::sleep(Duration::from_millis(30));
        ctl.kill(2);
        let r = h.join().unwrap();
        assert!(matches!(r, Err(NetError::Injected(_))), "{r:?}");
    }

    #[test]
    fn kill_during_a_delayed_send_fails_it_and_delivers_nothing() {
        let (t, ctl) = setup();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let _server = l.accept().unwrap();
        ctl.delay(2, Duration::from_secs(5));
        let killer = ctl.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test kills the peer while the send below sits out its delay"
        )]
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            killer.kill(1);
        });
        let t0 = Instant::now();
        let sent = c.send(Bytes::from_static(b"late"));
        assert!(matches!(sent, Err(NetError::Injected(_))), "{sent:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "the kill must end the sleep, not wait out the delay"
        );
        assert_eq!(ctl.frames_delivered(1), 0);
        h.join().unwrap();
    }

    #[test]
    fn schedule_kills_after_nth_delivered_frame() {
        let (t, ctl) = setup();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        ctl.schedule(FaultStep {
            watch: 1,
            after_frames: 3,
            kill_target: 9,
        });
        for _ in 0..2 {
            c.send(Bytes::from_static(b"x")).unwrap();
            server.recv().unwrap();
        }
        assert!(!ctl.is_dead(9), "step must not fire before frame 3");
        // The third frame is still delivered; the kill lands after it.
        c.send(Bytes::from_static(b"x")).unwrap();
        server.recv().unwrap();
        assert!(ctl.is_dead(9));
        assert_eq!(ctl.frames_delivered(1), 3);
        // The step is consumed: further traffic does not re-fire it.
        ctl.revive(9);
        c.send(Bytes::from_static(b"x")).unwrap();
        assert!(!ctl.is_dead(9));
    }

    #[test]
    fn clear_schedule_disarms_steps() {
        let (t, ctl) = setup();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let _server = l.accept().unwrap();
        ctl.schedule(FaultStep {
            watch: 1,
            after_frames: 1,
            kill_target: 9,
        });
        ctl.clear_schedule();
        c.send(Bytes::from_static(b"x")).unwrap();
        assert!(!ctl.is_dead(9));
    }

    #[test]
    fn det_rng_is_deterministic_per_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(1, 100)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(1, 100)).collect();
        assert_eq!(va, vb);
        assert!(va.iter().all(|v| (1..100).contains(v)));
        let mut c = DetRng::new(43);
        let vc: Vec<u64> = (0..8).map(|_| c.gen_range(1, 100)).collect();
        assert_ne!(va, vc, "different seeds should diverge");
    }

    #[test]
    fn delay_slows_sends() {
        let (t, ctl) = setup();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let _server = l.accept().unwrap();
        ctl.delay(2, Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        c.send(Bytes::from_static(b"slow")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
        ctl.clear_delay(2);
        let t1 = std::time::Instant::now();
        c.send(Bytes::from_static(b"fast")).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(20));
    }
}
