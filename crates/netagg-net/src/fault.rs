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

use crate::lifecycle::CancelToken;
use crate::transport::{Connection, Listener, NetError, NodeId, Transport};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

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

/// Shared controller used to inject faults at runtime.
#[derive(Clone, Default)]
pub struct FaultController {
    dead: Arc<RwLock<HashSet<NodeId>>>,
    delay: Arc<RwLock<HashMap<NodeId, Duration>>>,
    frames: Arc<RwLock<HashMap<NodeId, u64>>>,
    schedule: Arc<RwLock<Vec<FaultStep>>>,
}

impl FaultController {
    /// Create a controller with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill a node: all of its present and future traffic fails.
    pub fn kill(&self, node: NodeId) {
        self.dead.write().insert(node);
    }

    /// Revive a previously killed node (new connections succeed again).
    pub fn revive(&self, node: NodeId) {
        self.dead.write().remove(&node);
    }

    /// Whether `node` is currently killed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.read().contains(&node)
    }

    /// Add a fixed per-message send delay for a node (straggler injection).
    pub fn delay(&self, node: NodeId, d: Duration) {
        self.delay.write().insert(node, d);
    }

    /// Remove a node's send delay.
    pub fn clear_delay(&self, node: NodeId) {
        self.delay.write().remove(&node);
    }

    fn delay_of(&self, node: NodeId) -> Option<Duration> {
        self.delay.read().get(&node).copied()
    }

    /// Arm a deterministic fault step (see [`FaultStep`]). Steps are
    /// independent; several can watch the same node.
    pub fn schedule(&self, step: FaultStep) {
        self.schedule.write().push(step);
    }

    /// Drop all armed fault steps (delivered-frame counts are kept).
    pub fn clear_schedule(&self) {
        self.schedule.write().clear();
    }

    /// Total frames successfully delivered to `node` so far.
    pub fn frames_delivered(&self, node: NodeId) -> u64 {
        self.frames.read().get(&node).copied().unwrap_or(0)
    }

    /// Record a successful delivery to `peer` and fire any armed fault
    /// steps it satisfies.
    fn note_delivery(&self, peer: NodeId) {
        let count = {
            let mut frames = self.frames.write();
            let c = frames.entry(peer).or_insert(0);
            *c += 1;
            *c
        };
        let fired: Vec<NodeId> = {
            let mut sched = self.schedule.write();
            let mut fired = Vec::new();
            sched.retain(|s| {
                if s.watch == peer && count >= s.after_frames {
                    fired.push(s.kill_target);
                    false
                } else {
                    true
                }
            });
            fired
        };
        for target in fired {
            self.kill(target);
        }
    }
}

/// A transport wrapper that consults a [`FaultController`].
pub struct FaultTransport<T: Transport> {
    inner: T,
    ctl: FaultController,
}

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner` so it consults `ctl` on every operation.
    pub fn new(inner: T, ctl: FaultController) -> Self {
        Self { inner, ctl }
    }

    /// Handle for injecting faults at runtime.
    pub fn controller(&self) -> FaultController {
        self.ctl.clone()
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        if self.ctl.is_dead(local) {
            return Err(NetError::Injected("bind on dead node"));
        }
        let inner = self.inner.bind(local)?;
        Ok(Box::new(FaultListener {
            inner,
            local,
            ctl: self.ctl.clone(),
        }))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        if self.ctl.is_dead(local) || self.ctl.is_dead(peer) {
            return Err(NetError::Injected("connect to/from dead node"));
        }
        let inner = self.inner.connect(local, peer)?;
        Ok(Box::new(FaultConnection {
            inner,
            local,
            ctl: self.ctl.clone(),
        }))
    }

    fn attach_obs(&self, obs: &netagg_obs::MetricsRegistry) {
        self.inner.attach_obs(obs);
    }
}

struct FaultListener {
    inner: Box<dyn Listener>,
    local: NodeId,
    ctl: FaultController,
}

impl FaultListener {
    fn wrap(&self, c: Box<dyn Connection>) -> Result<Box<dyn Connection>, NetError> {
        if self.ctl.is_dead(self.local) {
            return Err(NetError::Injected("accept on dead node"));
        }
        Ok(Box::new(FaultConnection {
            inner: c,
            local: self.local,
            ctl: self.ctl.clone(),
        }))
    }
}

impl Listener for FaultListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept()?;
        self.wrap(c)
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept_timeout(timeout)?;
        self.wrap(c)
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept_cancellable(cancel)?;
        self.wrap(c)
    }
}

struct FaultConnection {
    inner: Box<dyn Connection>,
    local: NodeId,
    ctl: FaultController,
}

impl FaultConnection {
    fn check(&self) -> Result<(), NetError> {
        if self.ctl.is_dead(self.local) || self.ctl.is_dead(self.inner.peer()) {
            Err(NetError::Injected("endpoint dead"))
        } else {
            Ok(())
        }
    }
}

impl Connection for FaultConnection {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        self.check()?;
        // Sleep out the configured delay in slices, re-reading it each
        // slice so `clear_delay` releases an in-flight delayed send
        // promptly (a 30 s straggler delay must not pin a shutdown).
        let t0 = std::time::Instant::now();
        while let Some(d) = self.ctl.delay_of(self.local) {
            let elapsed = t0.elapsed();
            if elapsed >= d {
                break;
            }
            std::thread::sleep((d - elapsed).min(Duration::from_millis(20)));
        }
        self.inner.send(payload)?;
        self.ctl.note_delivery(self.inner.peer());
        Ok(())
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        // Poll so a node killed mid-recv unblocks promptly.
        loop {
            self.check()?;
            match self.inner.recv_timeout(Duration::from_millis(20)) {
                Err(NetError::Timeout) => continue,
                other => return other,
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        self.check()?;
        let r = self.inner.recv_timeout(timeout);
        self.check()?;
        r
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        // Poll so both cancellation and a node killed mid-recv unblock
        // promptly (a kill is not a cancel, so the inner transport's
        // wakeup alone does not cover it).
        loop {
            self.check()?;
            if cancel.is_cancelled() {
                return Err(NetError::Cancelled);
            }
            // netagg-lint: allow(no-poll-shutdown) a kill must interrupt a blocked recv even when the inner transport never wakes; documented carve-out of §9 invariant 1
            match self.inner.recv_timeout(Duration::from_millis(20)) {
                Err(NetError::Timeout) => continue,
                other => return other,
            }
        }
    }

    fn peer(&self) -> NodeId {
        self.inner.peer()
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
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
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
