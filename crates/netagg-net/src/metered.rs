//! Metering a transport into a [`MetricsRegistry`].
//!
//! [`MeteredTransport`] is the registry [`Interposed`] on any
//! [`crate::Transport`]; it counts every frame and payload byte crossing it:
//!
//! * `net.frames_sent` / `net.bytes_sent` — global egress counters,
//! * `net.frames_recv` / `net.bytes_recv` — global ingress counters,
//! * `net.link.<from>-><to>.frames` / `.bytes` — per-link counters,
//!   incremented on the sending side only (so each link direction is
//!   counted exactly once even when both endpoints share the registry).
//!
//! Deployments wrap their transport once ([`crate::Transport`] objects
//! compose), so agg boxes, shims and detectors are metered without any
//! change to their code.

use crate::interpose::{Interposed, Interposer};
use crate::lifecycle::Wait;
use crate::transport::{Connection, NetError, NodeId, Transport};
use bytes::Bytes;
use netagg_obs::{names, Counter, MetricsRegistry};
use std::sync::Arc;

/// A [`Transport`] that publishes `net.*` traffic metrics.
pub type MeteredTransport = Interposed<MetricsRegistry>;

impl MeteredTransport {
    /// Wrap `inner`, publishing traffic counters to `obs`.
    pub fn new(inner: Arc<dyn Transport>, obs: MetricsRegistry) -> Self {
        Self::over(inner, obs)
    }

    /// The registry this transport publishes to.
    pub fn registry(&self) -> &MetricsRegistry {
        self.hook()
    }
}

/// One connection's counter handles.
pub struct LinkCounters {
    frames_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    frames_recv: Arc<Counter>,
    bytes_recv: Arc<Counter>,
    /// `net.link.<local>-><peer>.frames` / `.bytes` (egress direction).
    link_frames: Arc<Counter>,
    link_bytes: Arc<Counter>,
}

impl Interposer for MetricsRegistry {
    type Link = LinkCounters;

    fn link(&self, local: NodeId, peer: NodeId) -> Result<LinkCounters, NetError> {
        Ok(LinkCounters {
            frames_sent: self.counter(names::NET_FRAMES_SENT),
            bytes_sent: self.counter(names::NET_BYTES_SENT),
            frames_recv: self.counter(names::NET_FRAMES_RECV),
            bytes_recv: self.counter(names::NET_BYTES_RECV),
            link_frames: self.counter(&names::net_link_frames(local, peer)),
            link_bytes: self.counter(&names::net_link_bytes(local, peer)),
        })
    }

    fn after_send(c: &mut LinkCounters, len: usize) {
        c.frames_sent.inc();
        c.bytes_sent.add(len as u64);
        c.link_frames.inc();
        c.link_bytes.add(len as u64);
    }

    fn recv(
        c: &mut LinkCounters,
        inner: &mut dyn Connection,
        wait: Wait<'_>,
    ) -> Result<Bytes, NetError> {
        let frame = wait.recv(inner)?;
        c.frames_recv.inc();
        c.bytes_recv.add(frame.len() as u64);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelTransport;
    use std::time::Duration;

    #[test]
    fn counts_frames_and_bytes_per_link() {
        let obs = MetricsRegistry::new();
        let t = MeteredTransport::new(Arc::new(ChannelTransport::new()), obs.clone());
        let mut listener = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        c.send(Bytes::from_static(b"hello")).unwrap();
        let mut accepted = listener.accept_timeout(Duration::from_secs(1)).unwrap();
        let got = accepted.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&got[..], b"hello");
        accepted.send(Bytes::from_static(b"ack!")).unwrap();
        let back = c.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&back[..], b"ack!");

        let snap = obs.snapshot();
        assert_eq!(snap.counter("net.frames_sent"), Some(2));
        assert_eq!(snap.counter("net.frames_recv"), Some(2));
        assert_eq!(snap.counter("net.bytes_sent"), Some(9));
        assert_eq!(snap.counter("net.bytes_recv"), Some(9));
        assert_eq!(snap.counter("net.link.2->1.frames"), Some(1));
        assert_eq!(snap.counter("net.link.2->1.bytes"), Some(5));
        assert_eq!(snap.counter("net.link.1->2.frames"), Some(1));
        assert_eq!(snap.counter("net.link.1->2.bytes"), Some(4));
    }

    #[test]
    fn unmetered_errors_pass_through() {
        let obs = MetricsRegistry::new();
        let t = MeteredTransport::new(Arc::new(ChannelTransport::new()), obs.clone());
        assert!(matches!(t.connect(5, 99), Err(NetError::NotFound(99))));
        assert_eq!(obs.snapshot().counter("net.frames_sent"), None);
    }
}
