//! The one interposer: everything that sits *on* a transport — metering
//! ([`crate::MeteredTransport`]), fault injection
//! ([`crate::FaultTransport`]), link emulation ([`crate::EmuNet`]) — is
//! [`Interposed`] over a small [`Interposer`] hook.
//!
//! [`Interposed`] owns the only forwarding `impl Transport` / `impl
//! Listener` / `impl Connection` in the crate: it wraps what the inner
//! transport binds, dials and accepts, passes `attach_obs` down, and calls
//! the hook at the five places a concern can care about — admitting a
//! bind or connect, opening a connection, before a send, after a send,
//! around a receive. Hooks stack by nesting (`Metered(Fault(base))`) and
//! never learn of one another.

use crate::lifecycle::{CancelToken, Readiness, Wait};
use crate::transport::{Connection, Listener, NetError, NodeId, Transport};
use bytes::Bytes;
use netagg_obs::MetricsRegistry;
use std::sync::Arc;
use std::time::Duration;

/// What one concern does at the hook points of an [`Interposed`]
/// transport. The hook itself is a cheap shared handle: every listener
/// keeps a clone to open the connections it accepts.
pub trait Interposer: Clone + Send + Sync + 'static {
    /// What the hook keeps per connection.
    type Link: Send + 'static;

    /// Veto a `bind` at `local` (`peer` is `None`) or a `connect` from
    /// `local` to `peer`, before the inner transport sees it.
    fn admit(&self, _local: NodeId, _peer: Option<NodeId>) -> Result<(), NetError> {
        Ok(())
    }

    /// State for a connection the inner transport just opened from, or
    /// accepted at, `local`; an error drops the connection.
    fn link(&self, local: NodeId, peer: NodeId) -> Result<Self::Link, NetError>;

    /// Before a payload of `len` bytes reaches the inner connection; an
    /// error fails the send without sending.
    fn before_send(_link: &mut Self::Link, _len: usize) -> Result<(), NetError> {
        Ok(())
    }

    /// After the inner connection took the payload.
    fn after_send(_link: &mut Self::Link, _len: usize) {}

    /// Around a receive; the default is the inner connection's own.
    fn recv(
        _link: &mut Self::Link,
        inner: &mut dyn Connection,
        wait: Wait<'_>,
    ) -> Result<Bytes, NetError> {
        wait.recv(inner)
    }
}

/// A [`Transport`] with the hook `H` interposed on `T`.
#[derive(Clone)]
pub struct Interposed<H, T = Arc<dyn Transport>> {
    inner: T,
    hook: H,
}

impl<H, T> Interposed<H, T> {
    /// Interpose `hook` on `inner`.
    pub fn over(inner: T, hook: H) -> Self {
        Self { inner, hook }
    }

    /// The interposed hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }
}

impl<H: Interposer, T: Transport> Transport for Interposed<H, T> {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        self.hook.admit(local, None)?;
        Ok(Box::new(InterposedListener {
            inner: self.inner.bind(local)?,
            local,
            hook: self.hook.clone(),
        }))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        self.hook.admit(local, Some(peer))?;
        let inner = self.inner.connect(local, peer)?;
        let link = self.hook.link(local, peer)?;
        Ok(Box::new(InterposedConnection::<H> { inner, link }))
    }

    fn attach_obs(&self, obs: &MetricsRegistry) {
        self.inner.attach_obs(obs);
    }
}

struct InterposedListener<H> {
    inner: Box<dyn Listener>,
    local: NodeId,
    hook: H,
}

impl<H: Interposer> InterposedListener<H> {
    fn accept_until(&mut self, wait: Wait<'_>) -> Result<Box<dyn Connection>, NetError> {
        let inner = wait.accept(&mut *self.inner)?;
        let link = self.hook.link(self.local, inner.peer())?;
        Ok(Box::new(InterposedConnection::<H> { inner, link }))
    }
}

impl<H: Interposer> Listener for InterposedListener<H> {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        self.accept_until(Wait::Forever)
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        self.accept_until(Wait::For(timeout))
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        self.accept_until(Wait::Cancel(cancel))
    }
}

struct InterposedConnection<H: Interposer> {
    inner: Box<dyn Connection>,
    link: H::Link,
}

impl<H: Interposer> Connection for InterposedConnection<H> {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        let len = payload.len();
        H::before_send(&mut self.link, len)?;
        self.inner.send(payload)?;
        H::after_send(&mut self.link, len);
        Ok(())
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        H::recv(&mut self.link, &mut *self.inner, Wait::Forever)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        H::recv(&mut self.link, &mut *self.inner, Wait::For(timeout))
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        H::recv(&mut self.link, &mut *self.inner, Wait::Cancel(cancel))
    }

    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn set_readiness(&mut self, ready: &Readiness, key: u64) -> bool {
        self.inner.set_readiness(ready, key)
    }
}
