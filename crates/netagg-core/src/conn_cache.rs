//! One connection cache for every sender in the platform: worker data
//! plane, master control plane (heartbeats and redirects included) and the
//! box's egress, timer and heartbeat acks.
//!
//! Persistent connections keep traffic ordered per peer and avoid a dial
//! per message. The policy is dial once, redial once on a stale cached
//! connection: a peer that restarted is reached on the second attempt, a
//! peer that is down fails the send without further retries.

use crate::lifecycle::OrderedMutex;
use bytes::Bytes;
use netagg_net::{lock_order, Connection, NetError, NodeId, Transport};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Cached connections from one local address, one per destination.
pub struct ConnCache {
    transport: Arc<dyn Transport>,
    from: NodeId,
    conns: OrderedMutex<HashMap<NodeId, Box<dyn Connection>>>,
}

impl ConnCache {
    /// An empty cache dialling from `from` over `transport`.
    pub fn new(transport: Arc<dyn Transport>, from: NodeId) -> Self {
        Self {
            transport,
            from,
            conns: OrderedMutex::new(lock_order::CONN_CACHE, HashMap::new()),
        }
    }

    /// Send `frame` to `dest` over the cached connection. The cache lock
    /// is held throughout (`conn.cache` is declared blocking-tolerant,
    /// §15): racing dials end in one connection per destination, the first
    /// send precedes any redial that would replace it, and concurrent
    /// senders to one destination stay ordered.
    pub fn send_to(&self, dest: NodeId, frame: Bytes) -> Result<(), NetError> {
        let mut conns = self.conns.lock();
        let mut dialled = false;
        loop {
            let conn = match conns.entry(dest) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => {
                    dialled = true;
                    v.insert(self.transport.connect(self.from, dest)?)
                }
            };
            match conn.send(frame.clone()) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    conns.remove(&dest);
                    if dialled {
                        return Err(e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netagg_net::ChannelTransport;

    #[test]
    fn redials_once_when_the_cached_connection_went_stale() {
        let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
        let cache = ConnCache::new(transport.clone(), 1);
        assert!(cache.send_to(2, Bytes::from_static(b"nobody")).is_err());
        let mut listener = transport.bind(2).unwrap();
        cache.send_to(2, Bytes::from_static(b"a")).unwrap();
        drop(listener.accept().unwrap()); // peer closes: the cached conn is stale
        cache.send_to(2, Bytes::from_static(b"b")).unwrap();
        let mut redialled = listener.accept().unwrap();
        assert_eq!(redialled.recv().unwrap().as_ref(), b"b");
    }
}
