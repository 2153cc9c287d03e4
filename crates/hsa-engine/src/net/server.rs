//! The TCP front door: event-driven reactor shards, the first of which
//! also accepts, per-tenant admission quotas, connection cap, graceful
//! shutdown.

use super::reactor::{Reactor, Shard};
use super::wire;
use crate::service::Service;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Network-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Cap on the length prefix a peer may announce. A frame above it is
    /// answered with [`wire::WireError::Oversized`] and the connection closed
    /// (the stream cannot be re-synchronised past unread bytes). The cap
    /// is announced in `HELLO_ACK`, and a [`super::Client`] refuses a
    /// longer request before sending it. It does not bound replies.
    pub max_frame_len: usize,
    /// Per-tenant admission quota: in-flight requests per header tenant
    /// id, across all connections, **before** they reach the service's
    /// global backpressure gate. Refusals answer [`wire::WireError::Quota`]
    /// without blocking the reader. 0 means no per-tenant cap.
    pub per_tenant_inflight: usize,
    /// Cap on concurrently served connections. An accept past the cap is
    /// answered with a [`wire::WireError::ConnLimit`] frame and closed — the
    /// reactor's fd tables stay bounded and overload is explicit instead
    /// of an eventual EMFILE. 0 means no cap.
    pub max_connections: usize,
    /// Reactor threads (connection shards). 0 picks a small default from
    /// the machine's parallelism; connections are dealt round-robin.
    pub reactor_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            per_tenant_inflight: 0,
            max_connections: 1024,
            reactor_threads: 0,
        }
    }
}

impl NetConfig {
    fn shard_count(&self) -> usize {
        if self.reactor_threads > 0 {
            return self.reactor_threads;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores / 2).clamp(1, 4)
    }
}

/// Wire-level counters, monotone since bind. See [`NetServer::net_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetStats {
    /// Connections accepted and handed to a reactor shard.
    pub accepted: u64,
    /// Connections refused with [`wire::WireError::ConnLimit`] at accept time.
    pub refused: u64,
    /// Requests parked because the service gate was full — each park is
    /// one backpressure stall propagated onto a TCP stream.
    pub saturation_parks: u64,
    /// `write(2)` calls issued by the reactors. `frames_out / writes` is
    /// the reply-batching ratio pipelining buys.
    pub writes: u64,
    /// Frames encoded into connection write queues.
    pub frames_out: u64,
}

#[derive(Default)]
pub(super) struct Stats {
    pub(super) accepted: AtomicU64,
    pub(super) refused: AtomicU64,
    pub(super) saturation_parks: AtomicU64,
    pub(super) writes: AtomicU64,
    pub(super) frames_out: AtomicU64,
}

pub(super) struct Inner {
    pub(super) service: Arc<Service>,
    pub(super) cfg: NetConfig,
    /// In-flight requests per header tenant id (the admission quota).
    inflight: Mutex<BTreeMap<u64, usize>>,
    /// Currently served connections, for the accept-time cap.
    live: AtomicUsize,
    pub(super) stats: Stats,
    /// Every shard's handle, complete before any shard thread starts:
    /// shard 0 deals connections through it and completion wakers poke
    /// parked shards through it.
    pub(super) shards: Vec<Shard>,
}

impl Inner {
    /// Tries to take one quota slot for `tenant`; false means refuse.
    pub(super) fn admit(&self, tenant: u64) -> bool {
        if self.cfg.per_tenant_inflight == 0 {
            return true;
        }
        let mut map = self.inflight.lock().expect("quota map poisoned");
        let slot = map.entry(tenant).or_insert(0);
        if *slot >= self.cfg.per_tenant_inflight {
            return false;
        }
        *slot += 1;
        true
    }

    pub(super) fn release(&self, tenant: u64) {
        if self.cfg.per_tenant_inflight == 0 {
            return;
        }
        let mut map = self.inflight.lock().expect("quota map poisoned");
        match map.get_mut(&tenant) {
            Some(slot) if *slot > 1 => *slot -= 1,
            _ => {
                map.remove(&tenant);
            }
        }
    }

    /// Takes a connection slot if the cap allows one, counting the
    /// connection as accepted, or else as refused; false means refuse.
    pub(super) fn conn_opened(&self) -> bool {
        let cap = self.cfg.max_connections;
        // Only shard 0 opens, so nothing can take a slot in between.
        let admit = cap == 0 || self.live.load(Ordering::Relaxed) < cap;
        if admit {
            self.live.fetch_add(1, Ordering::Relaxed);
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.refused.fetch_add(1, Ordering::Relaxed);
        }
        admit
    }

    pub(super) fn conn_closed(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A TCP server over a [`Service`], event-driven end to end.
///
/// A fixed crew replaces the old three-threads-per-socket model:
/// [`NetConfig::reactor_threads`] reactor shards, each multiplexing its
/// connections over `poll(2)`/`epoll(7)` (DESIGN.md §15). The first shard
/// also polls the listener and deals accepted connections round-robin,
/// so the shards are every thread the server runs. Per connection the
/// shard reassembles frames from partial reads, answers protocol errors
/// with typed frames, checks the per-tenant quota, and submits admitted
/// requests without blocking — when the service's global gate is full
/// the one decoded request is *parked* and the connection stops being
/// read, which propagates backpressure onto the TCP stream with bounded
/// memory, exactly like the blocking reader did. Completions route back
/// to the owning shard via ticket callbacks and a wake pipe; replies are
/// written in submission order, coalescing everything ready into a
/// single `write`.
///
/// [`NetServer::shutdown`] is graceful: stop accepting (the listener
/// closes, so a later connect is refused), stop reading, drain every
/// accepted ticket, flush, then close. Dropping the server shuts it down
/// the same way.
pub struct NetServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    reactors: Mutex<Vec<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`NetServer::local_addr`]) and starts accepting.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service,
            cfg,
            inflight: Mutex::new(BTreeMap::new()),
            live: AtomicUsize::new(0),
            stats: Stats::default(),
            shards: (0..cfg.shard_count())
                .map(|_| Shard::new())
                .collect::<io::Result<_>>()?,
        });
        let mut listener = Some(listener);
        let reactors = (0..inner.shards.len())
            .map(|index| {
                let (inner, listener) = (Arc::clone(&inner), listener.take());
                std::thread::Builder::new()
                    .name(format!("hsa-net-shard-{index}"))
                    .spawn(move || Reactor::run(inner, index, listener))
                    .expect("spawning a reactor shard")
            })
            .collect();
        Ok(NetServer {
            inner,
            local_addr,
            reactors: Mutex::new(reactors),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.inner.service
    }

    /// A snapshot of the wire-level counters.
    pub fn net_stats(&self) -> NetStats {
        let s = &self.inner.stats;
        NetStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            refused: s.refused.load(Ordering::Relaxed),
            saturation_parks: s.saturation_parks.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            frames_out: s.frames_out.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, stop reading every connection,
    /// drain all accepted tickets through the reactors, flush, close.
    /// Idempotent; returns once everything is joined.
    pub fn shutdown(&self) {
        let mut reactors = self.reactors.lock().expect("reactor handles poisoned");
        for shard in &self.inner.shards {
            shard.push_shutdown();
        }
        for handle in reactors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
