//! The blocking client: [`Client::call`] sends any [`Request`] and waits
//! for its answer, and a pipelined send/recv pair serves throughput
//! drivers. A client holds one socket, which it both writes and reads.

use super::wire::{self, FrameEncoder, NetReply, WireError};
use crate::service::{Reply, Request, TenantId};
use crate::session::SessionStats;
use hsa_tree::{CostModel, CruTree};
use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What a remote call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes disconnects and truncated frames).
    Io(io::Error),
    /// The peer violated the protocol (bad frame, wrong answer kind).
    Protocol(String),
    /// The server answered an explicit error frame. Service-level errors
    /// arrive as [`WireError::Service`] with their stable code (the
    /// verify-mode passthrough: a remote `verify_failed` surfaces here
    /// exactly like [`crate::ServiceError::VerifyFailed`] does in
    /// process). A server at its connection cap refuses the handshake
    /// with [`WireError::ConnLimit`] through this same variant.
    Remote(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Remote(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking connection to a [`super::NetServer`].
///
/// [`Client::call`] sends one [`Request`], built with the same
/// `Request::*` constructors as in process, and waits for its answer;
/// [`Client::open_tenant`] and [`Client::close_tenant`] wrap it for the
/// two tenant kinds. The lower-level [`Client::send`] /
/// [`Client::recv_any`] pair pipelines: many requests in flight on one
/// connection, answers matched back by correlation id. [`Client::send`]
/// only appends to a reused encode buffer — nothing hits the socket
/// until [`Client::flush`] (or the first receive, which flushes
/// implicitly), so a pipelined burst travels as one `write(2)` and a
/// sequential call still sees no extra latency.
///
/// A client that learned an [`InstanceId`] from a first-contact reply can
/// reconnect after a drop and resume id-addressed requests immediately —
/// ids are structural content hashes, stable across connections as long
/// as the server process (and its engine cache) lives; persist the raw
/// id ([`InstanceId::raw`]) and rebuild it with [`InstanceId::from_raw`].
///
/// [`InstanceId`]: crate::InstanceId
/// [`InstanceId::raw`]: crate::InstanceId::raw
/// [`InstanceId::from_raw`]: crate::InstanceId::from_raw
pub struct Client {
    /// The connection's one socket, which both sends and receives.
    stream: TcpStream,
    /// The reused encode queue: frames accumulate here between flushes.
    out: Vec<u8>,
    /// The reused decode buffer: one `read(2)` can pull a whole burst of
    /// pipelined answers, which then pop here without further syscalls.
    dec: wire::FrameDecoder,
    enc: FrameEncoder,
    /// The cap the server announced in its handshake answer: the longest
    /// frame it accepts, so the longest this client queues.
    max_frame_len: usize,
    next_corr: u64,
}

impl Client {
    /// Connects and completes the handshake. The server answers with its
    /// frame cap, which this client then enforces on its own frames:
    /// [`Client::send`] and everything built on it ([`Client::call`],
    /// [`Client::open_tenant`], [`Client::close_tenant`]) refuse a longer
    /// request with [`ClientError::Protocol`] before queueing anything,
    /// so the connection stays usable. Answers are
    /// received under this side's own [`wire::DEFAULT_MAX_FRAME_LEN`]. A
    /// server past [`super::NetConfig::max_connections`] refuses here
    /// with [`ClientError::Remote`]`(`[`WireError::ConnLimit`]`)`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            out: Vec::new(),
            dec: wire::FrameDecoder::new(),
            enc: FrameEncoder::new(),
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            next_corr: 1,
        };
        let corr = client.next_corr();
        client.enc.put_hello(&mut client.out, corr);
        let frame = client.recv_frame()?;
        match wire::decode_server_frame(&frame) {
            // A refusal travels under corr 0 (nothing of ours was read);
            // any error frame here means no session.
            Ok(NetReply::Error(err)) => Err(ClientError::Remote(err)),
            Ok(NetReply::HelloAck(cap)) if frame.corr == corr => {
                client.max_frame_len = cap.min(wire::DEFAULT_MAX_FRAME_LEN as u64) as usize;
                Ok(client)
            }
            Ok(other) => Err(ClientError::Protocol(format!(
                "handshake answered {other:?}"
            ))),
            Err(err) => Err(ClientError::Protocol(err.to_string())),
        }
    }

    fn next_corr(&mut self) -> u64 {
        let corr = self.next_corr;
        self.next_corr += 1;
        corr
    }

    /// Writes every queued frame to the socket in one burst. Receiving
    /// flushes implicitly; call this directly to push a pipelined batch
    /// out before doing other work.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Sends `request` without waiting; returns the correlation id its
    /// answer will carry. Pair with [`Client::recv_any`] to pipeline.
    /// The frame is queued, not written — see [`Client::flush`]. A frame
    /// longer than the server's cap is refused with
    /// [`ClientError::Protocol`] and not queued: the server would answer
    /// it with a fatal `Oversized` and close the connection.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let (start, corr) = (self.out.len(), self.next_corr);
        self.enc.put_request(&mut self.out, corr, request);
        // The length prefix counts the bytes after its own four.
        let len = self.out.len() - start - 4;
        if len > self.max_frame_len {
            self.out.truncate(start);
            return Err(ClientError::Protocol(format!(
                "a {len}-byte request frame exceeds the server's cap of {} bytes",
                self.max_frame_len
            )));
        }
        self.next_corr += 1;
        Ok(corr)
    }

    /// Queues a request whose payload bytes are already encoded (e.g. the
    /// payload range [`FrameEncoder::put_request`] returns) under a fresh
    /// correlation id — a hot client replaying identical requests skips
    /// re-printing the same JSON per send. `tenant` and the returned
    /// correlation id travel in the frame header, so one cached payload
    /// serves any tenant namespace. This is the raw replay primitive: it
    /// does not check the server's frame cap.
    pub fn send_encoded(&mut self, kind: u8, tenant: u64, payload: &[u8]) -> u64 {
        let corr = self.next_corr();
        wire::put_raw_frame(&mut self.out, kind, tenant, corr, payload);
        corr
    }

    /// Receives the next answer frame, whatever its correlation id:
    /// `(corr, outcome)`. Error frames resolve to `Err(Remote)` — they
    /// answer *that* correlation id, the connection stays usable.
    pub fn recv_any(&mut self) -> Result<(u64, Result<Reply, ClientError>), ClientError> {
        let frame = self.recv_frame()?;
        if frame.version != wire::PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server answered protocol version {}",
                frame.version
            )));
        }
        let corr = frame.corr;
        match wire::decode_server_frame(&frame) {
            Ok(NetReply::Reply(reply)) => Ok((corr, Ok(reply))),
            Ok(NetReply::Error(err)) => Ok((corr, Err(ClientError::Remote(err)))),
            Ok(other) => Err(ClientError::Protocol(format!(
                "unexpected control frame {other:?}"
            ))),
            Err(err) => Err(ClientError::Protocol(err.to_string())),
        }
    }

    /// Pops the next complete frame, filling the reused decode buffer
    /// from the socket as needed (flushing queued sends first — a recv
    /// must never deadlock behind our own unsent requests).
    fn recv_frame(&mut self) -> Result<wire::Frame, ClientError> {
        self.flush()?;
        loop {
            match self.dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
                Some(wire::Decoded::Frame(f)) => return Ok(f.to_frame()),
                Some(wire::Decoded::Oversized(len)) => {
                    return Err(ClientError::Protocol(format!(
                        "server announced a {len}-byte frame (cap {})",
                        wire::DEFAULT_MAX_FRAME_LEN
                    )))
                }
                Some(wire::Decoded::Undersized(len)) => {
                    return Err(ClientError::Protocol(format!(
                        "server announced a {len}-byte frame, shorter than the header"
                    )))
                }
                None => {
                    if self.dec.fill_from(&mut &self.stream, 16 * 1024)? == 0 {
                        return Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        )));
                    }
                }
            }
        }
    }

    /// Sends `request` and waits for its answer: the remote
    /// [`crate::Service::submit`]. An error frame comes back as
    /// [`ClientError::Remote`]; the connection stays usable. A hot client
    /// keeps the [`Reply::instance_id`] of its first by-value answer and
    /// sends [`Request::solve_by_id`] from then on.
    pub fn call(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let corr = self.send(request)?;
        let (got, answer) = self.recv_any()?;
        // A call never pipelines, so an answer to any other correlation id
        // is a protocol error.
        if got != corr {
            return Err(ClientError::Protocol(format!(
                "answer for correlation id {got} while waiting on {corr}"
            )));
        }
        answer
    }

    /// Remote [`crate::Service::open_tenant`]: [`Client::call`] with
    /// [`Request::open_tenant`].
    pub fn open_tenant(
        &mut self,
        tenant: TenantId,
        tree: &CruTree,
        costs: &CostModel,
    ) -> Result<(), ClientError> {
        match self.call(&Request::open_tenant(tenant, tree, costs))? {
            Reply::TenantOpened => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "open-tenant answered {other:?}"
            ))),
        }
    }

    /// Closes a remote tenant: [`Client::call`] with
    /// [`Request::close_tenant`]. The counters include every delta sent
    /// to the tenant before the close.
    pub fn close_tenant(&mut self, tenant: TenantId) -> Result<SessionStats, ClientError> {
        match self.call(&Request::close_tenant(tenant))? {
            Reply::TenantClosed { stats } => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "close-tenant answered {other:?}"
            ))),
        }
    }

    /// Sends raw pre-encoded bytes immediately — the malformed-frame
    /// tests' hook; a well-behaved client never needs it. Any queued
    /// frames flush first so stream order is preserved.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.flush()?;
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads the next raw frame off the stream (pairing with
    /// [`Client::send_raw`] in protocol tests).
    pub fn recv_raw(&mut self) -> Result<wire::Frame, ClientError> {
        self.recv_frame()
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Same courtesy a `BufWriter` extends: queued frames should not
        // silently vanish if the caller sent without receiving.
        let _ = self.flush();
    }
}
