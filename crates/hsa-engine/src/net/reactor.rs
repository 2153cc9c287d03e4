//! The event-driven connection engine behind [`super::server::NetServer`]
//! (DESIGN.md §15): a fixed number of reactor threads, each owning a
//! shard of nonblocking connections multiplexed over [`super::sys`]. The
//! shard loops are the whole front door: shard 0 also polls the listener,
//! accepts until the backlog is empty and deals the connections
//! round-robin, adopting its own share and posting the rest to their
//! shard's inbox.
//!
//! Per connection the shard runs two small state machines:
//!
//! * **reassembly** — a [`FrameDecoder`] accumulates partial reads until
//!   whole frames surface; protocol errors are answered with typed error
//!   frames, the connection kept or closed per §13's
//!   re-synchronisability grading. A connection the server closes first
//!   (a fatal error, or a refusal past the connection cap, which is never
//!   read) is drained until the peer's EOF or [`LINGER`] after the
//!   server's FIN, whichever comes first;
//! * **write queue** — every frame is encoded into one per-connection
//!   output buffer and drained with as few `write(2)` calls as readiness
//!   allows, so pipelined answers coalesce. The flush-on-idle rule: every
//!   round that encodes bytes also attempts the write immediately, so a
//!   lone request never waits for more traffic to share a syscall with.
//!
//! Every frame but the handshake is a service request and takes the same
//! path: quota, `try_submit`, then a place in the connection's queue of
//! owed answers. An answer is filed at its place whenever it lands and
//! leaves once every answer owed before it has, so replies go out in
//! submission order. Completions travel back from the service's worker
//! threads via [`crate::service::Ticket::on_ready`] callbacks that post
//! into the owning shard's inbox and poke its wake pipe; a ticket that
//! comes back already answered (the service answers id-addressed reads
//! and tenant opens on the submitting thread, which is the shard's own)
//! skips both. When the service's global gate is full the shard *parks*
//! the one decoded-but-unsubmitted request, lists the connection as
//! parked and stops reading it — bounded-memory backpressure without
//! pinning a thread.

use super::server::Inner;
use super::sys::{Event, Poller};
use super::wire::{self, Decoded, FrameDecoder, FrameEncoder, NetReply, NetRequest, WireError};
use crate::service::{Reply, Request, ServiceError, Ticket};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The poller token reserved for the shard's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// The poller token reserved for the listener, which shard 0 polls.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// How much to ask the kernel for per read call.
const READ_CHUNK: usize = 16 * 1024;

/// Poll timeout while a parked request waits for gate room that an
/// in-process submitter (no waker) might free.
const PARKED_RETRY_MS: i32 = 2;

/// How long a connection the server closed first (after a fatal protocol
/// error, or a refusal past the connection cap) keeps draining the peer
/// after the server's FIN. The drain ends at the peer's EOF or at this
/// bound, whichever comes first, so a silent peer cannot keep its fd, or
/// a connection slot, for good.
const LINGER: Duration = Duration::from_millis(200);

/// An answer a connection owes its peer: `(corr, tenant, the answer once
/// it has landed)`.
type Owed = (u64, u64, Option<Result<Reply, ServiceError>>);

/// One answered ticket, routed back to the connection's owning shard and
/// filed by its sequence number in that connection's owed queue.
struct Completion {
    token: u64,
    seq: u64,
    result: Result<Reply, ServiceError>,
}

/// What other threads hand a shard: connections shard 0 accepted, each
/// flagged whether it holds a connection slot (false: past the cap, to
/// refuse), completions from service workers, and the shutdown order.
#[derive(Default)]
struct Inbox {
    conns: Vec<(TcpStream, bool)>,
    completions: Vec<Completion>,
    shutdown: bool,
}

/// The cross-thread handle of one reactor shard.
pub(super) struct Shard {
    inbox: Mutex<Inbox>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
    /// True while this shard has a parked request — completion wakers
    /// poke parked shards so a freed gate slot is retried immediately.
    parked: AtomicBool,
}

impl Shard {
    /// A shard handle with its wake pipe.
    pub(super) fn new() -> io::Result<Shard> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Shard {
            inbox: Mutex::default(),
            wake_tx,
            wake_rx,
            parked: AtomicBool::new(false),
        })
    }

    /// Pokes the shard's event loop. A full pipe is fine — an unread
    /// byte already guarantees the next wait returns immediately.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Hands the shard a connection shard 0 accepted. A shard that has
    /// the shutdown order takes none: the stream is dropped unanswered,
    /// like any connection that races the shutdown, and this returns
    /// false.
    fn push_conn(&self, stream: TcpStream, holds_slot: bool) -> bool {
        let mut inbox = self.inbox.lock().expect("shard inbox poisoned");
        if inbox.shutdown {
            return false;
        }
        inbox.conns.push((stream, holds_slot));
        drop(inbox);
        self.wake();
        true
    }

    /// Posts a completion, waking the shard only for the first entry of a
    /// batch: while the vec is non-empty a wake byte is already in flight
    /// (the reactor takes the whole vec under this same lock, so an entry
    /// pushed before the take is never missed), and pipelined completion
    /// storms collapse to one pipe write.
    fn push_completion(&self, completion: Completion) {
        let mut inbox = self.inbox.lock().expect("shard inbox poisoned");
        let first = inbox.completions.is_empty();
        inbox.completions.push(completion);
        drop(inbox);
        if first {
            self.wake();
        }
    }

    /// Orders the shard to drain and exit.
    pub(super) fn push_shutdown(&self) {
        self.inbox.lock().expect("shard inbox poisoned").shutdown = true;
        self.wake();
    }
}

/// Why a connection stopped being readable/parsable.
#[derive(Clone, Copy, PartialEq)]
enum ReadState {
    /// Still a live duplex peer.
    Open,
    /// Peer sent FIN (half-close): serve what was read, then close.
    Eof,
    /// We stopped reading on a fatal protocol error and will close after
    /// the error frame flushes, draining peer bytes to avoid a reset
    /// racing the answer off the wire.
    Fatal,
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// The coalescing write queue: every frame for this connection is
    /// appended here and drained with single writes.
    out: Vec<u8>,
    /// The answers owed, in submission order. Each is filed at its place
    /// when it lands and is encoded once every earlier one has been.
    owed: VecDeque<Owed>,
    /// The sequence number of `owed`'s front entry.
    owed_base: u64,
    /// One decoded request waiting for gate room (backpressure park).
    parked: Option<(u64, u64, Request)>, // (corr, tenant, request)
    read: ReadState,
    /// Post-error drain: FIN sent, discarding peer bytes until its EOF
    /// or the [`LINGER`] bound.
    lingering: bool,
    /// Whether the connection holds one of the `max_connections` slots
    /// (a refused one does not).
    holds_slot: bool,
    /// The socket failed; stop writing, just drain accounting.
    dead: bool,
    // Current poller interest, to skip redundant modify syscalls.
    int_r: bool,
    int_w: bool,
}

impl Conn {
    fn new(stream: TcpStream, holds_slot: bool) -> Conn {
        Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            owed: VecDeque::new(),
            owed_base: 0,
            parked: None,
            read: ReadState::Open,
            lingering: false,
            holds_slot,
            dead: false,
            int_r: true,
            int_w: false,
        }
    }

    fn idle(&self) -> bool {
        self.owed.is_empty() && self.parked.is_none()
    }
}

/// One reactor shard: its connection table, and the state the
/// per-connection handlers share. The split lets a handler borrow its
/// connection in place while it uses the rest.
pub(super) struct Reactor {
    /// This shard's connections by poller token. Only `reap` removes one.
    conns: HashMap<u64, Conn>,
    core: Core,
}

/// Everything of a shard but its connection table.
struct Core {
    inner: Arc<Inner>,
    /// This shard's place in the server's shard list.
    index: usize,
    poller: Poller,
    /// Shard 0's listener, until shutdown begins.
    listener: Option<TcpListener>,
    /// Connections shard 0 has dealt, which picks the next one's shard.
    dealt: usize,
    next_token: u64,
    /// Tickets submitted by this shard whose completions have not yet
    /// been processed — shutdown waits for zero so every accepted
    /// request is answered and every quota slot released.
    outstanding: usize,
    /// The connections that have a parked request, listed when they park
    /// and taken off when they retry.
    parked: Vec<u64>,
    /// Lingering connections by drain deadline. Every deadline is
    /// [`LINGER`] after its FIN, so pushing at the back keeps the queue
    /// sorted; an entry whose connection was already reaped is skipped.
    linger_deadlines: VecDeque<(Instant, u64)>,
    shutdown: bool,
    enc: FrameEncoder,
}

impl Reactor {
    /// Runs shard `index` of `inner` until it has drained after the
    /// shutdown order. Shard 0 is handed the listener.
    pub(super) fn run(inner: Arc<Inner>, index: usize, listener: Option<TcpListener>) {
        let mut poller = Poller::new().expect("creating the shard poller");
        poller
            .register(
                inner.shards[index].wake_rx.as_raw_fd(),
                WAKE_TOKEN,
                true,
                false,
            )
            .expect("registering the shard wake pipe");
        if let Some(listener) = &listener {
            poller
                .register(listener.as_raw_fd(), LISTEN_TOKEN, true, false)
                .expect("registering the listener");
        }
        let mut reactor = Reactor {
            conns: HashMap::new(),
            core: Core {
                inner,
                index,
                poller,
                listener,
                dealt: 0,
                next_token: 0,
                outstanding: 0,
                parked: Vec::new(),
                linger_deadlines: VecDeque::new(),
                shutdown: false,
                enc: FrameEncoder::new(),
            },
        };
        reactor.event_loop();
    }

    fn event_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        // The connections one round touched: each is flushed, then closed
        // or re-armed, at the end of the round.
        let mut touched: Vec<u64> = Vec::new();
        loop {
            let core = &mut self.core;
            if core.shutdown && self.conns.is_empty() && core.outstanding == 0 {
                return;
            }
            let parked = !core.parked.is_empty();
            core.shard().parked.store(parked, Ordering::Relaxed);
            let linger_ms = core.linger_deadlines.front().map(|&(deadline, _)| {
                let left = deadline.saturating_duration_since(Instant::now());
                // Round up, so the wait does not wake just short of it.
                left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
            });
            let timeout = [parked.then_some(PARKED_RETRY_MS), linger_ms]
                .into_iter()
                .flatten()
                .min();
            if core.poller.wait(&mut events, timeout).is_err() {
                continue;
            }
            self.expire_lingering();

            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => self.drain_inbox(&mut touched),
                    LISTEN_TOKEN => self.accept(&mut touched),
                    token => {
                        if ev.readable || ev.hangup {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                self.core.handle_readable(token, conn);
                            }
                        }
                        // A writable report needs no handler of its own:
                        // every touched connection is flushed below.
                        let _ = ev.writable;
                        touched.push(token);
                    }
                }
            }
            // Parked retries: a completion waker (or the retry timeout)
            // got us here; the gate may have room again.
            for token in std::mem::take(&mut self.core.parked) {
                if let Some(conn) = self.conns.get_mut(&token) {
                    self.core.try_unpark(token, conn);
                    touched.push(token);
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for token in touched.drain(..) {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                self.core.flush(conn);
                if self.core.maybe_close(token, conn) {
                    self.reap(token);
                } else {
                    self.core.update_interest(token, conn);
                }
            }
        }
    }

    /// Empties the wake pipe and the inbox: adopts the dealt connections,
    /// files the completions, and begins a shutdown the inbox orders.
    fn drain_inbox(&mut self, touched: &mut Vec<u64>) {
        let (conns, completions, shutdown) = {
            let shard = self.core.shard();
            let mut scratch = [0u8; 256];
            loop {
                match (&shard.wake_rx).read(&mut scratch) {
                    Ok(n) if n > 0 => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    _ => break,
                }
            }
            let mut inbox = shard.inbox.lock().expect("shard inbox poisoned");
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
                inbox.shutdown,
            )
        };
        // Adopted before the shutdown begins, a connection dealt ahead of
        // the order drains like every other.
        for (stream, holds_slot) in conns {
            self.adopt(stream, holds_slot, touched);
        }
        for Completion { token, seq, result } in completions {
            self.core.outstanding -= 1;
            match self.conns.get_mut(&token) {
                Some(conn) => self.core.file(conn, seq, result),
                // A connection is reaped only once it owes nothing, and an
                // owed entry leaves only when its answer is filed.
                None => debug_assert!(false, "completion for a vanished connection"),
            }
            touched.push(token);
        }
        if shutdown && !self.core.shutdown {
            self.begin_shutdown(touched);
        }
    }

    /// Shard 0's accept: takes every pending connection, admits or
    /// refuses it against the connection cap, and deals it round-robin —
    /// its own share adopted here, the rest posted to their shard.
    fn accept(&mut self, touched: &mut Vec<u64>) {
        let inner = Arc::clone(&self.core.inner);
        while let Some(listener) = &self.core.listener {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The backlog is empty. On any other error the listener
                // stays readable, so the next wait retries.
                Err(_) => return,
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let holds_slot = inner.conn_opened();
            let shard = self.core.dealt % inner.shards.len();
            self.core.dealt += 1;
            if shard == self.core.index {
                self.adopt(stream, holds_slot, touched);
            } else if !inner.shards[shard].push_conn(stream, holds_slot) && holds_slot {
                inner.conn_closed();
            }
        }
    }

    /// Registers an accepted connection. An admitted one (`holds_slot`)
    /// is served; a refused one gets the [`WireError::ConnLimit`] frame
    /// and goes the way of a fatal protocol error: FIN after the frame,
    /// then the bounded drain.
    fn adopt(&mut self, stream: TcpStream, holds_slot: bool, touched: &mut Vec<u64>) {
        let core = &mut self.core;
        let token = core.next_token;
        core.next_token += 1;
        // A stream that cannot be polled is closed at once.
        if core
            .poller
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            if holds_slot {
                core.inner.conn_closed();
            }
            return;
        }
        let mut conn = Conn::new(stream, holds_slot);
        if holds_slot {
            // The socket may already hold buffered frames (a client that
            // connected and wrote before we registered): treat the new
            // connection as readable once.
            core.handle_readable(token, &mut conn);
        } else {
            // Corr 0: nothing of the peer's stream is read.
            let refusal = WireError::ConnLimit(core.inner.cfg.max_connections as u64);
            core.put(&mut conn.out, 0, 0, NetReply::Error(refusal));
            conn.read = ReadState::Fatal;
        }
        self.conns.insert(token, conn);
        touched.push(token);
    }

    /// Reaps every lingering connection whose drain deadline has passed.
    fn expire_lingering(&mut self) {
        let now = Instant::now();
        while let Some(&(deadline, token)) = self.core.linger_deadlines.front() {
            if deadline > now {
                return;
            }
            self.core.linger_deadlines.pop_front();
            self.reap(token);
        }
    }

    /// Stops accepting (closing the listener refuses every later connect)
    /// and reading, and touches every connection so that each one closes
    /// as soon as it owes nothing.
    fn begin_shutdown(&mut self, touched: &mut Vec<u64>) {
        self.core.shutdown = true;
        if let Some(listener) = self.core.listener.take() {
            let _ = self.core.poller.deregister(listener.as_raw_fd());
        }
        for (&token, conn) in &mut self.conns {
            // No new submissions: stop reading, drop buffered-but-unparsed
            // bytes, keep parked and owed work to drain.
            if conn.read == ReadState::Open {
                conn.read = ReadState::Eof;
            }
            conn.lingering = false;
            conn.dec.clear();
            touched.push(token);
        }
    }

    /// Closes a finished connection. The fd is unhooked before the stream
    /// drops (the poll backend keeps an explicit interest list that must
    /// not outlive the fd), and its slot is freed once the fd is closed.
    fn reap(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.core.poller.deregister(conn.stream.as_raw_fd());
        let holds_slot = conn.holds_slot;
        drop(conn);
        if holds_slot {
            self.core.inner.conn_closed();
        }
    }
}

impl Core {
    fn shard(&self) -> &Shard {
        &self.inner.shards[self.index]
    }

    /// Appends one frame to a connection's write queue and counts it in
    /// `frames_out`: every frame the reactor writes goes through here.
    fn put(&mut self, out: &mut Vec<u8>, corr: u64, tenant: u64, frame: NetReply) {
        match frame {
            NetReply::HelloAck(cap) => self.enc.put_hello_ack(out, corr, cap as usize),
            NetReply::Reply(reply) => {
                self.enc.put_reply(out, corr, tenant, &reply);
            }
            NetReply::Error(err) => self.enc.put_error(out, corr, tenant, &err),
        }
        self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    fn handle_readable(&mut self, token: u64, conn: &mut Conn) {
        if conn.lingering {
            // Post-error drain: discard until the peer's EOF, then the
            // close sweep reaps the fd without risking a reset.
            let mut scratch = [0u8; 4096];
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.dead = true;
                        return;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        return;
                    }
                }
            }
        }
        if conn.read != ReadState::Open {
            return;
        }
        loop {
            match conn.dec.fill_from(&mut conn.stream, READ_CHUNK) {
                Ok(0) => {
                    conn.read = ReadState::Eof;
                    break;
                }
                Ok(_) => {
                    self.parse_frames(token, conn);
                    if conn.parked.is_some() || conn.read == ReadState::Fatal {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read = ReadState::Eof;
                    conn.dead = true;
                    return;
                }
            }
        }
        // Frames that arrived before a half-close still get answers.
        self.parse_frames(token, conn);
    }

    /// Handles every whole frame buffered on `conn`, until it parks or
    /// reads a frame it cannot skip.
    fn parse_frames(&mut self, token: u64, conn: &mut Conn) {
        let max = self.inner.cfg.max_frame_len;
        while conn.parked.is_none() && conn.read != ReadState::Fatal {
            let fatal = match conn.dec.next(max) {
                None => return,
                Some(Decoded::Frame(f)) => {
                    let (corr, tenant) = (f.corr, f.tenant);
                    // The header layout is version-stable, so a version we
                    // don't speak is refused under its own correlation id
                    // and the connection stays up (§13 grading).
                    let decoded = if f.version == wire::PROTOCOL_VERSION {
                        wire::decode_request_parts(f.kind, f.tenant, f.payload)
                    } else {
                        Err(WireError::UnsupportedVersion(
                            f.version,
                            wire::PROTOCOL_VERSION,
                        ))
                    };
                    let frame = match decoded {
                        Ok(NetRequest::Hello) => {
                            NetReply::HelloAck(self.inner.cfg.max_frame_len as u64)
                        }
                        // `admit` takes the tenant's quota slot.
                        Ok(NetRequest::Submit(request)) if self.inner.admit(tenant) => {
                            self.submit(token, conn, corr, tenant, request);
                            continue;
                        }
                        Ok(NetRequest::Submit(_)) => NetReply::Error(WireError::Quota(tenant)),
                        Err(err) => NetReply::Error(err),
                    };
                    self.put(&mut conn.out, corr, tenant, frame);
                    continue;
                }
                Some(Decoded::Oversized(len)) => WireError::Oversized(len as u64, max as u64),
                Some(Decoded::Undersized(len)) => WireError::Malformed(format!(
                    "length prefix {len} is shorter than the {}-byte header",
                    wire::HEADER_LEN
                )),
            };
            // The announced bytes are unread — the stream cannot be
            // re-synchronised: answer (corr 0, the header is part of the
            // unread region) and close after flush.
            self.put(&mut conn.out, 0, 0, NetReply::Error(fatal));
            conn.read = ReadState::Fatal;
            conn.dec.clear();
        }
    }

    /// Submits an admitted request, or parks it (quota slot kept, read
    /// interest dropped, the connection listed as parked) when the global
    /// gate is full.
    fn submit(&mut self, token: u64, conn: &mut Conn, corr: u64, tenant: u64, request: Request) {
        match self.inner.service.try_submit(request.clone()) {
            Ok(ticket) => self.track(token, conn, corr, tenant, ticket),
            Err(_) => {
                conn.parked = Some((corr, tenant, request));
                self.parked.push(token);
                self.inner
                    .stats
                    .saturation_parks
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn try_unpark(&mut self, token: u64, conn: &mut Conn) {
        let Some((corr, tenant, request)) = conn.parked.take() else {
            return;
        };
        self.submit(token, conn, corr, tenant, request);
        if conn.parked.is_none() {
            // Room found: frames buffered behind the parked one resume.
            self.parse_frames(token, conn);
        }
    }

    /// Owes the peer `ticket`'s answer at the back of the connection's
    /// queue, and routes the answer back to it.
    fn track(&mut self, token: u64, conn: &mut Conn, corr: u64, tenant: u64, ticket: Ticket) {
        let seq = conn.owed_base + conn.owed.len() as u64;
        conn.owed.push_back((corr, tenant, None));
        // A ticket that is already answered (always so for an id-addressed
        // read, which the service ran on this thread) is filed right here,
        // skipping the inbox and the wake pipe.
        let ticket = match ticket.try_take() {
            Ok(result) => return self.file(conn, seq, result),
            Err(ticket) => ticket,
        };
        self.outstanding += 1;
        let (inner, index) = (Arc::clone(&self.inner), self.index);
        ticket.on_ready(move |result| {
            inner.shards[index].push_completion(Completion { token, seq, result });
            // The gate slot this answer held is already free (the service
            // releases it before fulfilling): retry any parked shard now.
            for (i, other) in inner.shards.iter().enumerate() {
                if i != index && other.parked.load(Ordering::Relaxed) {
                    other.wake();
                }
            }
        });
    }

    /// Files the answer owed at `seq` and releases its quota slot, then
    /// encodes every answer now at the head of the connection's queue: the
    /// submission order recv-side clients rely on.
    fn file(&mut self, conn: &mut Conn, seq: u64, result: Result<Reply, ServiceError>) {
        let entry = &mut conn.owed[(seq - conn.owed_base) as usize];
        self.inner.release(entry.1);
        entry.2 = Some(result);
        while let Some(answer) = conn.owed.front_mut().and_then(|entry| entry.2.take()) {
            let (corr, tenant, _) = conn
                .owed
                .pop_front()
                .expect("the front entry was just read");
            conn.owed_base += 1;
            let frame = match answer {
                Ok(reply) => NetReply::Reply(reply),
                Err(e) => NetReply::Error(WireError::from(&e)),
            };
            self.put(&mut conn.out, corr, tenant, frame);
        }
    }

    /// Drains the write queue with as few syscalls as the socket allows —
    /// all frames encoded since the last drain go in one `write(2)` when
    /// the send buffer has room. A partial write drops the prefix it sent.
    fn flush(&mut self, conn: &mut Conn) {
        while !conn.out.is_empty() && !conn.dead {
            match (&conn.stream).write(&conn.out) {
                Ok(0) => conn.dead = true,
                Ok(n) => {
                    conn.out.drain(..n);
                    self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => conn.dead = true,
            }
        }
        // A dead socket's queue is dropped unsent.
        conn.out.clear();
        // A burst can balloon the queue; give the memory back once idle.
        if conn.out.capacity() > 1 << 20 {
            conn.out.shrink_to(64 * 1024);
        }
    }

    /// True when the connection is finished and its fd can be closed.
    fn maybe_close(&mut self, token: u64, conn: &mut Conn) -> bool {
        if conn.dead && conn.idle() {
            return true;
        }
        if conn.lingering {
            // Waiting for the peer's EOF (handle_readable flips `dead`).
            return false;
        }
        if conn.read != ReadState::Open && conn.idle() && conn.out.is_empty() && !conn.dead {
            let _ = conn.stream.shutdown(Shutdown::Write);
            if conn.read == ReadState::Fatal && !self.shutdown {
                // We closed first with unread peer bytes possibly in
                // flight: drain them so the error frame isn't lost to a
                // reset, then reap on the peer's EOF or at the bound.
                conn.lingering = true;
                self.linger_deadlines
                    .push_back((Instant::now() + LINGER, token));
                return false;
            }
            // Peer half-closed first (we read to EOF) or the server is
            // shutting down: the fd can drop cleanly.
            return true;
        }
        false
    }

    fn update_interest(&mut self, token: u64, conn: &mut Conn) {
        let want_r = conn.lingering || (conn.read == ReadState::Open && conn.parked.is_none());
        let want_w = !conn.out.is_empty() && !conn.dead;
        if want_r != conn.int_r || want_w != conn.int_w {
            conn.int_r = want_r;
            conn.int_w = want_w;
            // Best effort: a failed modify surfaces as a stuck conn, and
            // shutdown still reaps it.
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want_r, want_w);
        }
    }
}
