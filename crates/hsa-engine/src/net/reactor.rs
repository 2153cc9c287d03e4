//! The event-driven connection engine behind [`super::server::NetServer`]
//! (DESIGN.md §15): a fixed number of reactor threads, each owning a
//! shard of nonblocking connections multiplexed over [`super::sys`].
//!
//! Per connection the shard runs two small state machines:
//!
//! * **reassembly** — a [`FrameDecoder`] accumulates partial reads until
//!   whole frames surface; protocol errors are answered exactly as the
//!   threaded server answered them (typed error frames, connection kept
//!   or closed per §13's re-synchronisability grading). A connection the
//!   server closes first (a fatal error, or a refusal past the connection
//!   cap, which the acceptor hands over unread) is drained until the
//!   peer's EOF or [`LINGER`] after the server's FIN, whichever comes
//!   first;
//! * **write queue** — replies are encoded into one per-connection output
//!   buffer and drained with as few `write(2)` calls as readiness allows,
//!   so pipelined answers coalesce. The flush-on-idle rule: every round
//!   that encodes bytes also attempts the write immediately, so a lone
//!   request never waits for more traffic to share a syscall with.
//!
//! Completions travel back from the service's worker threads via
//! [`crate::service::Ticket::on_ready`] callbacks that post into the
//! owning shard's inbox and poke its wake pipe; a ticket that comes back
//! already answered (the service answers id-addressed reads and tenant
//! open/close on the submitting thread, which is the shard's own) skips
//! both. Every frame but the handshake is a service request and takes
//! the same path: quota, `try_submit`, then its answer is re-ordered to
//! submission order per connection (the contract the threaded waiter
//! provided) before encoding. When the service's global
//! gate is full the shard *parks* the one decoded-but-unsubmitted request
//! and stops reading that connection — the same bounded-memory
//! backpressure the blocking reader applied, without pinning a thread.

use super::server::Inner;
use super::sys::{Event, Poller};
use super::wire::{self, Decoded, FrameDecoder, FrameEncoder, NetRequest, WireError};
use crate::service::{Reply, Request, ServiceError, Ticket};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The poller token reserved for the shard's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

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

/// One answered ticket, routed back to the connection's owning shard.
pub(super) struct Completion {
    token: u64,
    seq: u64,
    tenant: u64,
    result: Result<Reply, ServiceError>,
}

/// What other threads hand a shard: new connections from the acceptor,
/// each flagged whether it holds a connection slot (false: past the cap,
/// to refuse), completions from service workers, and the shutdown order.
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
    /// True while this shard has a parked request — completion wakers
    /// poke parked shards so a freed gate slot is retried immediately.
    parked: AtomicBool,
}

impl Shard {
    /// A shard handle plus the receive end of its wake pipe.
    pub(super) fn new() -> io::Result<(Arc<Shard>, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok((
            Arc::new(Shard {
                inbox: Mutex::new(Inbox::default()),
                wake_tx,
                parked: AtomicBool::new(false),
            }),
            wake_rx,
        ))
    }

    /// Pokes the shard's event loop. A full pipe is fine — an unread
    /// byte already guarantees the next wait returns immediately.
    pub(super) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// True if the shard is waiting for gate room.
    pub(super) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::Relaxed)
    }

    /// Hands the shard a freshly accepted connection: one that holds a
    /// slot is served; one past the cap gets the [`WireError::ConnLimit`]
    /// refusal and is drained like any connection the server closes first.
    pub(super) fn push_conn(&self, stream: TcpStream, holds_slot: bool) {
        self.inbox
            .lock()
            .expect("shard inbox poisoned")
            .conns
            .push((stream, holds_slot));
        self.wake();
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
    /// The coalescing write queue: every reply/error/control frame for
    /// this connection is appended here and drained with single writes.
    out: Vec<u8>,
    out_pos: usize,
    /// Submitted-but-not-yet-encoded answers, in submission order.
    pending: VecDeque<(u64, u64, u64)>, // (seq, corr, tenant)
    /// Out-of-order completions waiting for their turn.
    ready: BTreeMap<u64, Result<Reply, ServiceError>>,
    next_seq: u64,
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
            out_pos: 0,
            pending: VecDeque::new(),
            ready: BTreeMap::new(),
            next_seq: 0,
            parked: None,
            read: ReadState::Open,
            lingering: false,
            holds_slot,
            dead: false,
            int_r: true,
            int_w: false,
        }
    }

    fn out_drained(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.parked.is_none()
    }
}

/// What one parsed frame asks the reactor to do (decoupled from the
/// decoder borrow so the handler can mutate the connection).
enum Action {
    Error(u64, u64, WireError),
    Request(u64, u64, NetRequest),
    Fatal(WireError),
    Incomplete,
}

pub(super) struct Reactor {
    inner: Arc<Inner>,
    shard: Arc<Shard>,
    poller: Poller,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Tickets submitted by this shard whose completions have not yet
    /// been processed — shutdown waits for zero so every accepted
    /// request is answered and every quota slot released.
    outstanding: usize,
    /// Lingering connections by drain deadline. Every deadline is
    /// [`LINGER`] after its FIN, so pushing at the back keeps the queue
    /// sorted; an entry whose connection was already reaped is skipped.
    linger_deadlines: VecDeque<(Instant, u64)>,
    shutdown: bool,
    enc: FrameEncoder,
}

impl Reactor {
    pub(super) fn run(inner: Arc<Inner>, shard: Arc<Shard>, wake_rx: UnixStream) {
        let mut poller = Poller::new().expect("creating the shard poller");
        poller
            .register(wake_rx.as_raw_fd(), WAKE_TOKEN, true, false)
            .expect("registering the shard wake pipe");
        let mut reactor = Reactor {
            inner,
            shard,
            poller,
            wake_rx,
            conns: HashMap::new(),
            next_token: 0,
            outstanding: 0,
            linger_deadlines: VecDeque::new(),
            shutdown: false,
            enc: FrameEncoder::new(),
        };
        reactor.event_loop();
    }

    fn event_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown && self.conns.is_empty() && self.outstanding == 0 {
                return;
            }
            let parked = self.conns.values().any(|c| c.parked.is_some());
            self.shard.parked.store(parked, Ordering::Relaxed);
            let linger_ms = self.linger_deadlines.front().map(|&(deadline, _)| {
                let left = deadline.saturating_duration_since(Instant::now());
                // Round up, so the wait does not wake just short of it.
                left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
            });
            let timeout = [parked.then_some(PARKED_RETRY_MS), linger_ms]
                .into_iter()
                .flatten()
                .min();
            if self.poller.wait(&mut events, timeout).is_err() {
                continue;
            }
            self.expire_lingering();

            let mut woken = false;
            let mut touched: Vec<u64> = Vec::new();
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    woken = true;
                } else {
                    touched.push(ev.token);
                }
            }
            if woken {
                self.drain_wake_pipe();
                self.drain_inbox(&mut touched);
            }
            for &ev in &events {
                if ev.token == WAKE_TOKEN {
                    continue;
                }
                let Some(mut conn) = self.conns.remove(&ev.token) else {
                    continue;
                };
                if ev.readable || ev.hangup {
                    self.handle_readable(ev.token, &mut conn);
                }
                // A writable report needs no handler of its own: every
                // touched connection goes through the flush sweep below.
                let _ = ev.writable;
                self.conns.insert(ev.token, conn);
            }
            // Parked retries: a completion waker (or the retry timeout)
            // got us here; the gate may have room again.
            let parked_tokens: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.parked.is_some())
                .map(|(t, _)| *t)
                .collect();
            for token in parked_tokens {
                let Some(mut conn) = self.conns.remove(&token) else {
                    continue;
                };
                self.try_unpark(token, &mut conn);
                self.conns.insert(token, conn);
                touched.push(token);
            }
            // Flush + close sweep. During shutdown every connection is in
            // play (drain progress can come from completions alone), so
            // sweep them all; otherwise only the ones this round touched.
            let sweep: Vec<u64> = if self.shutdown {
                self.conns.keys().copied().collect()
            } else {
                touched.sort_unstable();
                touched.dedup();
                touched
            };
            for token in sweep {
                let Some(mut conn) = self.conns.remove(&token) else {
                    continue;
                };
                self.flush(&mut conn);
                if self.maybe_close(token, &mut conn) {
                    self.reap(conn);
                } else {
                    self.update_interest(token, &mut conn);
                    self.conns.insert(token, conn);
                }
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut scratch = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut scratch) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_inbox(&mut self, touched: &mut Vec<u64>) {
        let (new_conns, completions, shutdown) = {
            let mut inbox = self.shard.inbox.lock().expect("shard inbox poisoned");
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
                inbox.shutdown,
            )
        };
        if shutdown && !self.shutdown {
            self.begin_shutdown();
        }
        for (stream, holds_slot) in new_conns {
            self.adopt(stream, holds_slot);
        }
        for completion in completions {
            self.apply_completion(completion, touched);
        }
    }

    /// Registers a connection from the acceptor. An admitted one
    /// (`holds_slot`) is served; a refused one gets the
    /// [`WireError::ConnLimit`] frame and goes the way of a fatal protocol
    /// error: FIN after the frame, then the bounded drain.
    fn adopt(&mut self, stream: TcpStream, holds_slot: bool) {
        let token = self.next_token;
        self.next_token += 1;
        // A stream that raced past the acceptor's shutdown check, or that
        // cannot be polled, is closed at once.
        if self.shutdown
            || self
                .poller
                .register(stream.as_raw_fd(), token, true, false)
                .is_err()
        {
            if holds_slot {
                self.inner.conn_closed();
            }
            return;
        }
        let mut conn = Conn::new(stream, holds_slot);
        if holds_slot {
            // The socket may already hold buffered frames (a client that
            // connected and wrote before we registered): treat the new
            // connection as readable once.
            self.handle_readable(token, &mut conn);
        } else {
            // Corr 0: nothing of the peer's stream is read.
            let cap = self.inner.cfg.max_connections as u64;
            self.enc
                .put_error(&mut conn.out, 0, 0, &WireError::ConnLimit(cap));
            self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            conn.read = ReadState::Fatal;
        }
        self.flush(&mut conn);
        if self.maybe_close(token, &mut conn) {
            self.reap(conn);
        } else {
            self.update_interest(token, &mut conn);
            self.conns.insert(token, conn);
        }
    }

    /// Reaps every lingering connection whose drain deadline has passed.
    fn expire_lingering(&mut self) {
        let now = Instant::now();
        while let Some(&(deadline, token)) = self.linger_deadlines.front() {
            if deadline > now {
                return;
            }
            self.linger_deadlines.pop_front();
            if let Some(conn) = self.conns.remove(&token) {
                self.reap(conn);
            }
        }
    }

    fn begin_shutdown(&mut self) {
        self.shutdown = true;
        for conn in self.conns.values_mut() {
            // No new submissions: stop reading, drop buffered-but-unparsed
            // bytes (the threaded server's readers stopped at the same
            // point), keep parked + pending work to drain.
            if conn.read == ReadState::Open {
                conn.read = ReadState::Eof;
            }
            conn.lingering = false;
            conn.dec.clear();
        }
    }

    fn apply_completion(&mut self, completion: Completion, touched: &mut Vec<u64>) {
        self.outstanding -= 1;
        self.inner.release(completion.tenant);
        let Some(mut conn) = self.conns.remove(&completion.token) else {
            // The connection can only be gone once its pending queue
            // drained, and entries leave the queue only via completions.
            debug_assert!(false, "completion for a vanished connection");
            return;
        };
        self.emit_in_order(&mut conn, completion.seq, completion.result);
        self.conns.insert(completion.token, conn);
        touched.push(completion.token);
    }

    /// Files one answer under its sequence number, then encodes every
    /// answer now at the head of the connection's submission order: the
    /// contract recv-side clients (and the threaded waiter before this)
    /// rely on.
    fn emit_in_order(&mut self, conn: &mut Conn, seq: u64, result: Result<Reply, ServiceError>) {
        conn.ready.insert(seq, result);
        while let Some(&(seq, corr, tenant)) = conn.pending.front() {
            let Some(result) = conn.ready.remove(&seq) else {
                break;
            };
            conn.pending.pop_front();
            match result {
                Ok(reply) => {
                    self.enc.put_reply(&mut conn.out, corr, tenant, &reply);
                }
                Err(e) => self
                    .enc
                    .put_error(&mut conn.out, corr, tenant, &WireError::from(&e)),
            }
            self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        }
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

    fn parse_frames(&mut self, token: u64, conn: &mut Conn) {
        let max = self.inner.cfg.max_frame_len;
        while conn.parked.is_none() && conn.read != ReadState::Fatal {
            let action = match conn.dec.next(max) {
                None => Action::Incomplete,
                Some(Decoded::Oversized(len)) => {
                    Action::Fatal(WireError::Oversized(len as u64, max as u64))
                }
                Some(Decoded::Undersized(len)) => Action::Fatal(WireError::Malformed(format!(
                    "length prefix {len} is shorter than the {}-byte header",
                    wire::HEADER_LEN
                ))),
                Some(Decoded::Frame(f)) => {
                    // The header layout is version-stable, so a version we
                    // don't speak is refused under its own correlation id
                    // and the connection stays up (§13 grading).
                    if f.version != wire::PROTOCOL_VERSION {
                        Action::Error(
                            f.corr,
                            f.tenant,
                            WireError::UnsupportedVersion(f.version, wire::PROTOCOL_VERSION),
                        )
                    } else {
                        match wire::decode_request_parts(f.kind, f.tenant, f.payload) {
                            Err(err) => Action::Error(f.corr, f.tenant, err),
                            Ok(req) => Action::Request(f.corr, f.tenant, req),
                        }
                    }
                }
            };
            match action {
                Action::Incomplete => return,
                Action::Fatal(err) => {
                    // The announced bytes are unread — the stream cannot
                    // be re-synchronised: answer (corr 0, the header is
                    // part of the unread region) and close after flush.
                    self.enc.put_error(&mut conn.out, 0, 0, &err);
                    self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    conn.read = ReadState::Fatal;
                    conn.dec.clear();
                    return;
                }
                Action::Error(corr, tenant, err) => {
                    self.enc.put_error(&mut conn.out, corr, tenant, &err);
                    self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                }
                Action::Request(corr, tenant, req) => {
                    self.handle_request(token, conn, corr, tenant, req)
                }
            }
        }
    }

    fn handle_request(
        &mut self,
        token: u64,
        conn: &mut Conn,
        corr: u64,
        tenant: u64,
        req: NetRequest,
    ) {
        match req {
            NetRequest::Hello => {
                self.enc
                    .put_hello_ack(&mut conn.out, corr, self.inner.cfg.max_frame_len);
                self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            NetRequest::Submit(request) => {
                if !self.inner.admit(tenant) {
                    self.enc
                        .put_error(&mut conn.out, corr, tenant, &WireError::Quota(tenant));
                    self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                self.submit(token, conn, corr, tenant, request);
            }
        }
    }

    /// Submits an admitted request, or parks it (quota slot kept, read
    /// interest dropped) when the global gate is full.
    fn submit(&mut self, token: u64, conn: &mut Conn, corr: u64, tenant: u64, request: Request) {
        match self.inner.service.try_submit(request.clone()) {
            Ok(ticket) => self.track(token, conn, corr, tenant, ticket),
            Err(_) => {
                conn.parked = Some((corr, tenant, request));
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

    fn track(&mut self, token: u64, conn: &mut Conn, corr: u64, tenant: u64, ticket: Ticket) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.push_back((seq, corr, tenant));
        // A ticket that is already answered (always so for an id-addressed
        // read, which the service ran on this thread) joins the in-order
        // queue right here, skipping the inbox and the wake pipe.
        let ticket = match ticket.try_take() {
            Ok(result) => {
                self.inner.release(tenant);
                self.emit_in_order(conn, seq, result);
                return;
            }
            Err(ticket) => ticket,
        };
        self.outstanding += 1;
        let shard = Arc::clone(&self.shard);
        let inner = Arc::clone(&self.inner);
        ticket.on_ready(move |result| {
            shard.push_completion(Completion {
                token,
                seq,
                tenant,
                result,
            });
            // The gate slot this answer held is already free (finish()
            // releases before fulfilling): retry any parked shard now.
            for other in inner.shards() {
                if !Arc::ptr_eq(other, &shard) && other.is_parked() {
                    other.wake();
                }
            }
        });
    }

    /// Drains the write queue with as few syscalls as the socket allows —
    /// all frames encoded since the last drain go in one `write(2)` when
    /// the send buffer has room.
    fn flush(&mut self, conn: &mut Conn) {
        if conn.dead {
            conn.out.clear();
            conn.out_pos = 0;
            return;
        }
        while !conn.out_drained() {
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        // A burst can balloon the queue; give the memory back once idle.
        if conn.out.capacity() > 1 << 20 {
            conn.out.shrink_to(64 * 1024);
        }
    }

    /// True when the connection is finished and its fd closed.
    fn maybe_close(&mut self, token: u64, conn: &mut Conn) -> bool {
        if conn.dead && conn.idle() {
            return true;
        }
        if conn.lingering {
            // Waiting for the peer's EOF (handle_readable flips `dead`).
            return false;
        }
        if conn.read != ReadState::Open && conn.idle() && conn.out_drained() && !conn.dead {
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
        let want_w = !conn.out_drained() && !conn.dead;
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

    /// Unhooks the fd before the stream drops (the poll backend keeps an
    /// explicit interest list that must not outlive the fd).
    fn reap(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let holds_slot = conn.holds_slot;
        drop(conn);
        if holds_slot {
            self.inner.conn_closed();
        }
    }
}
