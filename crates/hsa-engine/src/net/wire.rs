//! The framed wire schema (DESIGN.md §13).
//!
//! Every frame is a big-endian length prefix followed by a fixed header
//! and a JSON payload:
//!
//! ```text
//! u32  len       bytes after this field (HEADER_LEN + payload length)
//! u8   version   PROTOCOL_VERSION
//! u8   kind      one of the `kind::*` bytes
//! u64  tenant    TenantId for tenant-scoped kinds, 0 otherwise
//! u64  corr      correlation id, echoed verbatim on the answer frame
//! [u8] payload   compact JSON of the kind-specific body
//! ```
//!
//! The header layout (version first, then kind/tenant/corr) is **frozen
//! across protocol versions**: a server that rejects `version` can still
//! read the correlation id and answer a well-addressed
//! [`WireError::UnsupportedVersion`] frame instead of dropping the
//! connection. Everything behind the header — the kind table and the
//! payload bodies — is owned by the version byte and free to evolve.
//!
//! Payload bodies are derived from the service's own [`Request`] /
//! [`Reply`] / [`ServiceError`] enums (the single source of truth for the
//! schema); this module only maps between those enums and frames. Every
//! kind but the `HELLO` handshake and its answer is one of their variants
//! or an error. Unknown kind bytes and undecodable payloads answer
//! explicit error frames ([`WireError`]), never a panic or a silent drop.

use crate::service::{Reply, Request, ServiceError, TenantId};
use crate::session::{ApplyOutcome, SessionStats};
use crate::{AnytimeAnswer, EngineError, InstanceId};
use bytes::BufMut;
use hsa_assign::{LambdaFrontier, Solution};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree, Delta};
use serde::{Deserialize, Serialize, Serializer};
use std::fmt;
use std::io::{self, Read};
use std::ops::Range;
use std::sync::Arc;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Header bytes after the length prefix: version, kind, tenant, corr.
pub const HEADER_LEN: usize = 1 + 1 + 8 + 8;

/// Default cap on `len` (a 60-second Zipf stream's largest tree payload is
/// well under 1 MiB; the cap only exists to bound a hostile prefix).
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Frame kind bytes. Client→server kinds have the high bit clear,
/// server→client kinds have it set; [`kind::ERROR`] is reserved at `0xFF`.
pub mod kind {
    /// Client handshake; answered by [`HELLO_ACK`].
    pub const HELLO: u8 = 0x01;
    /// [`crate::Request::Solve`].
    pub const SOLVE: u8 = 0x02;
    /// [`crate::Request::SolveById`].
    pub const SOLVE_BY_ID: u8 = 0x03;
    /// [`crate::Request::Frontier`].
    pub const FRONTIER: u8 = 0x04;
    /// [`crate::Request::FrontierById`].
    pub const FRONTIER_BY_ID: u8 = 0x05;
    /// [`crate::Request::Delta`] (tenant travels in the header).
    pub const DELTA: u8 = 0x06;
    /// [`crate::Request::OpenTenant`] (tenant in the header, instance in
    /// the body).
    pub const OPEN_TENANT: u8 = 0x07;
    /// [`crate::Request::CloseTenant`] (tenant in the header, empty body).
    pub const CLOSE_TENANT: u8 = 0x08;
    /// [`crate::Request::SolveAnytime`].
    pub const SOLVE_ANYTIME: u8 = 0x09;
    /// Handshake answer, carrying the server's frame cap.
    pub const HELLO_ACK: u8 = 0x81;
    /// [`crate::Reply::Solution`].
    pub const SOLUTION: u8 = 0x82;
    /// [`crate::Reply::Frontier`].
    pub const FRONTIER_REPLY: u8 = 0x83;
    /// [`crate::Reply::Applied`].
    pub const APPLIED: u8 = 0x84;
    /// [`crate::Reply::TenantOpened`] (empty body).
    pub const TENANT_OPENED: u8 = 0x85;
    /// [`crate::Reply::TenantClosed`].
    pub const TENANT_CLOSED: u8 = 0x86;
    /// [`crate::Reply::Anytime`].
    pub const ANYTIME: u8 = 0x87;
    /// A [`super::WireError`] body.
    pub const ERROR: u8 = 0xFF;
}

/// A borrowed view of one frame inside a [`FrameDecoder`]'s buffer: the
/// fixed header plus the payload *in place* — the reactor's zero-copy
/// sibling of [`Frame`] (no per-frame payload `Vec`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Protocol version byte.
    pub version: u8,
    /// Kind byte (`kind::*`).
    pub kind: u8,
    /// Tenant id for tenant-scoped kinds, 0 otherwise.
    pub tenant: u64,
    /// Correlation id, echoed on the answer.
    pub corr: u64,
    /// Kind-specific JSON body, borrowed from the decode buffer.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// An owned [`Frame`] (copies the payload) — for tests and cold paths.
    pub fn to_frame(&self) -> Frame {
        Frame {
            version: self.version,
            kind: self.kind,
            tenant: self.tenant,
            corr: self.corr,
            payload: self.payload.to_vec(),
        }
    }
}

/// One decoded frame: the fixed header plus the raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version byte.
    pub version: u8,
    /// Kind byte (`kind::*`).
    pub kind: u8,
    /// Tenant id for tenant-scoped kinds, 0 otherwise.
    pub tenant: u64,
    /// Correlation id, echoed on the answer.
    pub corr: u64,
    /// Kind-specific JSON body (may be empty).
    pub payload: Vec<u8>,
}

/// What [`FrameDecoder::next`] found at the head of the buffer.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// A complete frame (version/kind/payload still unvalidated),
    /// borrowed from the decode buffer and already consumed from it.
    Frame(FrameRef<'a>),
    /// The announced length exceeds the cap; the stream cannot be
    /// re-synchronised (the offending prefix is left in the buffer).
    Oversized(u32),
    /// The announced length is shorter than the fixed header; same
    /// desynchronisation story as [`Decoded::Oversized`].
    Undersized(u32),
}

/// Incremental frame reassembly over a nonblocking stream: bytes go in
/// whenever the socket is readable (any split, down to one byte at a
/// time), complete frames come out borrowed — no per-frame allocation.
/// One long-lived decoder per connection; the buffer is compacted and
/// reused across frames, so steady state costs zero allocations once the
/// high-water mark is reached.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends raw stream bytes (any fragmentation).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads up to `chunk` bytes from `r` straight into the buffer
    /// (compacting first), returning what `read` returned. `Ok(0)` is
    /// end-of-stream.
    pub fn fill_from(&mut self, r: &mut impl Read, chunk: usize) -> io::Result<usize> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + chunk, 0);
        match r.read(&mut self.buf[len..]) {
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// Drops everything buffered (shutdown: frames not yet parsed are
    /// abandoned, matching a half-closed read side).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// The next complete frame, if the buffer holds one. `None` means
    /// more bytes are needed; [`Decoded::Oversized`]/[`Decoded::Undersized`]
    /// mean the stream is unrecoverable past this point.
    pub fn next(&mut self, max_frame_len: usize) -> Option<Decoded<'_>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return None;
        }
        let p = self.pos;
        let len = u32::from_be_bytes(self.buf[p..p + 4].try_into().expect("4 bytes"));
        if (len as usize) < HEADER_LEN {
            return Some(Decoded::Undersized(len));
        }
        if len as usize > max_frame_len {
            return Some(Decoded::Oversized(len));
        }
        if avail < 4 + len as usize {
            return None;
        }
        let h = p + 4;
        let end = h + len as usize;
        self.pos = end;
        Some(Decoded::Frame(FrameRef {
            version: self.buf[h],
            kind: self.buf[h + 1],
            tenant: u64::from_be_bytes(self.buf[h + 2..h + 10].try_into().expect("8 bytes")),
            corr: u64::from_be_bytes(self.buf[h + 10..h + 18].try_into().expect("8 bytes")),
            payload: &self.buf[h + HEADER_LEN..end],
        }))
    }

    /// Reclaims the consumed prefix once it dominates the buffer, so the
    /// allocation is bounded by the largest in-flight frame, not by the
    /// total bytes ever streamed.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// A protocol-level error, carried in an [`kind::ERROR`] frame. The
/// explicit variants let a client react (back off on [`Quota`], renegotiate
/// on [`UnsupportedVersion`]) without parsing message strings.
///
/// [`Quota`]: WireError::Quota
/// [`UnsupportedVersion`]: WireError::UnsupportedVersion
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WireError {
    /// The frame's version byte is not spoken here: `(got, want)`.
    UnsupportedVersion(u8, u8),
    /// The kind byte is not in this version's table.
    UnknownKind(u8),
    /// A length prefix exceeded the receiver's cap: `(len, max)`. The
    /// stream cannot be re-synchronised, so the sender of this error
    /// closes the connection right after it.
    Oversized(u64, u64),
    /// The payload failed to decode (detail message).
    Malformed(String),
    /// The per-tenant admission quota refused the request (tenant id) —
    /// the wire-level sibling of [`ServiceError::Saturated`].
    Quota(u64),
    /// The server's connection cap refused this connection at accept time
    /// (carries the cap). The refusal frame is the connection's only
    /// traffic; the socket closes right after it — the explicit overload
    /// mode that keeps the reactor's fd tables bounded instead of letting
    /// accept run into `EMFILE`.
    ConnLimit(u64),
    /// The service answered an error: `(stable code, display message)`.
    Service(String, String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnsupportedVersion(got, want) => {
                write!(
                    f,
                    "unsupported protocol version {got} (this side speaks {want})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversized(len, max) => {
                write!(f, "frame length {len} exceeds the cap {max}")
            }
            WireError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
            WireError::Quota(tenant) => {
                write!(f, "tenant-{tenant} admission quota exceeded")
            }
            WireError::ConnLimit(cap) => {
                write!(f, "server connection cap {cap} reached, connection refused")
            }
            WireError::Service(code, msg) => write!(f, "service error [{code}]: {msg}"),
        }
    }
}

/// The stable machine-readable code a [`ServiceError`] travels under.
pub fn service_error_code(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Engine(EngineError::UnknownInstance { .. }) => "engine.unknown_instance",
        ServiceError::Engine(EngineError::HashCollision { .. }) => "engine.hash_collision",
        ServiceError::Engine(_) => "engine.assign",
        ServiceError::Apply(_) => "apply",
        ServiceError::UnknownTenant(_) => "unknown_tenant",
        ServiceError::TenantExists(_) => "tenant_exists",
        ServiceError::VerifyFailed { .. } => "verify_failed",
        ServiceError::Saturated => "saturated",
        ServiceError::Internal(_) => "internal",
    }
}

impl From<&ServiceError> for WireError {
    fn from(e: &ServiceError) -> WireError {
        WireError::Service(service_error_code(e).to_string(), e.to_string())
    }
}

/// A client→server frame, decoded: the handshake or a request for the
/// service.
#[derive(Debug)]
pub enum NetRequest {
    /// Handshake.
    Hello,
    /// Submit to [`crate::Service::submit`].
    Submit(Request),
}

/// A server→client frame, decoded.
// The size spread (an anytime Reply dwarfs HelloAck) is accepted: the
// enum lives for one match on the receive path, and boxing the large
// variant would cost an allocation per answered frame.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NetReply {
    /// Handshake answer: the server's frame cap.
    HelloAck(u64),
    /// A fulfilled request.
    Reply(Reply),
    /// An error frame.
    Error(WireError),
}

/// Declares payload bodies. Each is a struct whose derived `Deserialize`
/// decodes the body, plus a `write` that prints the same fields, in
/// declaration order, from borrowed parts — one list of keys serves both
/// directions, and the declaration order is the canonical byte order.
macro_rules! bodies {
    ($($(#[$doc:meta])* $name:ident { $($field:ident: $ty:ty),* })*) => {$(
        $(#[$doc])*
        #[derive(Deserialize)]
        struct $name {
            $($field: $ty),*
        }

        impl $name {
            fn write(json: &mut String, $($field: &$ty),*) {
                let mut s = Serializer::new(json);
                let mut body = s.map();
                $(body.field(stringify!($field), $field);)*
                body.end();
            }
        }
    )*};
}

bodies! {
    /// `SOLVE`.
    SolveBody { tree: CruTree, costs: CostModel, lambda: Lambda }
    /// `SOLVE_BY_ID`.
    SolveByIdBody { id: u64, lambda: Lambda }
    /// `FRONTIER` and `OPEN_TENANT`.
    InstanceBody { tree: CruTree, costs: CostModel }
    /// `FRONTIER_BY_ID`.
    IdBody { id: u64 }
    /// `DELTA` (the tenant travels in the header).
    DeltaBody { delta: Delta, lambda: Lambda }
    /// `SOLVE_ANYTIME`.
    AnytimeBody { tree: CruTree, costs: CostModel, lambda: Lambda, budget_ms: u64 }
    /// `HELLO_ACK`.
    HelloAckBody { max_frame_len: u64 }
    /// `SOLUTION`.
    SolutionBody { id: u64, solution: Solution }
    /// `FRONTIER_REPLY`.
    FrontierBody { id: u64, frontier: LambdaFrontier }
    /// `APPLIED`.
    AppliedBody { outcome: ApplyOutcome, solution: Solution }
    /// `ANYTIME`.
    AnytimeReplyBody { id: u64, answer: AnytimeAnswer }
    /// `TENANT_CLOSED`.
    TenantClosedBody { stats: SessionStats }
}

/// Prints a request's body into `json`; returns its kind byte and header
/// tenant (a tenant-scoped kind's own, 0 for the other kinds).
fn write_request(req: &Request, json: &mut String) -> (u8, u64) {
    match req {
        Request::Solve {
            tree,
            costs,
            lambda,
        } => {
            SolveBody::write(json, tree, costs, lambda);
            (kind::SOLVE, 0)
        }
        Request::SolveById { id, lambda } => {
            SolveByIdBody::write(json, &id.raw(), lambda);
            (kind::SOLVE_BY_ID, 0)
        }
        Request::Frontier { tree, costs } => {
            InstanceBody::write(json, tree, costs);
            (kind::FRONTIER, 0)
        }
        Request::FrontierById { id } => {
            IdBody::write(json, &id.raw());
            (kind::FRONTIER_BY_ID, 0)
        }
        Request::Delta {
            tenant,
            delta,
            lambda,
        } => {
            DeltaBody::write(json, delta, lambda);
            (kind::DELTA, tenant.0)
        }
        Request::SolveAnytime {
            tree,
            costs,
            lambda,
            budget_ms,
        } => {
            AnytimeBody::write(json, tree, costs, lambda, budget_ms);
            (kind::SOLVE_ANYTIME, 0)
        }
        Request::OpenTenant {
            tenant,
            tree,
            costs,
        } => {
            InstanceBody::write(json, tree, costs);
            (kind::OPEN_TENANT, tenant.0)
        }
        Request::CloseTenant { tenant } => (kind::CLOSE_TENANT, tenant.0),
    }
}

/// Prints a reply's body into `json`; returns its kind byte.
fn write_reply(reply: &Reply, json: &mut String) -> u8 {
    match reply {
        Reply::Solution { id, solution } => {
            SolutionBody::write(json, &id.raw(), solution);
            kind::SOLUTION
        }
        Reply::Frontier { id, frontier } => {
            FrontierBody::write(json, &id.raw(), frontier);
            kind::FRONTIER_REPLY
        }
        Reply::Applied { outcome, solution } => {
            AppliedBody::write(json, outcome, solution);
            kind::APPLIED
        }
        Reply::Anytime { id, answer } => {
            AnytimeReplyBody::write(json, &id.raw(), answer);
            kind::ANYTIME
        }
        Reply::TenantOpened => kind::TENANT_OPENED,
        Reply::TenantClosed { stats } => {
            TenantClosedBody::write(json, stats);
            kind::TENANT_CLOSED
        }
    }
}

/// An encoder with reusable scratch: frames go **appended** into a
/// caller-owned `Vec<u8>` (the per-connection write queue), the payload
/// JSON is printed into one retained `String` — steady state allocates
/// nothing per frame, and pipelined replies coalesce in the output buffer
/// for a single `write(2)`. It is the only frame writer: every frame on
/// the wire, from either side, is appended by one of its `put_*` methods.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    json: String,
}

/// Appends one frame whose payload bytes are already encoded: length
/// prefix + header written fresh, `payload` copied verbatim. This is the
/// primitive every [`FrameEncoder`] append bottoms out in, and the way a
/// client replays a payload it encoded once.
pub fn put_raw_frame(out: &mut Vec<u8>, kind_: u8, tenant: u64, corr: u64, payload: &[u8]) {
    out.put_u32((HEADER_LEN + payload.len()) as u32);
    out.put_u8(PROTOCOL_VERSION);
    out.put_u8(kind_);
    out.put_u64(tenant);
    out.put_u64(corr);
    out.put_slice(payload);
}

impl FrameEncoder {
    /// An encoder with empty scratch.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// Prints a body with `write` (which returns the kind byte and header
    /// tenant) and appends its frame, returning the kind and the byte
    /// range the payload occupies inside `out`.
    fn put_with(
        &mut self,
        out: &mut Vec<u8>,
        corr: u64,
        write: impl FnOnce(&mut String) -> (u8, u64),
    ) -> (u8, Range<usize>) {
        self.json.clear();
        let (kind, tenant) = write(&mut self.json);
        put_raw_frame(out, kind, tenant, corr, self.json.as_bytes());
        (kind, out.len() - self.json.len()..out.len())
    }

    /// Appends a request frame, returning its kind and the byte range the
    /// payload occupies inside `out`. The tenant header field is taken
    /// from the request itself ([`Request::Delta`], [`Request::OpenTenant`],
    /// [`Request::CloseTenant`]); other kinds travel with tenant 0.
    pub fn put_request(
        &mut self,
        out: &mut Vec<u8>,
        corr: u64,
        req: &Request,
    ) -> (u8, Range<usize>) {
        self.put_with(out, corr, |json| write_request(req, json))
    }

    /// Appends a reply frame, returning its kind and the byte range the
    /// payload occupies inside `out`.
    pub fn put_reply(
        &mut self,
        out: &mut Vec<u8>,
        corr: u64,
        tenant: u64,
        reply: &Reply,
    ) -> (u8, Range<usize>) {
        self.put_with(out, corr, |json| (write_reply(reply, json), tenant))
    }

    /// Appends an error frame.
    pub fn put_error(&mut self, out: &mut Vec<u8>, corr: u64, tenant: u64, err: &WireError) {
        self.put_with(out, corr, |json| {
            err.serialize(&mut Serializer::new(json));
            (kind::ERROR, tenant)
        });
    }

    /// Appends the handshake frame.
    pub fn put_hello(&mut self, out: &mut Vec<u8>, corr: u64) {
        put_raw_frame(out, kind::HELLO, 0, corr, &[]);
    }

    /// Appends the handshake answer.
    pub fn put_hello_ack(&mut self, out: &mut Vec<u8>, corr: u64, max_frame_len: usize) {
        self.put_with(out, corr, |json| {
            HelloAckBody::write(json, &(max_frame_len as u64));
            (kind::HELLO_ACK, 0)
        });
    }
}

/// Decodes a payload body: linear in its length, nesting capped at
/// [`serde::MAX_DEPTH`], keys in any order, unknown keys ignored.
fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// The canonical wire JSON of a reply — what t13's byte-identity check
/// compares between a loopback answer and an in-process one.
pub fn reply_json(reply: &Reply) -> String {
    let mut json = String::new();
    write_reply(reply, &mut json);
    json
}

/// Decodes a client→server frame from its header fields and borrowed
/// payload (the reactor passes a [`FrameRef`]'s parts, so the payload is
/// decoded straight out of the connection's reassembly buffer). The
/// version byte must already have been checked by the caller, so a
/// version mismatch can echo the correlation id without attempting to
/// parse a future payload layout.
pub fn decode_request_parts(
    kind_: u8,
    tenant: u64,
    payload: &[u8],
) -> Result<NetRequest, WireError> {
    let submit = NetRequest::Submit;
    Ok(match kind_ {
        kind::HELLO => NetRequest::Hello,
        kind::SOLVE => {
            let b: SolveBody = decode(payload)?;
            submit(Request::solve_arc(
                Arc::new(b.tree),
                Arc::new(b.costs),
                b.lambda,
            ))
        }
        kind::SOLVE_BY_ID => {
            let b: SolveByIdBody = decode(payload)?;
            submit(Request::solve_by_id(InstanceId::from_raw(b.id), b.lambda))
        }
        kind::FRONTIER => {
            let b: InstanceBody = decode(payload)?;
            submit(Request::frontier_arc(Arc::new(b.tree), Arc::new(b.costs)))
        }
        kind::FRONTIER_BY_ID => {
            let b: IdBody = decode(payload)?;
            submit(Request::frontier_by_id(InstanceId::from_raw(b.id)))
        }
        kind::DELTA => {
            let b: DeltaBody = decode(payload)?;
            submit(Request::delta_arc(
                TenantId(tenant),
                Arc::new(b.delta),
                b.lambda,
            ))
        }
        kind::SOLVE_ANYTIME => {
            let b: AnytimeBody = decode(payload)?;
            submit(Request::SolveAnytime {
                tree: Arc::new(b.tree),
                costs: Arc::new(b.costs),
                lambda: b.lambda,
                budget_ms: b.budget_ms,
            })
        }
        kind::OPEN_TENANT => {
            let b: InstanceBody = decode(payload)?;
            submit(Request::OpenTenant {
                tenant: TenantId(tenant),
                tree: Arc::new(b.tree),
                costs: Arc::new(b.costs),
            })
        }
        kind::CLOSE_TENANT => submit(Request::close_tenant(TenantId(tenant))),
        k => return Err(WireError::UnknownKind(k)),
    })
}

/// Decodes a server→client frame.
pub fn decode_server_frame(frame: &Frame) -> Result<NetReply, WireError> {
    let payload = &frame.payload;
    Ok(match frame.kind {
        kind::HELLO_ACK => NetReply::HelloAck(decode::<HelloAckBody>(payload)?.max_frame_len),
        kind::SOLUTION => {
            let b: SolutionBody = decode(payload)?;
            NetReply::Reply(Reply::Solution {
                id: InstanceId::from_raw(b.id),
                solution: b.solution,
            })
        }
        kind::FRONTIER_REPLY => {
            let b: FrontierBody = decode(payload)?;
            NetReply::Reply(Reply::Frontier {
                id: InstanceId::from_raw(b.id),
                frontier: b.frontier,
            })
        }
        kind::APPLIED => {
            let b: AppliedBody = decode(payload)?;
            NetReply::Reply(Reply::Applied {
                outcome: b.outcome,
                solution: b.solution,
            })
        }
        kind::ANYTIME => {
            let b: AnytimeReplyBody = decode(payload)?;
            NetReply::Reply(Reply::Anytime {
                id: InstanceId::from_raw(b.id),
                answer: b.answer,
            })
        }
        kind::TENANT_OPENED => NetReply::Reply(Reply::TenantOpened),
        kind::TENANT_CLOSED => {
            let b: TenantClosedBody = decode(payload)?;
            NetReply::Reply(Reply::TenantClosed { stats: b.stats })
        }
        kind::ERROR => NetReply::Error(decode(payload)?),
        k => return Err(WireError::UnknownKind(k)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_graph::Lambda;

    /// A handful of frames, each encoded on its own.
    fn sample_frames() -> Vec<Vec<u8>> {
        let sc = hsa_workloads::paper_scenario();
        let mut enc = FrameEncoder::new();
        let mut frames = vec![Vec::new(); 6];
        enc.put_hello(&mut frames[0], 1);
        enc.put_hello_ack(&mut frames[1], 1, DEFAULT_MAX_FRAME_LEN);
        let solve = Request::solve(&sc.tree, &sc.costs, Lambda::HALF);
        enc.put_request(&mut frames[2], 2, &solve);
        enc.put_request(&mut frames[3], 3, &Request::frontier(&sc.tree, &sc.costs));
        enc.put_error(&mut frames[4], 4, 9, &WireError::Quota(9));
        enc.put_reply(&mut frames[5], 5, 9, &Reply::TenantOpened);
        frames
    }

    /// A decoded frame written back out.
    fn reput(f: &FrameRef<'_>) -> Vec<u8> {
        assert_eq!(f.version, PROTOCOL_VERSION);
        let mut out = Vec::new();
        put_raw_frame(&mut out, f.kind, f.tenant, f.corr, f.payload);
        out
    }

    /// The header layout, byte for byte: the golden fixtures pin only
    /// payloads, and a replaying client reads the kind and payload at
    /// these offsets.
    #[test]
    fn header_bytes_are_pinned() {
        let (tenant, corr) = (0x0102_0304_0506_0708, 0x1112_1314_1516_1718);
        let mut out = Vec::new();
        put_raw_frame(&mut out, 0x02, tenant, corr, b"{}");
        #[rustfmt::skip]
        let want = [
            0, 0, 0, 20,                                      // len
            1,                                                // version
            0x02,                                             // kind
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,   // tenant
            0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18,   // corr
            b'{', b'}',                                       // payload
        ];
        assert_eq!(out, want);

        let mut dec = FrameDecoder::new();
        dec.push(&out);
        match dec.next(DEFAULT_MAX_FRAME_LEN) {
            Some(Decoded::Frame(f)) => assert_eq!(
                f,
                FrameRef {
                    version: PROTOCOL_VERSION,
                    kind: 0x02,
                    tenant,
                    corr,
                    payload: b"{}",
                }
            ),
            other => panic!("expected the frame back, got {other:?}"),
        }
        assert_eq!(dec.buffered(), 0);
    }

    /// Reassembly is fragmentation-blind: feeding the same byte stream
    /// one byte at a time yields exactly the frames that encoded it.
    #[test]
    fn decoder_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &byte in frames.concat().iter() {
            dec.push(&[byte]);
            while let Some(d) = dec.next(DEFAULT_MAX_FRAME_LEN) {
                match d {
                    Decoded::Frame(f) => got.push(reput(&f)),
                    other => panic!("unexpected decode: {other:?}"),
                }
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    /// Chunked feeds that split frames at every possible boundary of the
    /// first two frames still reassemble the whole stream.
    #[test]
    fn decoder_survives_all_split_points() {
        let frames = sample_frames();
        let stream = frames.concat();
        let cut_range = frames[0].len() + frames[1].len();
        for cut in 0..=cut_range {
            let mut dec = FrameDecoder::new();
            let mut got = 0usize;
            for part in [&stream[..cut], &stream[cut..]] {
                dec.push(part);
                while let Some(d) = dec.next(DEFAULT_MAX_FRAME_LEN) {
                    match d {
                        Decoded::Frame(_) => got += 1,
                        other => panic!("unexpected decode: {other:?}"),
                    }
                }
            }
            assert_eq!(got, frames.len(), "split at byte {cut}");
        }
    }

    /// A partial length prefix (under 4 bytes) never decodes.
    #[test]
    fn decoder_waits_for_the_length_prefix() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0, 0, 0]);
        assert!(dec.next(DEFAULT_MAX_FRAME_LEN).is_none());
        assert_eq!(dec.buffered(), 3);
    }

    /// Oversized and undersized prefixes surface as unrecoverable
    /// markers, even arriving after valid frames on the same stream.
    #[test]
    fn decoder_flags_bad_prefixes() {
        let mut dec = FrameDecoder::new();
        dec.push(&sample_frames()[0]);
        dec.push(
            &u32::try_from(DEFAULT_MAX_FRAME_LEN + 1)
                .unwrap()
                .to_be_bytes(),
        );
        assert!(matches!(
            dec.next(DEFAULT_MAX_FRAME_LEN),
            Some(Decoded::Frame(_))
        ));
        match dec.next(DEFAULT_MAX_FRAME_LEN) {
            Some(Decoded::Oversized(len)) => {
                assert_eq!(len as usize, DEFAULT_MAX_FRAME_LEN + 1);
            }
            other => panic!("expected oversized, got {other:?}"),
        }

        let mut dec = FrameDecoder::new();
        dec.push(&(HEADER_LEN as u32 - 1).to_be_bytes());
        assert!(matches!(
            dec.next(DEFAULT_MAX_FRAME_LEN),
            Some(Decoded::Undersized(_))
        ));
    }
}
