//! The SMOQE wire protocol.
//!
//! Every message is one **frame**:
//!
//! ```text
//! [len: u32 LE] [version: u8] [op: u8] [request_id: u64 LE] [payload ...]
//! ```
//!
//! `len` counts everything after itself (version through payload), so the
//! smallest legal frame is `len == 10`. All integers are little-endian;
//! strings and byte blobs are `u32` length-prefixed UTF-8; vectors are
//! `u32` count-prefixed; booleans are one byte (`0`/`1`); options are a
//! one-byte presence flag followed by the value. There is no
//! self-description and no schema negotiation beyond the version byte —
//! the codec is hand-rolled ([`Enc`]/[`Dec`]) because the workspace is
//! offline and carries no serde.
//!
//! Request ops occupy `0x01..=0x7F`, responses set the high bit
//! (`0x81..`), and the two failure responses live at `0xE0`/`0xE1`. A
//! response always echoes the `request_id` of the request it answers, so
//! a client may pipeline requests over one connection.
//!
//! ## Security invariants on the wire
//!
//! Serialization is where in-process security guarantees usually die, so
//! they are enforced *here*, in the encoding layer, not in the server
//! loop:
//!
//! * **Opaque denial.** An [`EngineError`] crosses the wire as its stable
//!   [`code`](EngineError::code) plus its `Display` text — both derived
//!   only from the variant. `UpdateDenied` carries no payload in either,
//!   so the error frame for an update refused by policy is byte-identical
//!   to the one for a target that does not exist (tested below, and again
//!   over a real socket in `tests/server.rs`).
//! * **No raw node ids for group principals.** [`WireAnswer::from_answer`]
//!   replaces source-document [`NodeId`]s with answer **ordinals**
//!   (`0..n`) for group sessions: a raw id is a dense document index, and
//!   the gap between two consecutive answer ids would leak how many
//!   *hidden* nodes sit between them.
//! * **No evaluator telemetry for group principals.** `nodes_visited`,
//!   prune counters, depth etc. measure the *source* document, including
//!   regions the view conceals; a group answer keeps only `answers` and
//!   the request id. Likewise the execution mode is normalized to
//!   `Compiled` (jump-vs-scan selection reflects index statistics over
//!   hidden data) and shared-scan `events` of a batch are zeroed.
//!
//! Admin responses carry everything verbatim — the serving layer must not
//! degrade the engine's own observability.

use smoqe::hype::EvalStats;
use smoqe::xml::tree::NodeId;
use smoqe::{Answer, BatchAnswer, CacheMetrics, EngineError, ExecMode, UpdateReport, User};

use crate::trace::{Outcome, TraceEntry};

/// Protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Byte length of the fixed frame header *after* the length prefix
/// (version + op + request id).
pub const FRAME_HEADER_LEN: usize = 1 + 1 + 8;

/// Default cap on `len` — frames above this are rejected with
/// [`code::FRAME_TOO_LARGE`] instead of being buffered.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Request op codes (`0x01..=0x7F`).
pub mod op {
    /// Bind this connection: document name + principal.
    pub const HELLO: u8 = 0x01;
    /// Evaluate one Regular XPath query.
    pub const QUERY: u8 = 0x02;
    /// Evaluate a batch of queries in one shared pass.
    pub const QUERY_BATCH: u8 = 0x03;
    /// Apply one update statement.
    pub const UPDATE: u8 = 0x04;
    /// Apply a batch of update statements as one transaction.
    pub const UPDATE_BATCH: u8 = 0x05;
    /// Load a document (DTD + content + policies). Admin only.
    pub const OPEN_DOCUMENT: u8 = 0x06;
    /// Server / engine / per-tenant statistics and the trace ring.
    pub const STATS: u8 = 0x07;
    /// Liveness probe.
    pub const PING: u8 = 0x08;
    /// Begin graceful drain. Admin only.
    pub const SHUTDOWN: u8 = 0x09;

    /// Response to [`HELLO`].
    pub const HELLO_OK: u8 = 0x81;
    /// Response to [`QUERY`].
    pub const ANSWER_OK: u8 = 0x82;
    /// Response to [`QUERY_BATCH`].
    pub const BATCH_OK: u8 = 0x83;
    /// Response to [`UPDATE`].
    pub const UPDATE_OK: u8 = 0x84;
    /// Response to [`UPDATE_BATCH`].
    pub const UPDATE_BATCH_OK: u8 = 0x85;
    /// Response to [`OPEN_DOCUMENT`].
    pub const OPEN_OK: u8 = 0x86;
    /// Response to [`STATS`].
    pub const STATS_OK: u8 = 0x87;
    /// Response to [`PING`].
    pub const PONG: u8 = 0x88;
    /// Response to [`SHUTDOWN`].
    pub const SHUTDOWN_OK: u8 = 0x89;
    /// Request failed (engine error or protocol violation).
    pub const ERROR: u8 = 0xE0;
    /// Request refused by admission control; retry later.
    pub const BUSY: u8 = 0xE1;
    /// Request refused by brownout overload protection; retry later.
    pub const OVERLOADED: u8 = 0xE2;
}

/// Error codes carried by [`Response::Error`].
///
/// Codes `1..=99` are [`EngineError::code`] values, forwarded verbatim.
/// Codes `100..` are protocol-level failures minted by the server:
pub mod code {
    /// Frame or payload failed to decode.
    pub const MALFORMED_FRAME: u16 = 100;
    /// Version byte differs from [`super::PROTOCOL_VERSION`].
    pub const BAD_VERSION: u16 = 101;
    /// Frame length exceeds the server's cap.
    pub const FRAME_TOO_LARGE: u16 = 102;
    /// An op other than `Hello`/`Ping` arrived before `Hello`.
    pub const HELLO_REQUIRED: u16 = 103;
    /// Unknown op byte.
    pub const UNSUPPORTED_OP: u16 = 104;
    /// Server is draining; no new work is accepted.
    pub const SHUTTING_DOWN: u16 = 105;
    /// Admin-only op attempted by a group principal.
    pub const UNAUTHORIZED: u16 = 106;
    /// The worker executing the request panicked; the request died but
    /// the server did not.
    pub const INTERNAL: u16 = 107;
    /// The `Hello` principal is unusable: a group name that is not a
    /// bare policy identifier (empty, punctuated, or masquerading as the
    /// reserved admin tenant key).
    pub const BAD_PRINCIPAL: u16 = 108;
    /// The response could not be framed because some length exceeded the
    /// `u32` wire prefix. The request is lost; the stream stays in sync.
    pub const RESPONSE_TOO_LARGE: u16 = 109;
    /// The server is replaying its write-ahead log after a restart; the
    /// request was not processed. Retry shortly — the address is right,
    /// the data just is not ready yet.
    pub const RECOVERING: u16 = 110;
    /// The request's `deadline_ms` passed before an answer was produced.
    /// One code covers every stage — shed from the queue before running,
    /// or abandoned mid-evaluation — so the frame never reveals how far a
    /// query got (or how much hidden structure it touched).
    pub const DEADLINE_EXCEEDED: u16 = 111;
    /// The server is in brownout: the queue passed its high-watermark and
    /// new non-admin work is refused until in-flight work drains. (The
    /// refusal itself travels as [`super::Response::Overloaded`]; this
    /// code exists for trace rings and logs.)
    pub const OVERLOADED: u16 = 112;
    /// The request was cooperatively cancelled (its connection died or an
    /// operator killed it) before an answer was produced. Carries no
    /// progress detail, like [`DEADLINE_EXCEEDED`].
    pub const CANCELLED: u16 = 113;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Payload decode failure. Deliberately carries no position or context:
/// the server answers every decode failure with the same
/// [`code::MALFORMED_FRAME`] error so a probing client cannot bisect the
/// schema by observing *where* decoding stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtoError;

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("malformed frame payload")
    }
}

impl std::error::Error for ProtoError {}

/// A length (string, vector count or whole frame) exceeded the `u32`
/// wire prefix. Truncating would silently desync the stream, so encoding
/// fails instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncodeTooLarge;

impl std::fmt::Display for EncodeTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("encoded length exceeds the u32 wire prefix")
    }
}

impl std::error::Error for EncodeTooLarge {}

/// Little-endian payload encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
    overflow: bool,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, unless some length overflowed the `u32` wire
    /// prefix along the way.
    pub fn try_finish(self) -> Result<Vec<u8>, EncodeTooLarge> {
        if self.overflow {
            Err(EncodeTooLarge)
        } else {
            Ok(self.buf)
        }
    }

    /// Whether any length written so far overflowed `u32`.
    pub fn overflowed(&self) -> bool {
        self.overflow
    }

    /// Writes a `usize` length as its `u32` wire prefix, flagging (not
    /// wrapping) values that do not fit.
    fn len32(&mut self, n: usize) -> &mut Self {
        match u32::try_from(n) {
            Ok(v) => self.u32(v),
            Err(_) => {
                self.overflow = true;
                self.u32(u32::MAX)
            }
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a boolean as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.len32(v.len());
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Appends an optional string (presence flag + value).
    pub fn opt_str(&mut self, v: Option<&str>) -> &mut Self {
        match v {
            Some(s) => self.bool(true).str(s),
            None => self.bool(false),
        }
    }

    /// Appends a count-prefixed vector of strings.
    pub fn str_vec(&mut self, v: &[String]) -> &mut Self {
        self.len32(v.len());
        for s in v {
            self.str(s);
        }
        self
    }
}

/// Little-endian payload decoder over a borrowed buffer.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError)?;
        if end > self.buf.len() {
            return Err(ProtoError);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a boolean (rejecting anything but `0`/`1`).
    pub fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError)
    }

    /// Reads an optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>, ProtoError> {
        if self.bool()? {
            Ok(Some(self.str()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a count-prefixed vector of strings.
    pub fn str_vec(&mut self) -> Result<Vec<String>, ProtoError> {
        let n = self.u32()? as usize;
        // Each element costs at least its 4-byte length prefix; reject
        // counts the remaining bytes cannot possibly satisfy before
        // allocating (a 4-byte count can claim 4 billion elements).
        if n > self.remaining() / 4 {
            return Err(ProtoError);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage is a
    /// malformed frame, not an extension point.
    pub fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError)
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// One decoded frame (header fields + raw payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Op byte.
    pub op: u8,
    /// Request id echoed between request and response.
    pub request_id: u64,
    /// Raw payload bytes (op-specific encoding).
    pub payload: Vec<u8>,
}

/// Why a byte stream failed to yield a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length exceeds the configured cap.
    TooLarge(u32),
    /// Declared length is below the fixed header size.
    Runt(u32),
    /// Version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
}

impl FrameError {
    /// The protocol error code a server answers this failure with.
    pub fn code(&self) -> u16 {
        match self {
            FrameError::TooLarge(_) => code::FRAME_TOO_LARGE,
            FrameError::Runt(_) => code::MALFORMED_FRAME,
            FrameError::BadVersion(_) => code::BAD_VERSION,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Runt(n) => write!(f, "frame of {n} bytes is shorter than its header"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a complete frame (length prefix + header + payload), unless
/// the frame length would overflow the `u32` prefix — a wrapped prefix
/// would emit a corrupt frame and desync the stream.
pub fn try_encode_frame(
    frame_op: u8,
    request_id: u64,
    payload: &[u8],
) -> Result<Vec<u8>, EncodeTooLarge> {
    let len = u32::try_from(FRAME_HEADER_LEN + payload.len()).map_err(|_| EncodeTooLarge)?;
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(PROTOCOL_VERSION);
    buf.push(frame_op);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Encodes a complete frame (length prefix + header + payload).
///
/// Panics if the frame would overflow the `u32` length prefix; callers
/// that can see attacker-sized payloads use [`try_encode_frame`].
pub fn encode_frame(frame_op: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    try_encode_frame(frame_op, request_id, payload).expect("frame exceeds u32 length prefix")
}

/// Incremental frame parser over an append-only byte buffer.
///
/// The server feeds whatever `read` returned (connections run with a short
/// read timeout as a shutdown-poll tick, so reads deliver arbitrary
/// partial chunks) and pulls zero or more complete frames back out.
/// Oversized and mis-versioned frames are detected from the first bytes —
/// **before** the body is buffered — so a hostile length prefix cannot
/// make the server allocate.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing (bounded memory per
        // connection: at most one max-length frame plus one read chunk).
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". An `Err` is fatal for the
    /// stream: the length prefix or version byte is unusable, so
    /// resynchronization is impossible and the caller should answer with
    /// [`FrameError::code`] and close.
    pub fn next_frame(&mut self, max_len: u32) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len < FRAME_HEADER_LEN as u32 {
            return Err(FrameError::Runt(len));
        }
        if len > max_len {
            return Err(FrameError::TooLarge(len));
        }
        // Version is checkable as soon as it arrives; don't wait for the
        // full body to reject a frame we can never parse.
        if avail.len() >= 5 && avail[4] != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(avail[4]));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame_op = avail[5];
        let request_id = u64::from_le_bytes(avail[6..14].try_into().unwrap());
        let payload = avail[14..total].to_vec();
        self.start += total;
        Ok(Some(Frame {
            op: frame_op,
            request_id,
            payload,
        }))
    }
}

// ---------------------------------------------------------------------------
// Principals
// ---------------------------------------------------------------------------

/// Who a connection authenticates as at `Hello`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Principal {
    /// Full access to the source document; sees raw ids and telemetry.
    Admin,
    /// Access through the named group's security view.
    Group(String),
}

impl Principal {
    /// Converts to the engine's [`User`].
    pub fn to_user(&self) -> User {
        match self {
            Principal::Admin => User::Admin,
            Principal::Group(g) => User::Group(g.clone()),
        }
    }

    /// Whether responses to this principal carry unmasked telemetry.
    pub fn is_admin(&self) -> bool {
        matches!(self, Principal::Admin)
    }

    /// Whether this principal may bind a session at all.
    ///
    /// Tenant accounting, admission quotas and stats scoping key on the
    /// flattened tenant string, where the admin row is the parenthesized
    /// [`smoqe::ADMIN_TENANT`] — a key that can never collide with a
    /// *policy-registered* group because the policy grammar keeps groups
    /// to bare identifiers. The wire accepts arbitrary strings, so the
    /// same grammar is enforced here: a `Group` name must be a bare
    /// identifier (`[A-Za-z_][A-Za-z0-9_-]*`, at most 128 bytes).
    /// Anything else — `"(admin)"` included — is refused at `Hello` with
    /// [`code::BAD_PRINCIPAL`], before it can bind a session, occupy the
    /// admin quota/stats row, or pollute the trace identity.
    pub fn is_valid(&self) -> bool {
        match self {
            Principal::Admin => true,
            Principal::Group(g) => valid_group_name(g),
        }
    }

    fn encode(&self, e: &mut Enc) {
        match self {
            Principal::Admin => {
                e.u8(0);
            }
            Principal::Group(g) => {
                e.u8(1).str(g);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        match d.u8()? {
            0 => Ok(Principal::Admin),
            1 => Ok(Principal::Group(d.str()?)),
            _ => Err(ProtoError),
        }
    }
}

/// Whether `name` is a bare policy identifier — the only shape a wire
/// `Group` principal may take (see [`Principal::is_valid`]).
pub fn valid_group_name(name: &str) -> bool {
    if name.is_empty() || name.len() > 128 {
        return false;
    }
    let mut bytes = name.bytes();
    let first = bytes.next().unwrap();
    (first.is_ascii_alphabetic() || first == b'_')
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Bind the connection to `document` as `principal`.
    Hello {
        /// Catalog name of the document to bind to.
        document: String,
        /// Principal the session runs as.
        principal: Principal,
        /// Authentication token. Required whenever the server has a
        /// token configured for the principal (always consult the
        /// server's trust model: admin principals additionally need
        /// either a configured token or a loopback peer).
        auth: Option<String>,
    },
    /// Evaluate one Regular XPath query.
    Query {
        /// The query text.
        query: String,
        /// Caller's deadline in milliseconds from server receipt
        /// (`0` = none). Expired work is shed from the queue before it
        /// runs and abandoned mid-scan if it expires while running.
        deadline_ms: u32,
    },
    /// Evaluate several queries against one snapshot (one shared scan
    /// on a stream engine).
    QueryBatch {
        /// The query texts, answered in order.
        queries: Vec<String>,
        /// Caller's deadline for the whole batch in milliseconds from
        /// server receipt (`0` = none).
        deadline_ms: u32,
    },
    /// Apply one update statement.
    Update {
        /// The update statement text.
        statement: String,
        /// Caller's deadline in milliseconds from server receipt
        /// (`0` = none). Updates are shed from the queue when expired but
        /// never interrupted mid-application (atomicity first).
        deadline_ms: u32,
    },
    /// Apply several update statements as one all-or-nothing transaction.
    UpdateBatch {
        /// The statement texts.
        statements: Vec<String>,
        /// Caller's deadline in milliseconds from server receipt
        /// (`0` = none); queue-shed only, like [`Request::Update`].
        deadline_ms: u32,
    },
    /// Load a document into the catalog (admin only).
    OpenDocument {
        /// Catalog name to load into.
        name: String,
        /// DTD source, if the document should be typed.
        dtd: Option<String>,
        /// Document XML source.
        xml: Option<String>,
        /// `(group, policy-source)` pairs to register.
        policies: Vec<(String, String)>,
    },
    /// Fetch server, engine, per-tenant and trace statistics.
    Stats {
        /// Include the request trace ring in the response (admin only —
        /// the trace names other tenants).
        include_trace: bool,
    },
    /// Liveness probe.
    Ping,
    /// Begin graceful drain (admin only).
    Shutdown,
}

impl Request {
    /// The op byte this request travels under.
    pub fn op(&self) -> u8 {
        match self {
            Request::Hello { .. } => op::HELLO,
            Request::Query { .. } => op::QUERY,
            Request::QueryBatch { .. } => op::QUERY_BATCH,
            Request::Update { .. } => op::UPDATE,
            Request::UpdateBatch { .. } => op::UPDATE_BATCH,
            Request::OpenDocument { .. } => op::OPEN_DOCUMENT,
            Request::Stats { .. } => op::STATS,
            Request::Ping => op::PING,
            Request::Shutdown => op::SHUTDOWN,
        }
    }

    /// The caller's deadline in milliseconds for the engine ops (`0` =
    /// none; ops without a deadline field report `0` too).
    pub fn deadline_ms(&self) -> u32 {
        match self {
            Request::Query { deadline_ms, .. }
            | Request::QueryBatch { deadline_ms, .. }
            | Request::Update { deadline_ms, .. }
            | Request::UpdateBatch { deadline_ms, .. } => *deadline_ms,
            _ => 0,
        }
    }

    /// Sets the deadline field on the engine ops (no-op for other ops).
    /// The client library uses this to re-stamp each retry attempt with
    /// the caller's *remaining* budget, since the wire field is relative
    /// to server receipt.
    pub fn set_deadline_ms(&mut self, ms: u32) {
        if let Request::Query { deadline_ms, .. }
        | Request::QueryBatch { deadline_ms, .. }
        | Request::Update { deadline_ms, .. }
        | Request::UpdateBatch { deadline_ms, .. } = self
        {
            *deadline_ms = ms;
        }
    }

    /// Human-readable op name (trace dumps, CLI output).
    pub fn op_name(op_byte: u8) -> &'static str {
        match op_byte {
            op::HELLO => "hello",
            op::QUERY => "query",
            op::QUERY_BATCH => "query-batch",
            op::UPDATE => "update",
            op::UPDATE_BATCH => "update-batch",
            op::OPEN_DOCUMENT => "open-document",
            op::STATS => "stats",
            op::PING => "ping",
            op::SHUTDOWN => "shutdown",
            _ => "?",
        }
    }

    /// Encodes this request as a complete frame.
    ///
    /// Panics if the request cannot fit the `u32` length prefixes;
    /// [`Request::try_encode`] is the fallible form the client uses.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        self.try_encode(request_id)
            .expect("request exceeds u32 frame length prefix")
    }

    /// Encodes this request as a complete frame, failing (instead of
    /// emitting a stream-desyncing wrapped length) when any string,
    /// count or the frame itself overflows its `u32` prefix.
    pub fn try_encode(&self, request_id: u64) -> Result<Vec<u8>, EncodeTooLarge> {
        let mut e = Enc::new();
        match self {
            Request::Hello {
                document,
                principal,
                auth,
            } => {
                e.str(document);
                principal.encode(&mut e);
                e.opt_str(auth.as_deref());
            }
            Request::Query { query, deadline_ms } => {
                e.str(query);
                e.u32(*deadline_ms);
            }
            Request::QueryBatch {
                queries,
                deadline_ms,
            } => {
                e.str_vec(queries);
                e.u32(*deadline_ms);
            }
            Request::Update {
                statement,
                deadline_ms,
            } => {
                e.str(statement);
                e.u32(*deadline_ms);
            }
            Request::UpdateBatch {
                statements,
                deadline_ms,
            } => {
                e.str_vec(statements);
                e.u32(*deadline_ms);
            }
            Request::OpenDocument {
                name,
                dtd,
                xml,
                policies,
            } => {
                e.str(name).opt_str(dtd.as_deref()).opt_str(xml.as_deref());
                e.len32(policies.len());
                for (group, policy) in policies {
                    e.str(group).str(policy);
                }
            }
            Request::Stats { include_trace } => {
                e.bool(*include_trace);
            }
            Request::Ping | Request::Shutdown => {}
        }
        try_encode_frame(self.op(), request_id, &e.try_finish()?)
    }

    /// Decodes a request payload for `op_byte`.
    ///
    /// `Err(None)` means the op byte itself is unknown
    /// ([`code::UNSUPPORTED_OP`]); `Err(Some(_))` is a payload decode
    /// failure ([`code::MALFORMED_FRAME`]).
    pub fn decode(op_byte: u8, payload: &[u8]) -> Result<Request, Option<ProtoError>> {
        let mut d = Dec::new(payload);
        let req = match op_byte {
            op::HELLO => Request::Hello {
                document: d.str().map_err(Some)?,
                principal: Principal::decode(&mut d).map_err(Some)?,
                auth: d.opt_str().map_err(Some)?,
            },
            op::QUERY => Request::Query {
                query: d.str().map_err(Some)?,
                deadline_ms: d.u32().map_err(Some)?,
            },
            op::QUERY_BATCH => Request::QueryBatch {
                queries: d.str_vec().map_err(Some)?,
                deadline_ms: d.u32().map_err(Some)?,
            },
            op::UPDATE => Request::Update {
                statement: d.str().map_err(Some)?,
                deadline_ms: d.u32().map_err(Some)?,
            },
            op::UPDATE_BATCH => Request::UpdateBatch {
                statements: d.str_vec().map_err(Some)?,
                deadline_ms: d.u32().map_err(Some)?,
            },
            op::OPEN_DOCUMENT => {
                let name = d.str().map_err(Some)?;
                let dtd = d.opt_str().map_err(Some)?;
                let xml = d.opt_str().map_err(Some)?;
                let n = d.u32().map_err(Some)? as usize;
                if n > d.remaining() / 8 {
                    return Err(Some(ProtoError));
                }
                let mut policies = Vec::with_capacity(n);
                for _ in 0..n {
                    policies.push((d.str().map_err(Some)?, d.str().map_err(Some)?));
                }
                Request::OpenDocument {
                    name,
                    dtd,
                    xml,
                    policies,
                }
            }
            op::STATS => Request::Stats {
                include_trace: d.bool().map_err(Some)?,
            },
            op::PING => Request::Ping,
            op::SHUTDOWN => Request::Shutdown,
            _ => return Err(None),
        };
        d.finish().map_err(Some)?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Wire views of engine results
// ---------------------------------------------------------------------------

// Mode code 1 named the retired per-event interpreter; it stays
// unassigned so an old peer's byte is rejected, not reinterpreted.
fn mode_to_u8(mode: ExecMode) -> u8 {
    match mode {
        ExecMode::Compiled => 0,
        ExecMode::Jump => 2,
    }
}

fn mode_from_u8(v: u8) -> Result<ExecMode, ProtoError> {
    match v {
        0 => Ok(ExecMode::Compiled),
        2 => Ok(ExecMode::Jump),
        _ => Err(ProtoError),
    }
}

/// `EvalStats` as a fixed run of thirteen `u64`s, in declaration order.
fn encode_stats(e: &mut Enc, s: &EvalStats) {
    e.u64(s.nodes_visited as u64);
    e.u64(s.subtrees_pruned_tax as u64);
    e.u64(s.subtrees_skipped_dead as u64);
    e.u64(s.cans_size as u64);
    e.u64(s.immediate_answers as u64);
    e.u64(s.answers as u64);
    e.u64(s.pred_instances as u64);
    e.u64(s.runs_spawned as u64);
    e.u64(s.formula_nodes as u64);
    e.u64(s.guard_probes as u64);
    e.u64(s.max_depth as u64);
    e.u64(s.tree_passes as u64);
    e.u64(s.request_id);
}

fn decode_stats(d: &mut Dec<'_>) -> Result<EvalStats, ProtoError> {
    Ok(EvalStats {
        nodes_visited: d.u64()? as usize,
        subtrees_pruned_tax: d.u64()? as usize,
        subtrees_skipped_dead: d.u64()? as usize,
        cans_size: d.u64()? as usize,
        immediate_answers: d.u64()? as usize,
        answers: d.u64()? as usize,
        pred_instances: d.u64()? as usize,
        runs_spawned: d.u64()? as usize,
        formula_nodes: d.u64()? as usize,
        guard_probes: d.u64()? as usize,
        max_depth: d.u64()? as usize,
        tree_passes: d.u64()? as usize,
        request_id: d.u64()?,
    })
}

/// An [`Answer`] as it crosses the wire.
///
/// `xml` is always materialized (the server evaluates through
/// `Session::query_serialized`, so group answers are view images and admin
/// answers are raw subtrees). Whether `nodes`/`stats`/`mode` are real or
/// masked depends on the principal — see [`WireAnswer::from_answer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireAnswer {
    /// Admin: raw source node ids, document order. Group: ordinals `0..n`.
    pub nodes: Vec<u64>,
    /// Admin: full evaluator counters. Group: `answers` + `request_id`
    /// only.
    pub stats: EvalStats,
    /// Whether the plan came from the shared plan cache.
    pub plan_cached: bool,
    /// Admin: the mode the plan ran in. Group: always `Compiled`.
    pub mode: ExecMode,
    /// Serialized answer subtrees, one per node.
    pub xml: Vec<String>,
}

impl WireAnswer {
    /// Builds the wire view of `answer` for `principal`, stamping
    /// `request_id` into the stats.
    ///
    /// This is the **leak chokepoint**: group principals get answer
    /// ordinals instead of source node ids, a stats block reduced to the
    /// answer count, and a normalized execution mode. See the module docs
    /// for why each field is masked.
    pub fn from_answer(answer: &Answer, principal: &Principal, request_id: u64) -> WireAnswer {
        let xml = answer.xml.clone().unwrap_or_default();
        if principal.is_admin() {
            let mut stats = answer.stats;
            stats.request_id = request_id;
            WireAnswer {
                nodes: answer.nodes.iter().map(|n| n.0 as u64).collect(),
                stats,
                plan_cached: answer.plan_cached,
                mode: answer.mode,
                xml,
            }
        } else {
            WireAnswer {
                nodes: (0..answer.nodes.len() as u64).collect(),
                stats: EvalStats {
                    answers: answer.stats.answers,
                    request_id,
                    ..EvalStats::default()
                },
                plan_cached: answer.plan_cached,
                mode: ExecMode::Compiled,
                xml,
            }
        }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Reinterprets the wire answer as an engine [`Answer`] (node ids are
    /// whatever the server sent: raw ids for admins, ordinals for
    /// groups).
    pub fn into_answer(self) -> Answer {
        Answer {
            nodes: self.nodes.iter().map(|&n| NodeId(n as u32)).collect(),
            stats: self.stats,
            plan_cached: self.plan_cached,
            mode: self.mode,
            xml: Some(self.xml),
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.len32(self.nodes.len());
        for &n in &self.nodes {
            e.u64(n);
        }
        encode_stats(e, &self.stats);
        e.bool(self.plan_cached);
        e.u8(mode_to_u8(self.mode));
        e.str_vec(&self.xml);
    }

    fn decode(d: &mut Dec<'_>) -> Result<WireAnswer, ProtoError> {
        let n = d.u32()? as usize;
        if n > d.remaining() / 8 {
            return Err(ProtoError);
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(d.u64()?);
        }
        Ok(WireAnswer {
            nodes,
            stats: decode_stats(d)?,
            plan_cached: d.bool()?,
            mode: mode_from_u8(d.u8()?)?,
            xml: d.str_vec()?,
        })
    }
}

/// An [`UpdateReport`] as it crosses the wire.
///
/// `nodes_before`/`nodes_after` are already view-relative for group
/// sessions (the engine masks them in-process); `tax_patched` is not —
/// whether a *source-document* index absorbed the edit says nothing a
/// group should know, so [`WireUpdateReport::from_report`] zeroes it for
/// group principals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireUpdateReport {
    /// Nodes the statement was applied at.
    pub applied: u64,
    /// Session-visible node count before the statement.
    pub nodes_before: u64,
    /// Session-visible node count after the statement.
    pub nodes_after: u64,
    /// Admin: whether a TAX index was incrementally patched. Group:
    /// always `false`.
    pub tax_patched: bool,
}

impl WireUpdateReport {
    /// Builds the wire view of `report` for `principal`.
    pub fn from_report(report: &UpdateReport, principal: &Principal) -> WireUpdateReport {
        WireUpdateReport {
            applied: report.applied as u64,
            nodes_before: report.nodes_before as u64,
            nodes_after: report.nodes_after as u64,
            tax_patched: principal.is_admin() && report.tax_patched,
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.applied)
            .u64(self.nodes_before)
            .u64(self.nodes_after)
            .bool(self.tax_patched);
    }

    fn decode(d: &mut Dec<'_>) -> Result<WireUpdateReport, ProtoError> {
        Ok(WireUpdateReport {
            applied: d.u64()?,
            nodes_before: d.u64()?,
            nodes_after: d.u64()?,
            tax_patched: d.bool()?,
        })
    }
}

/// Per-tenant counters as they cross the wire (mirrors
/// [`smoqe::TenantMetrics`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTenant {
    /// Tenant key (`"(admin)"` or a group name).
    pub tenant: String,
    /// Queries evaluated.
    pub queries: u64,
    /// Query batches evaluated.
    pub batches: u64,
    /// Update statements attempted.
    pub updates: u64,
    /// Updates refused by policy.
    pub update_denials: u64,
    /// Other errors.
    pub errors: u64,
    /// Answer nodes returned.
    pub answers: u64,
    /// Evaluator work done on the tenant's behalf.
    pub nodes_visited: u64,
    /// Requests refused by admission control (server-side counter; the
    /// engine never sees these).
    pub busy_rejections: u64,
}

impl WireTenant {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.tenant);
        e.u64(self.queries)
            .u64(self.batches)
            .u64(self.updates)
            .u64(self.update_denials)
            .u64(self.errors)
            .u64(self.answers)
            .u64(self.nodes_visited)
            .u64(self.busy_rejections);
    }

    fn decode(d: &mut Dec<'_>) -> Result<WireTenant, ProtoError> {
        Ok(WireTenant {
            tenant: d.str()?,
            queries: d.u64()?,
            batches: d.u64()?,
            updates: d.u64()?,
            update_denials: d.u64()?,
            errors: d.u64()?,
            answers: d.u64()?,
            nodes_visited: d.u64()?,
            busy_rejections: d.u64()?,
        })
    }
}

/// Server + engine statistics returned by the `Stats` op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireStats {
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plans purged because their document was dropped or their group's
    /// view re-registered.
    pub cache_invalidations: u64,
    /// Capacity evictions.
    pub cache_evictions: u64,
    /// Plans currently resident.
    pub cache_entries: u64,
    /// Connections currently open.
    pub connections: u64,
    /// Requests currently queued (bounded).
    pub queue_depth: u64,
    /// The queue bound.
    pub queue_capacity: u64,
    /// Requests executed since start.
    pub requests_total: u64,
    /// `Busy` responses issued since start.
    pub busy_total: u64,
    /// Trace entries dropped because the ring was full.
    pub trace_dropped: u64,
    /// The engine's recovery epoch: 0 for an in-memory engine or a fresh
    /// data directory, +1 per crash recovery. Counters restart from zero
    /// each epoch, so a consumer seeing this advance knows the zeros mean
    /// "recovered", not "idle".
    pub epoch: u64,
    /// Connections dropped because the client stopped reading and a
    /// response write timed out (slow-reader protection).
    pub slow_client_drops: u64,
    /// Requests shed from the queue with their deadline already expired
    /// (answered without ever running).
    pub shed_total: u64,
    /// Requests whose deadline expired mid-evaluation.
    pub deadline_total: u64,
    /// Requests cooperatively cancelled mid-flight.
    pub cancelled_total: u64,
    /// Requests refused by brownout overload protection.
    pub overloaded_total: u64,
    /// Admission slots currently held by in-flight or queued requests
    /// (a gauge: a drained, idle server reports `0`, which is what the
    /// chaos harness asserts to prove no fault path leaks a slot).
    pub inflight: u64,
    /// Per-tenant counters (admin sees all tenants; a group principal
    /// sees only its own row).
    pub tenants: Vec<WireTenant>,
    /// The request trace ring (admin + `include_trace` only).
    pub trace: Vec<TraceEntry>,
}

impl WireStats {
    /// Copies engine-side cache counters in.
    pub fn set_cache(&mut self, m: &CacheMetrics) {
        self.cache_hits = m.hits;
        self.cache_misses = m.misses;
        self.cache_invalidations = m.invalidations;
        self.cache_evictions = m.evictions;
        self.cache_entries = m.entries as u64;
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.cache_hits)
            .u64(self.cache_misses)
            .u64(self.cache_invalidations)
            .u64(self.cache_evictions)
            .u64(self.cache_entries)
            .u64(self.connections)
            .u64(self.queue_depth)
            .u64(self.queue_capacity)
            .u64(self.requests_total)
            .u64(self.busy_total)
            .u64(self.trace_dropped)
            .u64(self.epoch)
            .u64(self.slow_client_drops)
            .u64(self.shed_total)
            .u64(self.deadline_total)
            .u64(self.cancelled_total)
            .u64(self.overloaded_total)
            .u64(self.inflight);
        e.len32(self.tenants.len());
        for t in &self.tenants {
            t.encode(e);
        }
        e.len32(self.trace.len());
        for t in &self.trace {
            e.u64(t.request_id);
            e.str(&t.tenant);
            e.u8(t.op);
            e.u8(t.outcome.as_u8());
            e.u16(t.code);
            e.u64(t.micros);
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<WireStats, ProtoError> {
        let mut s = WireStats {
            cache_hits: d.u64()?,
            cache_misses: d.u64()?,
            cache_invalidations: d.u64()?,
            cache_evictions: d.u64()?,
            cache_entries: d.u64()?,
            connections: d.u64()?,
            queue_depth: d.u64()?,
            queue_capacity: d.u64()?,
            requests_total: d.u64()?,
            busy_total: d.u64()?,
            trace_dropped: d.u64()?,
            epoch: d.u64()?,
            slow_client_drops: d.u64()?,
            shed_total: d.u64()?,
            deadline_total: d.u64()?,
            cancelled_total: d.u64()?,
            overloaded_total: d.u64()?,
            inflight: d.u64()?,
            ..WireStats::default()
        };
        let nt = d.u32()? as usize;
        if nt > d.remaining() / 8 {
            return Err(ProtoError);
        }
        for _ in 0..nt {
            s.tenants.push(WireTenant::decode(d)?);
        }
        let ne = d.u32()? as usize;
        if ne > d.remaining() / 8 {
            return Err(ProtoError);
        }
        for _ in 0..ne {
            s.trace.push(TraceEntry {
                request_id: d.u64()?,
                tenant: d.str()?,
                op: d.u8()?,
                outcome: Outcome::from_u8(d.u8()?).ok_or(ProtoError)?,
                code: d.u16()?,
                micros: d.u64()?,
            });
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A decoded server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session established.
    HelloOk {
        /// Tenant key the session is accounted under.
        tenant: String,
    },
    /// Query answered.
    AnswerOk(WireAnswer),
    /// Batch answered.
    BatchOk {
        /// One answer per query, input order.
        answers: Vec<WireAnswer>,
        /// Shared-scan parser events (admin only; `0` for groups and for
        /// the DOM path).
        events: u64,
    },
    /// Update applied.
    UpdateOk(WireUpdateReport),
    /// Update batch applied.
    UpdateBatchOk(
        /// One report per statement, input order.
        Vec<WireUpdateReport>,
    ),
    /// Document loaded.
    OpenOk,
    /// Statistics snapshot.
    StatsOk(Box<WireStats>),
    /// Liveness reply.
    Pong,
    /// Drain acknowledged.
    ShutdownOk,
    /// Request failed.
    Error {
        /// [`EngineError::code`] (`1..=99`) or a [`code`] protocol code
        /// (`100..`).
        code: u16,
        /// Display text. For engine errors this is exactly
        /// `EngineError::to_string()` — variant-derived, payload-free for
        /// the denial variants.
        message: String,
    },
    /// Refused by admission control; retry after the hinted delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// Refused by brownout overload protection (queue past its
    /// high-watermark); retry after the hinted delay. Distinct from
    /// [`Response::Busy`] so clients and dashboards can tell per-tenant
    /// throttling from whole-server overload.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
}

impl Response {
    /// The op byte this response travels under.
    pub fn op(&self) -> u8 {
        match self {
            Response::HelloOk { .. } => op::HELLO_OK,
            Response::AnswerOk(_) => op::ANSWER_OK,
            Response::BatchOk { .. } => op::BATCH_OK,
            Response::UpdateOk(_) => op::UPDATE_OK,
            Response::UpdateBatchOk(_) => op::UPDATE_BATCH_OK,
            Response::OpenOk => op::OPEN_OK,
            Response::StatsOk(_) => op::STATS_OK,
            Response::Pong => op::PONG,
            Response::ShutdownOk => op::SHUTDOWN_OK,
            Response::Error { .. } => op::ERROR,
            Response::Busy { .. } => op::BUSY,
            Response::Overloaded { .. } => op::OVERLOADED,
        }
    }

    /// The wire form of an engine failure: stable code + display text,
    /// nothing else. Both derive from the error *variant* alone, which is
    /// what keeps `UpdateDenied` frames byte-identical regardless of
    /// whether the target was hidden or never existed.
    ///
    /// The interrupt variants map onto the *protocol* deadline/cancel
    /// codes rather than their engine codes, so a request shed from the
    /// queue (which never reaches the engine) and one abandoned mid-scan
    /// produce byte-identical frames.
    pub fn engine_error(err: &EngineError) -> Response {
        match err {
            EngineError::DeadlineExceeded => Response::deadline_exceeded(),
            EngineError::Cancelled => Response::cancelled(),
            _ => Response::Error {
                code: err.code(),
                message: err.to_string(),
            },
        }
    }

    /// The single wire form of a missed deadline — one fixed code and
    /// message whether the request was shed before running or abandoned
    /// mid-scan, so the frame leaks nothing about progress.
    pub fn deadline_exceeded() -> Response {
        Response::Error {
            code: code::DEADLINE_EXCEEDED,
            message: "request deadline exceeded".to_string(),
        }
    }

    /// The single wire form of a cooperative cancellation (same opacity
    /// contract as [`Response::deadline_exceeded`]).
    pub fn cancelled() -> Response {
        Response::Error {
            code: code::CANCELLED,
            message: "request cancelled".to_string(),
        }
    }

    /// Encodes this response as a complete frame answering `request_id`.
    ///
    /// A response whose lengths overflow the `u32` wire prefixes (an
    /// admin batch past 4 GiB, say) is replaced by a
    /// [`code::RESPONSE_TOO_LARGE`] error frame for the same request —
    /// never a wrapped length prefix, which would desync the stream.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        self.try_encode(request_id).unwrap_or_else(|_| {
            Response::Error {
                code: code::RESPONSE_TOO_LARGE,
                message: "response exceeds the frame length limit".to_string(),
            }
            .try_encode(request_id)
            .expect("error frame always fits")
        })
    }

    /// Encodes this response, failing on `u32` length overflow.
    pub fn try_encode(&self, request_id: u64) -> Result<Vec<u8>, EncodeTooLarge> {
        let mut e = Enc::new();
        match self {
            Response::HelloOk { tenant } => {
                e.str(tenant);
            }
            Response::AnswerOk(a) => a.encode(&mut e),
            Response::BatchOk { answers, events } => {
                e.len32(answers.len());
                for a in answers {
                    a.encode(&mut e);
                }
                e.u64(*events);
            }
            Response::UpdateOk(r) => r.encode(&mut e),
            Response::UpdateBatchOk(reports) => {
                e.len32(reports.len());
                for r in reports {
                    r.encode(&mut e);
                }
            }
            Response::OpenOk | Response::Pong | Response::ShutdownOk => {}
            Response::StatsOk(s) => s.encode(&mut e),
            Response::Error { code, message } => {
                e.u16(*code).str(message);
            }
            Response::Busy { retry_after_ms } | Response::Overloaded { retry_after_ms } => {
                e.u32(*retry_after_ms);
            }
        }
        try_encode_frame(self.op(), request_id, &e.try_finish()?)
    }

    /// Decodes a response payload for `op_byte`.
    pub fn decode(op_byte: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let resp = match op_byte {
            op::HELLO_OK => Response::HelloOk { tenant: d.str()? },
            op::ANSWER_OK => Response::AnswerOk(WireAnswer::decode(&mut d)?),
            op::BATCH_OK => {
                let n = d.u32()? as usize;
                if n > d.remaining() {
                    return Err(ProtoError);
                }
                let mut answers = Vec::with_capacity(n);
                for _ in 0..n {
                    answers.push(WireAnswer::decode(&mut d)?);
                }
                Response::BatchOk {
                    answers,
                    events: d.u64()?,
                }
            }
            op::UPDATE_OK => Response::UpdateOk(WireUpdateReport::decode(&mut d)?),
            op::UPDATE_BATCH_OK => {
                let n = d.u32()? as usize;
                if n > d.remaining() / 25 {
                    return Err(ProtoError);
                }
                let mut reports = Vec::with_capacity(n);
                for _ in 0..n {
                    reports.push(WireUpdateReport::decode(&mut d)?);
                }
                Response::UpdateBatchOk(reports)
            }
            op::OPEN_OK => Response::OpenOk,
            op::STATS_OK => Response::StatsOk(Box::new(WireStats::decode(&mut d)?)),
            op::PONG => Response::Pong,
            op::SHUTDOWN_OK => Response::ShutdownOk,
            op::ERROR => Response::Error {
                code: d.u16()?,
                message: d.str()?,
            },
            op::BUSY => Response::Busy {
                retry_after_ms: d.u32()?,
            },
            op::OVERLOADED => Response::Overloaded {
                retry_after_ms: d.u32()?,
            },
            _ => return Err(ProtoError),
        };
        d.finish()?;
        Ok(resp)
    }

    /// Builds the masked wire view of a [`BatchAnswer`] for `principal`.
    /// The shared-scan event count measures the *source* parse, hidden
    /// regions included, so group principals see `0`.
    pub fn from_batch(batch: &BatchAnswer, principal: &Principal, request_id: u64) -> Response {
        Response::BatchOk {
            answers: batch
                .answers
                .iter()
                .map(|a| WireAnswer::from_answer(a, principal, request_id))
                .collect(),
            events: if principal.is_admin() {
                batch.events as u64
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode(42);
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        let frame = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(frame.request_id, 42);
        let back = Request::decode(frame.op, &frame.payload).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode(7);
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        let frame = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(frame.request_id, 7);
        let back = Response::decode(frame.op, &frame.payload).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello {
            document: "wards".into(),
            principal: Principal::Group("nurse".into()),
            auth: None,
        });
        roundtrip_request(Request::Hello {
            document: "".into(),
            principal: Principal::Admin,
            auth: Some("sekrit".into()),
        });
        roundtrip_request(Request::Query {
            query: "//patient[@id]/treatment".into(),
            deadline_ms: 0,
        });
        roundtrip_request(Request::Query {
            query: "//a".into(),
            deadline_ms: 1_500,
        });
        roundtrip_request(Request::QueryBatch {
            queries: vec!["//a".into(), "b/c".into(), "".into()],
            deadline_ms: u32::MAX,
        });
        roundtrip_request(Request::Update {
            statement: "delete //bill".into(),
            deadline_ms: 250,
        });
        roundtrip_request(Request::UpdateBatch {
            statements: vec![],
            deadline_ms: 0,
        });
        roundtrip_request(Request::OpenDocument {
            name: "d".into(),
            dtd: Some("<!ELEMENT r EMPTY>".into()),
            xml: None,
            policies: vec![("g".into(), "policy text".into())],
        });
        roundtrip_request(Request::Stats {
            include_trace: true,
        });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn deadline_accessors_cover_engine_ops_only() {
        let mut req = Request::Query {
            query: "//a".into(),
            deadline_ms: 0,
        };
        assert_eq!(req.deadline_ms(), 0);
        req.set_deadline_ms(77);
        assert_eq!(req.deadline_ms(), 77);
        let mut ping = Request::Ping;
        ping.set_deadline_ms(99);
        assert_eq!(ping.deadline_ms(), 0);
    }

    #[test]
    fn deadline_and_cancel_frames_never_reveal_progress() {
        // The queue-shed helper and the mid-evaluation engine error must
        // produce byte-identical frames: otherwise the response would
        // reveal whether (and how far) a query ran against data the view
        // may be hiding.
        let shed = Response::deadline_exceeded().encode(9);
        let mid_scan = Response::engine_error(&smoqe::EngineError::DeadlineExceeded).encode(9);
        assert_eq!(shed, mid_scan);

        let shed = Response::cancelled().encode(9);
        let mid_scan = Response::engine_error(&smoqe::EngineError::Cancelled).encode(9);
        assert_eq!(shed, mid_scan);

        // And the code carried is the protocol-level one, not the
        // engine's internal 1..=99 range.
        let bytes = Response::deadline_exceeded().encode(9);
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        let frame = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::DEADLINE_EXCEEDED),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn retired_mode_byte_is_a_malformed_frame() {
        // An answer with no nodes and no xml: the mode byte sits right
        // before the 4-byte xml count that ends the payload.
        let answer = WireAnswer {
            nodes: vec![],
            stats: EvalStats::default(),
            plan_cached: false,
            mode: ExecMode::Jump,
            xml: vec![],
        };
        let mut e = Enc::new();
        answer.encode(&mut e);
        let mut payload = e.try_finish().unwrap();
        let mode_at = payload.len() - 5;
        assert_eq!(payload[mode_at], 2);
        for (byte, expected) in [(0, Some(ExecMode::Compiled)), (1, None), (3, None)] {
            payload[mode_at] = byte;
            // `ProtoError` is the decode failure every peer reports as
            // `code::MALFORMED_FRAME`.
            match (Response::decode(op::ANSWER_OK, &payload), expected) {
                (Ok(Response::AnswerOk(a)), Some(mode)) => assert_eq!(a.mode, mode),
                (Err(ProtoError), None) => {}
                (other, _) => panic!("mode byte {byte}: {other:?}"),
            }
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::HelloOk {
            tenant: "nurse".into(),
        });
        roundtrip_response(Response::AnswerOk(WireAnswer {
            nodes: vec![3, 17, 99],
            stats: EvalStats {
                nodes_visited: 120,
                answers: 3,
                request_id: 7,
                ..EvalStats::default()
            },
            plan_cached: true,
            mode: ExecMode::Jump,
            xml: vec!["<a/>".into(), "<b>x</b>".into(), "".into()],
        }));
        roundtrip_response(Response::BatchOk {
            answers: vec![],
            events: 1234,
        });
        roundtrip_response(Response::UpdateOk(WireUpdateReport {
            applied: 2,
            nodes_before: 40,
            nodes_after: 38,
            tax_patched: true,
        }));
        roundtrip_response(Response::UpdateBatchOk(vec![WireUpdateReport {
            applied: 0,
            nodes_before: 1,
            nodes_after: 1,
            tax_patched: false,
        }]));
        roundtrip_response(Response::OpenOk);
        let mut stats = WireStats {
            connections: 4,
            queue_depth: 2,
            queue_capacity: 256,
            requests_total: 10_000,
            busy_total: 12,
            trace_dropped: 1,
            epoch: 3,
            slow_client_drops: 2,
            tenants: vec![WireTenant {
                tenant: "nurse".into(),
                queries: 9,
                busy_rejections: 2,
                ..WireTenant::default()
            }],
            shed_total: 3,
            deadline_total: 4,
            cancelled_total: 5,
            overloaded_total: 6,
            inflight: 7,
            trace: vec![
                TraceEntry {
                    request_id: 5,
                    tenant: "(admin)".into(),
                    op: op::QUERY,
                    outcome: Outcome::Ok,
                    code: 0,
                    micros: 812,
                },
                TraceEntry {
                    request_id: 6,
                    tenant: "nurse".into(),
                    op: op::QUERY,
                    outcome: Outcome::Shed,
                    code: code::DEADLINE_EXCEEDED,
                    micros: 2_000,
                },
            ],
            ..WireStats::default()
        };
        stats.set_cache(&CacheMetrics {
            hits: 8,
            misses: 2,
            invalidations: 1,
            evictions: 0,
            entries: 2,
        });
        roundtrip_response(Response::StatsOk(Box::new(stats)));
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::ShutdownOk);
        roundtrip_response(Response::Error {
            code: code::HELLO_REQUIRED,
            message: "hello required".into(),
        });
        roundtrip_response(Response::Busy { retry_after_ms: 25 });
        roundtrip_response(Response::Overloaded { retry_after_ms: 40 });
    }

    #[test]
    fn frames_reassemble_from_arbitrary_chunks() {
        let a = Request::Query {
            query: "//a".into(),
            deadline_ms: 0,
        }
        .encode(1);
        let b = Request::Ping.encode(2);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Feed one byte at a time; frames must pop out exactly at their
        // boundaries.
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for &byte in &all {
            fb.push(&[byte]);
            while let Some(f) = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].request_id, 1);
        assert_eq!(frames[1].op, op::PING);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversized_and_runt_and_misversioned_frames_are_rejected() {
        // Oversized: rejected from the 4-byte prefix alone, before any
        // body arrives.
        let mut fb = FrameBuffer::new();
        fb.push(&(DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            fb.next_frame(DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::TooLarge(DEFAULT_MAX_FRAME_LEN + 1))
        );

        // Runt: shorter than its own header.
        let mut fb = FrameBuffer::new();
        fb.push(&5u32.to_le_bytes());
        assert_eq!(
            fb.next_frame(DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Runt(5))
        );

        // Wrong version: rejected as soon as the version byte arrives.
        let mut fb = FrameBuffer::new();
        fb.push(&10u32.to_le_bytes());
        fb.push(&[9]);
        assert_eq!(
            fb.next_frame(DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::BadVersion(9))
        );
    }

    #[test]
    fn truncated_payloads_fail_closed() {
        let full = Request::Hello {
            document: "wards".into(),
            principal: Principal::Group("nurse".into()),
            auth: Some("token".into()),
        }
        .encode(1);
        // Any strict prefix of the payload must decode to an error, never
        // a panic and never a different request.
        let payload = &full[4 + FRAME_HEADER_LEN..];
        for cut in 0..payload.len() {
            match Request::decode(op::HELLO, &payload[..cut]) {
                Err(Some(ProtoError)) => {}
                other => panic!("prefix of {cut} bytes decoded as {other:?}"),
            }
        }
        // Trailing garbage is rejected too.
        let mut extended = payload.to_vec();
        extended.push(0);
        assert_eq!(Request::decode(op::HELLO, &extended), Err(Some(ProtoError)));
    }

    #[test]
    fn group_names_must_be_bare_identifiers() {
        for good in ["researchers", "g", "_internal", "ward-3_staff", "A1"] {
            assert!(valid_group_name(good), "{good} should be valid");
            assert!(Principal::Group(good.into()).is_valid());
        }
        for bad in [
            "",
            "(admin)",
            "admin)",
            "a b",
            "-lead",
            "1st",
            "g\u{0}",
            "gr/oup",
            "caf\u{e9}",
        ] {
            assert!(!valid_group_name(bad), "{bad:?} should be rejected");
            assert!(!Principal::Group(bad.into()).is_valid());
        }
        assert!(!valid_group_name(&"g".repeat(129)));
        assert!(valid_group_name(&"g".repeat(128)));
        assert!(Principal::Admin.is_valid());
    }

    #[test]
    fn oversized_lengths_fail_encoding_instead_of_wrapping() {
        // A frame whose total length cannot fit the u32 prefix must
        // refuse to encode. (4 GiB strings are not allocatable in a test;
        // exercise the same checked paths directly.)
        assert!(try_encode_frame(op::PING, 1, &[]).is_ok());
        let mut e = Enc::new();
        e.len32(usize::try_from(u32::MAX).unwrap() + 1);
        assert!(e.overflowed());
        assert_eq!(e.try_finish(), Err(EncodeTooLarge));

        // The in-range boundary still encodes.
        let mut e = Enc::new();
        e.len32(usize::try_from(u32::MAX).unwrap());
        assert!(!e.overflowed());

        // And the server-side fallback is a well-formed error frame
        // answering the same request id.
        let fallback = Response::Error {
            code: code::RESPONSE_TOO_LARGE,
            message: "response exceeds the frame length limit".to_string(),
        }
        .encode(9);
        let mut fb = FrameBuffer::new();
        fb.push(&fallback);
        let frame = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(frame.request_id, 9);
        match Response::decode(frame.op, &frame.payload).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::RESPONSE_TOO_LARGE),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A batch claiming u32::MAX strings with a 4-byte body must be
        // rejected before any reservation.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        assert_eq!(
            Request::decode(op::QUERY_BATCH, &e.finish()),
            Err(Some(ProtoError))
        );
    }

    #[test]
    fn group_answers_are_masked_and_admin_answers_are_verbatim() {
        let answer = Answer {
            nodes: vec![NodeId(5), NodeId(19), NodeId(20)],
            stats: EvalStats {
                nodes_visited: 500,
                subtrees_pruned_tax: 7,
                cans_size: 12,
                answers: 3,
                max_depth: 9,
                tree_passes: 1,
                ..EvalStats::default()
            },
            plan_cached: true,
            mode: ExecMode::Jump,
            xml: Some(vec!["<t/>".into(), "<t/>".into(), "<t/>".into()]),
        };

        let admin = WireAnswer::from_answer(&answer, &Principal::Admin, 11);
        assert_eq!(admin.nodes, vec![5, 19, 20]);
        assert_eq!(admin.stats.nodes_visited, 500);
        assert_eq!(admin.stats.request_id, 11);
        assert_eq!(admin.mode, ExecMode::Jump);

        let group = WireAnswer::from_answer(&answer, &Principal::Group("g".into()), 11);
        // Ordinals, not source ids: id gaps would count hidden nodes.
        assert_eq!(group.nodes, vec![0, 1, 2]);
        // Source-side telemetry is gone; the answer count remains.
        assert_eq!(
            group.stats,
            EvalStats {
                answers: 3,
                request_id: 11,
                ..EvalStats::default()
            }
        );
        assert_eq!(group.mode, ExecMode::Compiled);
        // The payload the user is entitled to — the view image — survives.
        assert_eq!(group.xml.len(), 3);
        assert_eq!(group.plan_cached, answer.plan_cached);
    }

    #[test]
    fn batch_events_and_tax_patched_are_masked_for_groups() {
        let batch = BatchAnswer {
            answers: vec![],
            events: 42_000,
        };
        let g = Principal::Group("g".into());
        match Response::from_batch(&batch, &g, 1) {
            Response::BatchOk { events, .. } => assert_eq!(events, 0),
            other => panic!("unexpected {other:?}"),
        }
        match Response::from_batch(&batch, &Principal::Admin, 1) {
            Response::BatchOk { events, .. } => assert_eq!(events, 42_000),
            other => panic!("unexpected {other:?}"),
        }

        let report = UpdateReport {
            applied: 1,
            nodes_before: 10,
            nodes_after: 9,
            tax_patched: true,
            validated_nodes: 3,
        };
        assert!(!WireUpdateReport::from_report(&report, &g).tax_patched);
        assert!(WireUpdateReport::from_report(&report, &Principal::Admin).tax_patched);
    }

    #[test]
    fn denial_frames_are_byte_identical_hidden_vs_nonexistent() {
        // In-process, both causes collapse to the same payload-free
        // variant; the encoding must not reintroduce a distinction.
        let hidden = Response::engine_error(&EngineError::UpdateDenied);
        let nonexistent = Response::engine_error(&EngineError::UpdateDenied);
        assert_eq!(hidden.encode(99), nonexistent.encode(99));
        // And the code is the stable one pinned in core.
        match hidden {
            Response::Error { code, .. } => assert_eq!(code, EngineError::UpdateDenied.code()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
