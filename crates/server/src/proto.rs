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
//! self-description and no schema negotiation beyond the version byte.
//! Each type's wire form is written once, for both directions: a private
//! `Wire` trait over the primitives, options, vectors and pairs, each
//! struct's fields listed once in wire order, and each message's op byte
//! and payload listed once. A decoded count is refused when the bytes
//! left cannot hold that many of the smallest element, before anything
//! is reserved for it.
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

/// Payload encoder: the bytes written so far, and whether some length
/// overflowed its `u32` prefix along the way.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
    overflow: bool,
}

impl Enc {
    fn new() -> Self {
        Enc::default()
    }

    #[cfg(test)]
    fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, unless some length overflowed.
    fn try_finish(self) -> Result<Vec<u8>, EncodeTooLarge> {
        if self.overflowed() {
            Err(EncodeTooLarge)
        } else {
            Ok(self.buf)
        }
    }

    fn overflowed(&self) -> bool {
        self.overflow
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        v.put(self);
        self
    }

    /// Writes a `usize` length as its `u32` wire prefix, flagging (not
    /// wrapping) values that do not fit.
    fn len32(&mut self, n: usize) -> &mut Self {
        let n = u32::try_from(n).unwrap_or_else(|_| {
            self.overflow = true;
            u32::MAX
        });
        self.u32(n)
    }
}

/// Payload decoder over a borrowed buffer.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let s = self.buf.get(self.pos..).and_then(|rest| rest.get(..n));
        let s = s.ok_or(ProtoError)?;
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage is a
    /// malformed frame, not an extension point.
    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError)
        }
    }
}

/// A value with one wire form: how it is written, how it is read back,
/// and the fewest bytes any encoding of it takes.
trait Wire: Sized {
    /// The least encoded length, which bounds how many elements a count
    /// may claim for the bytes that follow it.
    const MIN: usize;
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            fn put(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
                let bytes = d.take(<$t as Wire>::MIN)?.try_into().expect("took MIN bytes");
                Ok(<$t>::from_le_bytes(bytes))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

/// Counters travel as `u64`.
impl Wire for usize {
    const MIN: usize = 8;
    fn put(&self, e: &mut Enc) {
        (*self as u64).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        Ok(u64::get(d)? as usize)
    }
}

/// One byte, `0` or `1`; anything else is malformed.
impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, e: &mut Enc) {
        u8::from(*self).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError),
        }
    }
}

/// `u32` byte length, then UTF-8.
impl Wire for String {
    const MIN: usize = 4;
    fn put(&self, e: &mut Enc) {
        e.len32(self.len());
        e.buf.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        let n = u32::get(d)? as usize;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| ProtoError)
    }
}

/// A presence flag, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, e: &mut Enc) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        Ok(if bool::get(d)? {
            Some(T::get(d)?)
        } else {
            None
        })
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, e: &mut Enc) {
        e.len32(self.len());
        for v in self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        let n = u32::get(d)? as usize;
        // The one bound on a hostile count: every element takes at least
        // `T::MIN` bytes, so a count the remaining bytes cannot hold is
        // refused before anything is reserved for it.
        if n > d.remaining() / T::MIN {
            return Err(ProtoError);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(d)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN: usize = T::MIN;
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        T::get(d).map(Box::new)
    }
}

/// Implements [`Wire`] for structs by listing each one's fields once, in
/// wire order, with their types.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident: $fty:ty),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$fty as Wire>::MIN)*;
            fn put(&self, e: &mut Enc) {
                $(self.$field.put(e);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
                Ok($ty { $($field: <$fty as Wire>::get(d)?),* })
            }
        }
    )*};
}

/// Writes a message enum's variants once each — the op byte, then the
/// payload fields in wire order (`{ named }`, `(positional)` or none) —
/// and derives from that table the enum's `op`, its payload writer and
/// its payload reader (`None` for an op byte that is not one of its
/// variants).
macro_rules! wire_messages {
    ($ty:ident {
        $($op:ident => $variant:ident $({ $($sf:ident),* })? $(( $($tf:ident),* ))?,)*
    }) => {
        impl $ty {
            /// The op byte this message travels under.
            pub fn op(&self) -> u8 {
                match self {
                    $(wire_messages!(@any $ty $variant $({ $($sf),* })? $(( $($tf),* ))?) => op::$op,)*
                }
            }

            fn put_payload(&self, e: &mut Enc) {
                match self {
                    $(wire_messages!(@pat $ty $variant $({ $($sf),* })? $(( $($tf),* ))?) => {
                        $($($sf.put(e);)*)? $($($tf.put(e);)*)?
                    })*
                }
            }

            fn get_payload(op_byte: u8, d: &mut Dec<'_>) -> Result<Option<Self>, ProtoError> {
                Ok(Some(match op_byte {
                    $(op::$op => {
                        $($(let $sf = Wire::get(d)?;)*)? $($(let $tf = Wire::get(d)?;)*)?
                        wire_messages!(@pat $ty $variant $({ $($sf),* })? $(( $($tf),* ))?)
                    })*
                    _ => return Ok(None),
                }))
            }
        }
    };
    // The variant matched whatever it carries, or bound (and built) by
    // its field names.
    (@any $ty:ident $variant:ident) => { $ty::$variant };
    (@any $ty:ident $variant:ident { $($f:ident),* }) => { $ty::$variant { .. } };
    (@any $ty:ident $variant:ident ( $($f:ident),* )) => { $ty::$variant(..) };
    (@pat $ty:ident $variant:ident) => { $ty::$variant };
    (@pat $ty:ident $variant:ident { $($f:ident),* }) => { $ty::$variant { $($f),* } };
    (@pat $ty:ident $variant:ident ( $($f:ident),* )) => { $ty::$variant($($f),*) };
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
}

/// `0` for the admin, `1` and the name for a group.
impl Wire for Principal {
    const MIN: usize = 1;
    fn put(&self, e: &mut Enc) {
        match self {
            Principal::Admin => 0u8.put(e),
            Principal::Group(g) => {
                1u8.put(e);
                g.put(e);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        match u8::get(d)? {
            0 => Ok(Principal::Admin),
            1 => Ok(Principal::Group(String::get(d)?)),
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

wire_messages!(Request {
    HELLO => Hello { document, principal, auth },
    QUERY => Query { query, deadline_ms },
    QUERY_BATCH => QueryBatch { queries, deadline_ms },
    UPDATE => Update { statement, deadline_ms },
    UPDATE_BATCH => UpdateBatch { statements, deadline_ms },
    OPEN_DOCUMENT => OpenDocument { name, dtd, xml, policies },
    STATS => Stats { include_trace },
    PING => Ping,
    SHUTDOWN => Shutdown,
});

impl Request {
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
        self.put_payload(&mut e);
        try_encode_frame(self.op(), request_id, &e.try_finish()?)
    }

    /// Decodes a request payload for `op_byte`.
    ///
    /// `Err(None)` means the op byte itself is unknown
    /// ([`code::UNSUPPORTED_OP`]); `Err(Some(_))` is a payload decode
    /// failure ([`code::MALFORMED_FRAME`]).
    pub fn decode(op_byte: u8, payload: &[u8]) -> Result<Request, Option<ProtoError>> {
        let mut d = Dec::new(payload);
        let req = Request::get_payload(op_byte, &mut d)
            .map_err(Some)?
            .ok_or(None)?;
        d.finish().map_err(Some)?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Wire views of engine results
// ---------------------------------------------------------------------------

// Mode code 1 named the retired per-event interpreter; it stays
// unassigned so an old peer's byte is rejected, not reinterpreted.
impl Wire for ExecMode {
    const MIN: usize = 1;
    fn put(&self, e: &mut Enc) {
        match self {
            ExecMode::Compiled => 0u8,
            ExecMode::Jump => 2,
        }
        .put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        match u8::get(d)? {
            0 => Ok(ExecMode::Compiled),
            2 => Ok(ExecMode::Jump),
            _ => Err(ProtoError),
        }
    }
}

impl Wire for Outcome {
    const MIN: usize = 1;
    fn put(&self, e: &mut Enc) {
        self.as_u8().put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        Outcome::from_u8(u8::get(d)?).ok_or(ProtoError)
    }
}

wire_struct! {
    EvalStats {
        nodes_visited: usize,
        subtrees_pruned_tax: usize,
        subtrees_skipped_dead: usize,
        cans_size: usize,
        immediate_answers: usize,
        answers: usize,
        pred_instances: usize,
        runs_spawned: usize,
        formula_nodes: usize,
        guard_probes: usize,
        max_depth: usize,
        tree_passes: usize,
        request_id: u64,
    }
    WireAnswer {
        nodes: Vec<u64>,
        stats: EvalStats,
        plan_cached: bool,
        mode: ExecMode,
        xml: Vec<String>,
    }
    WireUpdateReport {
        applied: u64,
        nodes_before: u64,
        nodes_after: u64,
        tax_patched: bool,
    }
    WireTenant {
        tenant: String,
        queries: u64,
        batches: u64,
        updates: u64,
        update_denials: u64,
        errors: u64,
        answers: u64,
        nodes_visited: u64,
        busy_rejections: u64,
    }
    WireStats {
        cache_hits: u64,
        cache_misses: u64,
        cache_invalidations: u64,
        cache_evictions: u64,
        cache_entries: u64,
        connections: u64,
        queue_depth: u64,
        queue_capacity: u64,
        requests_total: u64,
        busy_total: u64,
        trace_dropped: u64,
        epoch: u64,
        slow_client_drops: u64,
        shed_total: u64,
        deadline_total: u64,
        cancelled_total: u64,
        overloaded_total: u64,
        inflight: u64,
        tenants: Vec<WireTenant>,
        trace: Vec<TraceEntry>,
    }
    TraceEntry {
        request_id: u64,
        tenant: String,
        op: u8,
        outcome: Outcome,
        code: u16,
        micros: u64,
    }
}

/// An [`Answer`] as it crosses the wire.
///
/// `xml` is always filled (the server asks for serialized answers, so
/// group answers are view images and admin answers are raw subtrees). Whether `nodes`/`stats`/`mode` are real or
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

wire_messages!(Response {
    HELLO_OK => HelloOk { tenant },
    ANSWER_OK => AnswerOk(answer),
    BATCH_OK => BatchOk { answers, events },
    UPDATE_OK => UpdateOk(report),
    UPDATE_BATCH_OK => UpdateBatchOk(reports),
    OPEN_OK => OpenOk,
    STATS_OK => StatsOk(stats),
    PONG => Pong,
    SHUTDOWN_OK => ShutdownOk,
    ERROR => Error { code, message },
    BUSY => Busy { retry_after_ms },
    OVERLOADED => Overloaded { retry_after_ms },
});

impl Response {
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
        self.put_payload(&mut e);
        try_encode_frame(self.op(), request_id, &e.try_finish()?)
    }

    /// Decodes a response payload for `op_byte`.
    pub fn decode(op_byte: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let resp = Response::get_payload(op_byte, &mut d)?.ok_or(ProtoError)?;
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
        answer.put(&mut e);
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

    /// Every request and response variant, with fields that exercise
    /// `Some`/`None` options, empty and non-empty vectors, masked and
    /// unmasked answers and a stats block with tenants and trace entries.
    fn golden_frames() -> Vec<(&'static str, Vec<u8>)> {
        let answer = Answer {
            nodes: vec![NodeId(5), NodeId(19), NodeId(300)],
            stats: EvalStats {
                nodes_visited: 1,
                subtrees_pruned_tax: 2,
                subtrees_skipped_dead: 3,
                cans_size: 4,
                immediate_answers: 5,
                answers: 3,
                pred_instances: 7,
                runs_spawned: 8,
                formula_nodes: 9,
                guard_probes: 10,
                max_depth: 11,
                tree_passes: 12,
                request_id: 13,
            },
            plan_cached: true,
            mode: ExecMode::Jump,
            xml: Some(vec!["<a/>".into(), "<b>x &amp; y</b>".into(), "".into()]),
        };
        let admin = WireAnswer::from_answer(&answer, &Principal::Admin, 0x0102);
        let group = WireAnswer::from_answer(&answer, &Principal::Group("g".into()), 0x0102);
        let report = WireUpdateReport {
            applied: 2,
            nodes_before: 40,
            nodes_after: 38,
            tax_patched: true,
        };
        let mut stats = WireStats {
            connections: 4,
            queue_depth: 2,
            queue_capacity: 256,
            requests_total: 10_000,
            busy_total: 12,
            trace_dropped: 1,
            epoch: 3,
            slow_client_drops: 2,
            shed_total: 3,
            deadline_total: 4,
            cancelled_total: 5,
            overloaded_total: 6,
            inflight: 7,
            tenants: vec![
                WireTenant {
                    tenant: "(admin)".into(),
                    queries: 1,
                    batches: 2,
                    updates: 3,
                    update_denials: 4,
                    errors: 5,
                    answers: 6,
                    nodes_visited: 7,
                    busy_rejections: 8,
                },
                WireTenant {
                    tenant: "nurse".into(),
                    queries: 9,
                    ..WireTenant::default()
                },
            ],
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
                    op: op::UPDATE,
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
            evictions: 9,
            entries: 2,
        });
        let id = 0x0807_0605_0403_0201;
        let requests = [
            (
                "hello group, no auth",
                Request::Hello {
                    document: "wards".into(),
                    principal: Principal::Group("nurse".into()),
                    auth: None,
                },
            ),
            (
                "hello admin, auth",
                Request::Hello {
                    document: "".into(),
                    principal: Principal::Admin,
                    auth: Some("tok".into()),
                },
            ),
            (
                "query",
                Request::Query {
                    query: "//a".into(),
                    deadline_ms: 1_500,
                },
            ),
            (
                "query batch",
                Request::QueryBatch {
                    queries: vec!["//a".into(), "b/c".into(), "".into()],
                    deadline_ms: 7,
                },
            ),
            (
                "empty query batch",
                Request::QueryBatch {
                    queries: vec![],
                    deadline_ms: 0,
                },
            ),
            (
                "update",
                Request::Update {
                    statement: "delete //bill".into(),
                    deadline_ms: 250,
                },
            ),
            (
                "update batch",
                Request::UpdateBatch {
                    statements: vec!["delete //x".into(), "delete //y".into()],
                    deadline_ms: 9,
                },
            ),
            (
                "empty update batch",
                Request::UpdateBatch {
                    statements: vec![],
                    deadline_ms: u32::MAX,
                },
            ),
            (
                "open document, dtd, policies",
                Request::OpenDocument {
                    name: "d".into(),
                    dtd: Some("<!ELEMENT r EMPTY>".into()),
                    xml: None,
                    policies: vec![("g".into(), "p".into()), ("h".into(), "".into())],
                },
            ),
            (
                "open document, xml, no policies",
                Request::OpenDocument {
                    name: "e".into(),
                    dtd: None,
                    xml: Some("<r/>".into()),
                    policies: vec![],
                },
            ),
            (
                "stats with trace",
                Request::Stats {
                    include_trace: true,
                },
            ),
            (
                "stats",
                Request::Stats {
                    include_trace: false,
                },
            ),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ];
        let responses = [
            (
                "hello ok",
                Response::HelloOk {
                    tenant: "nurse".into(),
                },
            ),
            ("admin answer", Response::AnswerOk(admin.clone())),
            ("group answer", Response::AnswerOk(group.clone())),
            (
                "batch",
                Response::BatchOk {
                    answers: vec![admin, group],
                    events: 1234,
                },
            ),
            (
                "empty batch",
                Response::BatchOk {
                    answers: vec![],
                    events: 0,
                },
            ),
            ("update ok", Response::UpdateOk(report)),
            (
                "update batch ok",
                Response::UpdateBatchOk(vec![
                    report,
                    WireUpdateReport {
                        applied: 0,
                        nodes_before: 1,
                        nodes_after: 1,
                        tax_patched: false,
                    },
                ]),
            ),
            ("empty update batch ok", Response::UpdateBatchOk(vec![])),
            ("open ok", Response::OpenOk),
            ("stats ok", Response::StatsOk(Box::new(stats))),
            ("empty stats ok", Response::StatsOk(Box::default())),
            ("pong", Response::Pong),
            ("shutdown ok", Response::ShutdownOk),
            ("error", Response::engine_error(&EngineError::UpdateDenied)),
            ("busy", Response::Busy { retry_after_ms: 25 }),
            ("overloaded", Response::Overloaded { retry_after_ms: 40 }),
        ];
        let mut frames: Vec<(&'static str, Vec<u8>)> = requests
            .iter()
            .map(|(name, req)| (*name, req.encode(id)))
            .collect();
        frames.extend(
            responses
                .iter()
                .map(|(name, resp)| (*name, resp.encode(id))),
        );
        frames
    }

    #[test]
    fn every_message_encodes_to_its_pinned_bytes() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let frames = golden_frames();
        assert_eq!(frames.len(), GOLDEN.len());
        for ((name, bytes), (pinned_name, pinned)) in frames.iter().zip(GOLDEN) {
            assert_eq!(name, pinned_name);
            assert_eq!(hex(bytes), *pinned, "{name}");
            // And every pinned frame decodes back to what was encoded.
            let mut fb = FrameBuffer::new();
            fb.push(bytes);
            let frame = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
            let reencoded = if frame.op & 0x80 == 0 {
                Request::decode(frame.op, &frame.payload)
                    .unwrap()
                    .encode(frame.request_id)
            } else {
                Response::decode(frame.op, &frame.payload)
                    .unwrap()
                    .encode(frame.request_id)
            };
            assert_eq!(&reencoded, bytes, "{name}");
        }
    }

    /// Each frame of [`golden_frames`], as lowercase hex.
    const GOLDEN: &[(&str, &str)] = &[
        (
            "hello group, no auth",
            "1e0000000101010203040506070805000000776172647301050000006e7572736500",
        ),
        (
            "hello admin, auth",
            "170000000101010203040506070800000000000103000000746f6b",
        ),
        (
            "query",
            "1500000001020102030405060708030000002f2f61dc050000",
        ),
        (
            "query batch",
            "240000000103010203040506070803000000030000002f2f6103000000622f630000000007000000",
        ),
        (
            "empty query batch",
            "12000000010301020304050607080000000000000000",
        ),
        (
            "update",
            "1f000000010401020304050607080d00000064656c657465202f2f62696c6cfa000000",
        ),
        (
            "update batch",
            "2e00000001050102030405060708020000000a00000064656c657465202f2f780a00000064656c657465202f2f7909000000",
        ),
        (
            "empty update batch",
            "120000000105010203040506070800000000ffffffff",
        ),
        (
            "open document, dtd, policies",
            "3e00000001060102030405060708010000006401120000003c21454c454d454e54207220454d5054593e000200000001000000670100000070010000006800000000",
        ),
        (
            "open document, xml, no policies",
            "1d0000000106010203040506070801000000650001040000003c722f3e00000000",
        ),
        (
            "stats with trace",
            "0b0000000107010203040506070801",
        ),
        (
            "stats",
            "0b0000000107010203040506070800",
        ),
        (
            "ping",
            "0a00000001080102030405060708",
        ),
        (
            "shutdown",
            "0a00000001090102030405060708",
        ),
        (
            "hello ok",
            "1300000001810102030405060708050000006e75727365",
        ),
        (
            "admin answer",
            "b40000000182010203040506070803000000050000000000000013000000000000002c010000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000003000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000201000000000000010203000000040000003c612f3e100000003c623e782026616d703b20793c2f623e00000000",
        ),
        (
            "group answer",
            "b400000001820102030405060708030000000000000000000000010000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000201000000000000010003000000040000003c612f3e100000003c623e782026616d703b20793c2f623e00000000",
        ),
        (
            "batch",
            "6a010000018301020304050607080200000003000000050000000000000013000000000000002c010000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000003000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000201000000000000010203000000040000003c612f3e100000003c623e782026616d703b20793c2f623e00000000030000000000000000000000010000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000201000000000000010003000000040000003c612f3e100000003c623e782026616d703b20793c2f623e00000000d204000000000000",
        ),
        (
            "empty batch",
            "1600000001830102030405060708000000000000000000000000",
        ),
        (
            "update ok",
            "230000000184010203040506070802000000000000002800000000000000260000000000000001",
        ),
        (
            "update batch ok",
            "4000000001850102030405060708020000000200000000000000280000000000000026000000000000000100000000000000000100000000000000010000000000000000",
        ),
        (
            "empty update batch ok",
            "0e0000000185010203040506070800000000",
        ),
        (
            "open ok",
            "0a00000001860102030405060708",
        ),
        (
            "stats ok",
            "72010000018701020304050607080800000000000000020000000000000001000000000000000900000000000000020000000000000004000000000000000200000000000000000100000000000010270000000000000c000000000000000100000000000000030000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000070000000000000002000000070000002861646d696e2901000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000000800000000000000050000006e7572736509000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020000000500000000000000070000002861646d696e29020000002c030000000000000600000000000000050000006e7572736504056f00d007000000000000",
        ),
        (
            "empty stats ok",
            "a2000000018701020304050607080000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        ),
        (
            "pong",
            "0a00000001880102030405060708",
        ),
        (
            "shutdown ok",
            "0a00000001890102030405060708",
        ),
        (
            "error",
            "3e00000001e001020304050607080c002e0000007570646174652064656e696564206279207468652073657373696f6e277320736563757269747920706f6c696379",
        ),
        (
            "busy",
            "0e00000001e1010203040506070819000000",
        ),
        (
            "overloaded",
            "0e00000001e2010203040506070828000000",
        ),
    ];
}
