//! The write-ahead log: length-prefixed, CRC32-checksummed, LSN-sequenced
//! records of every catalog mutation.
//!
//! On-disk framing (all integers little-endian):
//!
//! ```text
//! [payload_len u32][crc32 u32 of payload][payload]
//! payload = [lsn u64][kind u8][kind-specific fields]
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes; lists are a `u32` count
//! followed by the elements. Logging is **logical**: an update record
//! carries the statement text and the acting principal, and replay runs
//! it through the ordinary [`smoqe_update`] apply path, so security
//! checks are re-validated deterministically against the recovered state.
//!
//! The tail-scan distinguishes two failure shapes precisely:
//!
//! * a record whose claimed extent runs past end-of-file is a **torn
//!   tail** (a crash mid-`write`); the scan reports where the valid
//!   prefix ends so recovery can truncate it and continue, and
//! * a *complete* record whose checksum or structure is wrong is
//!   **mid-log corruption**; the scan refuses with a typed error rather
//!   than guess at the data — see
//!   [`DurError::Corrupt`].

use super::failpoints::{Failpoint, FailpointRegistry};
use super::DurError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Hard ceiling on one record's payload (a corrupted length field must
/// not drive a multi-gigabyte allocation). Enforced on **both** sides:
/// [`WalWriter::append`] refuses an oversized record before any byte
/// reaches the log — otherwise an accepted write would render every
/// subsequent recovery a [`DurError::Corrupt`].
pub(crate) const MAX_RECORD: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, the workspace is offline.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum of `bytes` (IEEE polynomial, as in zip/zlib/ethernet).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged catalog mutation (the logical payload of a WAL record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// `open_document` created a (still empty) catalog entry.
    OpenDocument { doc: String },
    /// A DTD was parsed and installed.
    LoadDtd { doc: String, text: String },
    /// A document was loaded (from text, file or built tree — always
    /// logged as its serialized XML).
    LoadDocument { doc: String, xml: String },
    /// A group was registered by access-control policy.
    RegisterPolicy {
        doc: String,
        group: String,
        text: String,
    },
    /// A group was registered with a hand-authored view spec.
    RegisterViewSpec {
        doc: String,
        group: String,
        text: String,
    },
    /// A TAX index was built (or loaded) over the current document.
    BuildTaxIndex { doc: String },
    /// An accepted update transaction: the statement texts plus the
    /// acting principal (`None` = admin, `Some(g)` = group `g`). Replay
    /// re-resolves targets through the same view the original write used,
    /// so a group update recovers through its security view, not as a
    /// privileged admin write.
    Update {
        doc: String,
        group: Option<String>,
        statements: Vec<String>,
    },
    /// The document was dropped; recovery must not resurrect it.
    DropDocument { doc: String },
}

impl WalOp {
    /// The exact encoded payload size, computed in `u64` *before*
    /// encoding so an input too large for the `u32` framing (or the
    /// [`MAX_RECORD`] ceiling) is refused instead of silently truncated
    /// by `put_str`'s length cast. Must mirror [`encode_record`].
    fn payload_len(&self) -> u64 {
        fn s(text: &str) -> u64 {
            4 + text.len() as u64
        }
        let fields = match self {
            WalOp::OpenDocument { doc }
            | WalOp::BuildTaxIndex { doc }
            | WalOp::DropDocument { doc } => s(doc),
            WalOp::LoadDtd { doc, text } | WalOp::LoadDocument { doc, xml: text } => {
                s(doc) + s(text)
            }
            WalOp::RegisterPolicy { doc, group, text }
            | WalOp::RegisterViewSpec { doc, group, text } => s(doc) + s(group) + s(text),
            WalOp::Update {
                doc,
                group,
                statements,
            } => {
                s(doc)
                    + 1
                    + group.as_deref().map_or(0, s)
                    + 4
                    + statements.iter().map(|st| s(st)).sum::<u64>()
            }
        };
        8 + 1 + fields // lsn + kind
    }

    fn kind(&self) -> u8 {
        match self {
            WalOp::OpenDocument { .. } => 1,
            WalOp::LoadDtd { .. } => 2,
            WalOp::LoadDocument { .. } => 3,
            WalOp::RegisterPolicy { .. } => 4,
            WalOp::RegisterViewSpec { .. } => 5,
            WalOp::BuildTaxIndex { .. } => 6,
            WalOp::Update { .. } => 7,
            WalOp::DropDocument { .. } => 8,
        }
    }
}

/// A decoded record: its log sequence number plus the logical operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WalRecord {
    pub(crate) lsn: u64,
    pub(crate) op: WalOp,
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok().map(str::to_string)
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(<[u8]>::to_vec)
    }
}

/// Encodes `record` as one framed WAL entry (header + checksum + payload).
fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_u64(&mut payload, record.lsn);
    payload.push(record.op.kind());
    match &record.op {
        WalOp::OpenDocument { doc }
        | WalOp::BuildTaxIndex { doc }
        | WalOp::DropDocument { doc } => put_str(&mut payload, doc),
        WalOp::LoadDtd { doc, text } | WalOp::LoadDocument { doc, xml: text } => {
            put_str(&mut payload, doc);
            put_str(&mut payload, text);
        }
        WalOp::RegisterPolicy { doc, group, text }
        | WalOp::RegisterViewSpec { doc, group, text } => {
            put_str(&mut payload, doc);
            put_str(&mut payload, group);
            put_str(&mut payload, text);
        }
        WalOp::Update {
            doc,
            group,
            statements,
        } => {
            put_str(&mut payload, doc);
            match group {
                None => payload.push(0),
                Some(g) => {
                    payload.push(1);
                    put_str(&mut payload, g);
                }
            }
            put_u32(&mut payload, statements.len() as u32);
            for s in statements {
                put_str(&mut payload, s);
            }
        }
    }
    let mut framed = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut framed, payload.len() as u32);
    put_u32(&mut framed, crc32(&payload));
    framed.extend_from_slice(&payload);
    framed
}

/// Decodes one payload (the bytes after the frame header). `None` means
/// the structure is malformed — the caller reports mid-log corruption.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let lsn = c.u64()?;
    let kind = c.u8()?;
    let op = match kind {
        1 => WalOp::OpenDocument { doc: c.str()? },
        2 => WalOp::LoadDtd {
            doc: c.str()?,
            text: c.str()?,
        },
        3 => WalOp::LoadDocument {
            doc: c.str()?,
            xml: c.str()?,
        },
        4 => WalOp::RegisterPolicy {
            doc: c.str()?,
            group: c.str()?,
            text: c.str()?,
        },
        5 => WalOp::RegisterViewSpec {
            doc: c.str()?,
            group: c.str()?,
            text: c.str()?,
        },
        6 => WalOp::BuildTaxIndex { doc: c.str()? },
        7 => {
            let doc = c.str()?;
            let group = match c.u8()? {
                0 => None,
                1 => Some(c.str()?),
                _ => return None,
            };
            let n = c.u32()? as usize;
            // A corrupt count must not drive a huge allocation: every
            // statement needs at least its 4-byte length prefix.
            let mut statements = Vec::with_capacity(n.min(payload.len() / 4));
            for _ in 0..n {
                statements.push(c.str()?);
            }
            WalOp::Update {
                doc,
                group,
                statements,
            }
        }
        8 => WalOp::DropDocument { doc: c.str()? },
        _ => return None,
    };
    if !c.is_empty() {
        return None; // trailing garbage inside a checksummed payload
    }
    Some(WalRecord { lsn, op })
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// Result of scanning a WAL file.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// The decoded records, in LSN order.
    pub(crate) records: Vec<WalRecord>,
    /// Byte length of the valid prefix — shorter than the file when a
    /// torn tail must be truncated.
    pub(crate) valid_len: u64,
}

/// Scans `bytes` (the full WAL file). A record extending past end-of-file
/// is a torn tail (valid prefix ends before it); a *complete* record with
/// a bad checksum, malformed structure or non-increasing LSN is mid-log
/// corruption and fails with [`DurError::Corrupt`].
pub(crate) fn scan_wal_bytes(bytes: &[u8]) -> Result<WalScan, DurError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut last_lsn = 0u64;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            // A header can only be short at the very end: torn tail.
            return Ok(WalScan {
                records,
                valid_len: offset as u64,
            });
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD {
            return Err(DurError::Corrupt {
                offset: offset as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD}-byte ceiling"),
            });
        }
        let body_end = offset + 8 + len as usize;
        if body_end > bytes.len() {
            // The record's claimed extent runs past EOF: a crash tore the
            // final write. Everything before this header is intact.
            return Ok(WalScan {
                records,
                valid_len: offset as u64,
            });
        }
        let payload = &bytes[offset + 8..body_end];
        if crc32(payload) != crc {
            return Err(DurError::Corrupt {
                offset: offset as u64,
                detail: "checksum mismatch on a complete record".to_string(),
            });
        }
        let record = decode_payload(payload).ok_or_else(|| DurError::Corrupt {
            offset: offset as u64,
            detail: "malformed record payload (checksum valid)".to_string(),
        })?;
        if record.lsn <= last_lsn && !records.is_empty() {
            return Err(DurError::Corrupt {
                offset: offset as u64,
                detail: format!(
                    "LSN {} does not advance past {} — records reordered or duplicated",
                    record.lsn, last_lsn
                ),
            });
        }
        last_lsn = record.lsn;
        records.push(record);
        offset = body_end;
    }
    Ok(WalScan {
        records,
        valid_len: bytes.len() as u64,
    })
}

/// Reads and scans the WAL at `path`; a missing file is an empty log.
pub(crate) fn scan_wal(path: &Path) -> Result<WalScan, DurError> {
    match std::fs::read(path) {
        Ok(bytes) => scan_wal_bytes(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
        }),
        Err(e) => Err(DurError::Io(e)),
    }
}

// ---------------------------------------------------------------------------
// Appending
// ---------------------------------------------------------------------------

/// The append side of the WAL. One per [`Durability`](super::Durability),
/// behind its mutex; LSNs are assigned under that lock, so append order,
/// LSN order and file order all agree.
pub(crate) struct WalWriter {
    file: File,
    next_lsn: u64,
}

impl WalWriter {
    /// Opens (creating if needed) the WAL at `path`, positioned after the
    /// scanned valid prefix, with `next_lsn` as the next sequence number.
    pub(crate) fn open(path: &Path, valid_len: u64, next_lsn: u64) -> Result<Self, DurError> {
        use std::io::Seek;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(DurError::Io)?;
        // Cut a torn tail (and anything after it) off for good, then
        // position the cursor so appends land right after the last
        // intact record (opening does not imply O_APPEND here).
        file.set_len(valid_len).map_err(DurError::Io)?;
        file.seek(std::io::SeekFrom::Start(valid_len))
            .map_err(DurError::Io)?;
        Ok(WalWriter { file, next_lsn })
    }

    /// The LSN the next append will use.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Appends `op`, honoring the torn-write and sync-error failpoints,
    /// and returns the record's LSN. The write is flushed to the OS (one
    /// `write(2)` of the whole framed record) but **not** fsynced — see
    /// the module docs of [`super`] for the durability contract.
    pub(crate) fn append(
        &mut self,
        op: WalOp,
        failpoints: &FailpointRegistry,
    ) -> Result<u64, DurError> {
        // Refuse what recovery would reject — before encoding, so no byte
        // of an oversized record ever reaches the log and the operation
        // fails cleanly while the log stays recoverable.
        let size = op.payload_len();
        if size > MAX_RECORD as u64 {
            return Err(DurError::RecordTooLarge {
                size,
                limit: MAX_RECORD as u64,
            });
        }
        let record = WalRecord {
            lsn: self.next_lsn,
            op,
        };
        let bytes = encode_record(&record);
        if failpoints.fire(Failpoint::TornWrite) {
            // Simulate a crash mid-write: half the record reaches the
            // file, the process "dies" before the rest.
            let half = &bytes[..bytes.len() / 2];
            self.file.write_all(half).map_err(DurError::Io)?;
            let _ = self.file.sync_data();
            return Err(DurError::Injected(Failpoint::TornWrite.name()));
        }
        self.file.write_all(&bytes).map_err(DurError::Io)?;
        if failpoints.fire(Failpoint::SyncError) {
            return Err(DurError::Injected(Failpoint::SyncError.name()));
        }
        self.next_lsn += 1;
        Ok(record.lsn)
    }

    /// Fsyncs the log (checkpoint and clean-shutdown path).
    pub(crate) fn sync(&mut self) -> Result<(), DurError> {
        self.file.sync_data().map_err(DurError::Io)
    }

    /// Empties the log after its records were captured by a checkpoint.
    pub(crate) fn truncate_all(&mut self) -> Result<(), DurError> {
        use std::io::Seek;
        self.file.set_len(0).map_err(DurError::Io)?;
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(DurError::Io)?;
        self.file.sync_data().map_err(DurError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                lsn: 1,
                op: WalOp::OpenDocument { doc: "d".into() },
            },
            WalRecord {
                lsn: 2,
                op: WalOp::LoadDtd {
                    doc: "d".into(),
                    text: "<!ELEMENT a EMPTY>".into(),
                },
            },
            WalRecord {
                lsn: 3,
                op: WalOp::Update {
                    doc: "d".into(),
                    group: Some("researchers".into()),
                    statements: vec!["insert <x/> into /a".into(), "delete //x".into()],
                },
            },
            WalRecord {
                lsn: 4,
                op: WalOp::DropDocument { doc: "d".into() },
            },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let scan = scan_wal_bytes(&bytes).unwrap();
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let third_starts: usize = records[..2].iter().map(|r| encode_record(r).len()).sum();
        // Cut anywhere inside the third record: the first two survive.
        for cut in third_starts + 1..bytes.len() - encode_record(&records[3]).len() {
            let scan = scan_wal_bytes(&bytes[..cut]).unwrap();
            assert_eq!(scan.valid_len, third_starts as u64, "cut at {cut}");
            assert_eq!(scan.records.len(), 2);
        }
    }

    #[test]
    fn midlog_corruption_is_a_typed_error() {
        let records = sample_records();
        let mut bytes = encode_all(&records);
        // Flip one payload byte of the *first* record — complete record,
        // bad checksum.
        bytes[10] ^= 0x40;
        match scan_wal_bytes(&bytes) {
            Err(DurError::Corrupt { offset: 0, .. }) => {}
            other => panic!("expected corruption at offset 0, got {other:?}"),
        }
    }

    #[test]
    fn payload_len_mirrors_the_encoder() {
        for (i, r) in sample_records().iter().enumerate() {
            // The frame adds 8 bytes (length + crc) on top of the payload.
            assert_eq!(
                r.op.payload_len(),
                (encode_record(r).len() - 8) as u64,
                "record {i}"
            );
        }
    }

    #[test]
    fn oversized_record_is_refused_before_touching_the_log() {
        let path = std::env::temp_dir().join(format!("smoqe-wal-big-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open(&path, 0, 1).unwrap();
        let fps = FailpointRegistry::default();
        let huge = WalOp::LoadDocument {
            doc: "d".into(),
            xml: "x".repeat(MAX_RECORD as usize + 1),
        };
        match writer.append(huge, &fps) {
            Err(DurError::RecordTooLarge { size, limit }) => {
                assert!(size > limit);
                assert_eq!(limit, MAX_RECORD as u64);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        // Nothing reached the log, the LSN did not advance, and the
        // writer keeps working.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(writer.next_lsn(), 1);
        let lsn = writer
            .append(WalOp::OpenDocument { doc: "d".into() }, &fps)
            .unwrap();
        assert_eq!(lsn, 1);
        drop(writer);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn insane_length_is_corruption() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_RECORD + 1);
        put_u32(&mut bytes, 0);
        bytes.extend_from_slice(&[0; 64]);
        assert!(matches!(
            scan_wal_bytes(&bytes),
            Err(DurError::Corrupt { .. })
        ));
    }
}
