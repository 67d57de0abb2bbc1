//! Message-trace record and replay.
//!
//! Experiments are replayable two ways: regenerate from the seed, or write
//! the materialized stream to a compact binary trace and replay it later
//! (useful for cross-engine comparisons on *identical* inputs without
//! re-running the generator, and for persisting interesting workloads).
//!
//! The codec is hand-rolled on the `bytes` crate (no serde format crates
//! are available offline). Layout, all little-endian:
//!
//! ```text
//! header:  magic "ADCT" | version u16 | reserved u16
//! record:  id u64 | author u32 | ts u64 | location u16
//!        | nterms u16 | nterms × (term u32, weight f32)
//! ```

use std::sync::Arc;

use adcast_graph::UserId;
use adcast_text::dictionary::TermId;
use adcast_text::SparseVector;
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::clock::Timestamp;
use crate::event::{LocationId, Message, MessageId, SharedMessage};

const MAGIC: &[u8; 4] = b"ADCT";
const VERSION: u16 = 1;

/// Write a `magic | version u16 | reserved u16` stream header.
///
/// Shared by the trace codec (stream-level header) and the `adcast-net`
/// wire codec (per-frame header): both formats lead with the same 8-byte
/// shape so one pair of helpers guards both against malformed inputs.
pub fn put_stream_header(buf: &mut BytesMut, magic: &[u8; 4], version: u16) {
    buf.put_slice(magic);
    buf.put_u16_le(version);
    buf.put_u16_le(0);
}

/// Validate and consume a header written by [`put_stream_header`].
///
/// # Errors
///
/// [`TraceError::BadMagic`] when the buffer is shorter than a header or
/// does not start with `magic`; [`TraceError::BadVersion`] on a version
/// mismatch. Never panics, whatever the peer sent.
pub fn check_stream_header(
    data: &mut Bytes,
    magic: &[u8; 4],
    version: u16,
) -> Result<(), TraceError> {
    if data.remaining() < 8 {
        return Err(TraceError::BadMagic);
    }
    let mut found = [0u8; 4];
    data.copy_to_slice(&mut found);
    if &found != magic {
        return Err(TraceError::BadMagic);
    }
    let found_version = data.get_u16_le();
    if found_version != version {
        return Err(TraceError::BadVersion(found_version));
    }
    let _reserved = data.get_u16_le();
    Ok(())
}

/// Encode one message record (the layout in the module docs).
///
/// # Panics
///
/// Panics when the vector holds more than `u16::MAX` terms.
pub fn put_message(buf: &mut BytesMut, m: &Message) {
    let n = u16::try_from(m.vector.len()).expect("vector larger than u16::MAX terms");
    buf.put_u64_le(m.id.0);
    buf.put_u32_le(m.author.0);
    buf.put_u64_le(m.ts.micros());
    buf.put_u16_le(m.location.0);
    buf.put_u16_le(n);
    for (t, w) in m.vector.iter() {
        buf.put_u32_le(t.0);
        buf.put_f32_le(w);
    }
}

/// Decode one message record written by [`put_message`].
///
/// # Errors
///
/// [`TraceError::Truncated`] when the buffer ends mid-record,
/// [`TraceError::Corrupt`] on invalid payloads (zero/non-finite weights,
/// unsorted terms). Never panics, whatever the peer sent.
pub fn get_message(data: &mut Bytes) -> Result<SharedMessage, TraceError> {
    const FIXED: usize = 8 + 4 + 8 + 2 + 2;
    if data.remaining() < FIXED {
        return Err(TraceError::Truncated);
    }
    let id = MessageId(data.get_u64_le());
    let author = UserId(data.get_u32_le());
    let ts = Timestamp(data.get_u64_le());
    let location = LocationId(data.get_u16_le());
    let n = data.get_u16_le() as usize;
    if data.remaining() < n * 8 {
        return Err(TraceError::Truncated);
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let t = TermId(data.get_u32_le());
        let w = data.get_f32_le();
        if !w.is_finite() || w == 0.0 {
            return Err(TraceError::Corrupt("zero or non-finite weight"));
        }
        entries.push((t, w));
    }
    if entries.windows(2).any(|p| p[0].0 >= p[1].0) {
        return Err(TraceError::Corrupt("terms not strictly sorted"));
    }
    let vector = SparseVector::from_sorted(entries);
    Ok(Arc::new(Message {
        id,
        author,
        ts,
        location,
        vector,
    }))
}

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace does not start with the `ADCT` magic.
    BadMagic,
    /// The trace was written by an incompatible version.
    BadVersion(u16),
    /// The trace ends mid-record.
    Truncated,
    /// A record contains an invalid payload (e.g. non-finite weight).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an adcast trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace truncated mid-record"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Serializes messages into an in-memory trace buffer.
#[derive(Debug)]
pub struct TraceWriter {
    buf: BytesMut,
    count: u64,
}

impl Default for TraceWriter {
    fn default() -> Self {
        TraceWriter::new()
    }
}

impl TraceWriter {
    /// Start a new trace (writes the header).
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(4096);
        put_stream_header(&mut buf, MAGIC, VERSION);
        TraceWriter { buf, count: 0 }
    }

    /// Append one message.
    pub fn write(&mut self, m: &Message) {
        put_message(&mut self.buf, m);
        self.count += 1;
    }

    /// Messages written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finish, returning the immutable trace bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Streaming decoder over trace bytes.
#[derive(Debug)]
pub struct TraceReader {
    data: Bytes,
}

impl TraceReader {
    /// Validate the header and position after it.
    pub fn new(mut data: Bytes) -> Result<Self, TraceError> {
        check_stream_header(&mut data, MAGIC, VERSION)?;
        Ok(TraceReader { data })
    }

    /// Decode the next message, `Ok(None)` at a clean end of trace.
    pub fn next_message(&mut self) -> Result<Option<SharedMessage>, TraceError> {
        if !self.data.has_remaining() {
            return Ok(None);
        }
        get_message(&mut self.data).map(Some)
    }

    /// Decode the whole remaining trace.
    pub fn read_all(&mut self) -> Result<Vec<SharedMessage>, TraceError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    fn sample_messages(n: usize) -> Vec<SharedMessage> {
        let mut g = WorkloadGenerator::with_poisson(WorkloadConfig::tiny(), 50.0);
        (0..n).map(|_| g.next_message()).collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let msgs = sample_messages(25);
        let mut w = TraceWriter::new();
        for m in &msgs {
            w.write(m);
        }
        assert_eq!(w.count(), 25);
        let bytes = w.finish();
        let mut r = TraceReader::new(bytes).unwrap();
        let decoded = r.read_all().unwrap();
        assert_eq!(decoded.len(), msgs.len());
        for (a, b) in msgs.iter().zip(&decoded) {
            assert_eq!(**a, **b);
        }
    }

    #[test]
    fn empty_trace_roundtrip() {
        let bytes = TraceWriter::new().finish();
        let mut r = TraceReader::new(bytes).unwrap();
        assert_eq!(r.read_all().unwrap().len(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReader::new(Bytes::from_static(b"NOPE0000")).unwrap_err();
        assert_eq!(err, TraceError::BadMagic);
        let err = TraceReader::new(Bytes::from_static(b"AD")).unwrap_err();
        assert_eq!(err, TraceError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(99);
        buf.put_u16_le(0);
        let err = TraceReader::new(buf.freeze()).unwrap_err();
        assert_eq!(err, TraceError::BadVersion(99));
    }

    #[test]
    fn truncated_record_detected() {
        let msgs = sample_messages(2);
        let mut w = TraceWriter::new();
        for m in &msgs {
            w.write(m);
        }
        let bytes = w.finish();
        let cut = bytes.slice(0..bytes.len() - 3);
        let mut r = TraceReader::new(cut).unwrap();
        let res = r.read_all();
        assert_eq!(res.unwrap_err(), TraceError::Truncated);
    }

    #[test]
    fn corrupt_weight_detected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(0);
        buf.put_u64_le(0); // id
        buf.put_u32_le(0); // author
        buf.put_u64_le(0); // ts
        buf.put_u16_le(0); // location
        buf.put_u16_le(1); // one term
        buf.put_u32_le(7);
        buf.put_f32_le(f32::NAN);
        let mut r = TraceReader::new(buf.freeze()).unwrap();
        assert!(matches!(r.next_message(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn unsorted_terms_detected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u16_le(0);
        buf.put_u16_le(2);
        buf.put_u32_le(9);
        buf.put_f32_le(1.0);
        buf.put_u32_le(3);
        buf.put_f32_le(1.0);
        let mut r = TraceReader::new(buf.freeze()).unwrap();
        assert!(matches!(r.next_message(), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn shared_header_helpers_roundtrip_and_reject() {
        let mut buf = BytesMut::new();
        put_stream_header(&mut buf, b"WXYZ", 3);
        let mut ok = buf.clone().freeze();
        assert_eq!(check_stream_header(&mut ok, b"WXYZ", 3), Ok(()));
        assert_eq!(ok.remaining(), 0, "header fully consumed");
        let mut wrong_magic = buf.clone().freeze();
        assert_eq!(
            check_stream_header(&mut wrong_magic, b"ABCD", 3),
            Err(TraceError::BadMagic)
        );
        let mut wrong_version = buf.freeze();
        assert_eq!(
            check_stream_header(&mut wrong_version, b"WXYZ", 4),
            Err(TraceError::BadVersion(3))
        );
        // Shorter than a header (the empty buffer included): BadMagic,
        // never a panic.
        for cut in 0..8usize {
            let mut short = Bytes::from_static(b"WXYZ\x03\x00\x00\x00").slice(0..cut);
            assert_eq!(
                check_stream_header(&mut short, b"WXYZ", 3),
                Err(TraceError::BadMagic),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn shared_message_record_truncations_never_panic() {
        let msg = &sample_messages(1)[0];
        let mut buf = BytesMut::new();
        put_message(&mut buf, msg);
        let bytes = buf.freeze();
        let mut whole = bytes.clone();
        assert_eq!(&*get_message(&mut whole).unwrap(), &**msg);
        // Every proper prefix must decode to Truncated, not panic.
        for cut in 0..bytes.len() {
            let mut prefix = bytes.slice(0..cut);
            assert_eq!(
                get_message(&mut prefix),
                Err(TraceError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::BadVersion(9).to_string().contains('9'));
        assert!(TraceError::Truncated.to_string().contains("truncated"));
    }
}
