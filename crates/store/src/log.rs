//! Append-only operation log with checksummed framing.
//!
//! Complements [`crate::snapshot`]: a snapshot captures a point-in-time
//! image, the log records the stream of insertions and removals since. Log
//! records are *self-describing* — each carries the full entity values of
//! its fact — so a log can be replayed into any store (fresh or snapshot-
//! restored) regardless of id assignment.
//!
//! # On-disk framing
//!
//! Each record is a frame:
//!
//! ```text
//! [payload len: u32 le][crc32(payload): u32 le][payload]
//! payload = op tag (u8) + three encoded entity values
//! ```
//!
//! The frame makes crash recovery possible: a write torn mid-record leaves
//! either a short frame (length prefix promises more bytes than exist) or
//! a checksum mismatch, and in both cases the damage is confined to the
//! log's *tail*. [`recover`] applies every intact frame in order, stops at
//! the first damaged one, and reports the byte length of the valid prefix
//! so the caller can truncate the tail away. The strict [`decode`] /
//! [`replay`] entry points instead treat any damage as an error.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{self, CodecError};
use crate::io::crc32;
use crate::store::FactStore;
use crate::value::EntityValue;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// Bytes of frame header: payload length + checksum.
pub const FRAME_HEADER_LEN: usize = 8;

/// A single logged operation.
#[derive(Clone, Debug, PartialEq)]
pub enum LogOp {
    /// Insert the fact described by the three values.
    Insert(EntityValue, EntityValue, EntityValue),
    /// Remove the fact described by the three values.
    Remove(EntityValue, EntityValue, EntityValue),
}

impl LogOp {
    fn tag(&self) -> u8 {
        match self {
            LogOp::Insert(..) => OP_INSERT,
            LogOp::Remove(..) => OP_REMOVE,
        }
    }

    fn values(&self) -> [&EntityValue; 3] {
        match self {
            LogOp::Insert(s, r, t) | LogOp::Remove(s, r, t) => [s, r, t],
        }
    }
}

/// Encodes one operation as a self-contained checksummed frame, ready to
/// be appended to a log file.
///
/// # Panics
/// Panics if any value is a path entity (derived data; see [`FactLog`]).
pub fn encode_frame(op: &LogOp) -> Vec<u8> {
    encode_frame_parts(op.tag(), op.values())
}

/// Encodes a frame straight from borrowed values — the zero-copy core of
/// [`encode_frame`] and the `*_ref` appenders.
fn encode_frame_parts(tag: u8, values: [&EntityValue; 3]) -> Vec<u8> {
    for v in values {
        assert!(
            !matches!(v, EntityValue::Path(_)),
            "path entities are derived and cannot be logged"
        );
    }
    let mut payload = BytesMut::new();
    payload.put_u8(tag);
    for v in values {
        codec::encode_value(&mut payload, v);
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.put_u32_le(payload.len() as u32);
    frame.put_u32_le(crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// An in-memory append-only log of store operations.
///
/// Path entities cannot be logged (their ids are store-specific); they are
/// derived data produced by composition inference and are re-derivable, so
/// excluding them loses no base information.
#[derive(Clone, Debug, Default)]
pub struct FactLog {
    buf: BytesMut,
    ops: usize,
}

impl FactLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation.
    ///
    /// # Panics
    /// Panics if any value is a path entity (derived data; see type docs).
    pub fn append(&mut self, op: &LogOp) {
        self.buf.put_slice(&encode_frame(op));
        self.ops += 1;
    }

    /// Convenience: log an insertion of three values.
    pub fn insert(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) {
        self.append(&LogOp::Insert(s.into(), r.into(), t.into()));
    }

    /// Convenience: log a removal of three values.
    pub fn remove(
        &mut self,
        s: impl Into<EntityValue>,
        r: impl Into<EntityValue>,
        t: impl Into<EntityValue>,
    ) {
        self.append(&LogOp::Remove(s.into(), r.into(), t.into()));
    }

    /// Logs an insertion from borrowed values: the frame is encoded
    /// directly from the borrows, so the hot write path never clones an
    /// `EntityValue` just to log it.
    ///
    /// # Panics
    /// Panics if any value is a path entity (derived data; see type docs).
    pub fn insert_ref(&mut self, s: &EntityValue, r: &EntityValue, t: &EntityValue) {
        self.buf.put_slice(&encode_frame_parts(OP_INSERT, [s, r, t]));
        self.ops += 1;
    }

    /// Logs a removal from borrowed values (see [`FactLog::insert_ref`]).
    ///
    /// # Panics
    /// Panics if any value is a path entity (derived data; see type docs).
    pub fn remove_ref(&mut self, s: &EntityValue, r: &EntityValue, t: &EntityValue) {
        self.buf.put_slice(&encode_frame_parts(OP_REMOVE, [s, r, t]));
        self.ops += 1;
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// The encoded byte size of the log.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// The encoded frames, borrowed: what a journal appends in one write.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// A frozen copy of the encoded log.
    pub fn bytes(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }

    /// Writes the encoded log to a file atomically (temp + rename).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        crate::io::atomic_write(path, &self.buf)
    }
}

/// A streaming iterator over the frames of an encoded log.
///
/// Yields each decoded operation in order; the first damaged frame (torn
/// tail, checksum mismatch, or malformed payload) yields one `Err` and
/// ends the iteration. [`Frames::valid_bytes`] reports how many leading
/// bytes held intact frames — the truncation point for crash recovery.
#[derive(Debug)]
pub struct Frames<'a> {
    data: &'a [u8],
    offset: usize,
    failed: bool,
}

impl<'a> Frames<'a> {
    /// Starts iterating over an encoded log.
    pub fn new(data: &'a [u8]) -> Self {
        Frames { data, offset: 0, failed: false }
    }

    /// Byte length of the valid prefix decoded so far.
    pub fn valid_bytes(&self) -> usize {
        self.offset
    }

    /// True if iteration ended at a damaged frame rather than clean EOF.
    pub fn damaged(&self) -> bool {
        self.failed
    }

    fn next_frame(&mut self) -> Result<LogOp, CodecError> {
        let rest = &self.data[self.offset..];
        if rest.len() < FRAME_HEADER_LEN {
            return Err(CodecError::UnexpectedEof);
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let body = &rest[FRAME_HEADER_LEN..];
        if len > body.len() {
            // A torn frame: the length prefix promises bytes that never
            // reached the disk. No allocation happens based on `len`.
            return Err(CodecError::UnexpectedEof);
        }
        let payload = &body[..len];
        let computed = crc32(payload);
        if computed != stored {
            return Err(CodecError::BadChecksum { stored, computed });
        }
        let mut input = payload;
        let tag = codec::get_u8(&mut input)?;
        let s = codec::decode_value(&mut input, 0)?;
        let r = codec::decode_value(&mut input, 0)?;
        let t = codec::decode_value(&mut input, 0)?;
        if input.has_remaining() {
            return Err(CodecError::BadLength(len));
        }
        let op = match tag {
            OP_INSERT => LogOp::Insert(s, r, t),
            OP_REMOVE => LogOp::Remove(s, r, t),
            other => return Err(CodecError::BadTag(other)),
        };
        self.offset += FRAME_HEADER_LEN + len;
        Ok(op)
    }
}

impl Iterator for Frames<'_> {
    type Item = Result<LogOp, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.offset == self.data.len() {
            return None;
        }
        match self.next_frame() {
            Ok(op) => Some(Ok(op)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Applies one operation to a store.
pub fn apply(op: LogOp, store: &mut FactStore) {
    match op {
        LogOp::Insert(s, r, t) => {
            store.add(s, r, t);
        }
        LogOp::Remove(s, r, t) => {
            let (s, r, t) = (store.entity(s), store.entity(r), store.entity(t));
            store.remove(&crate::fact::Fact::new(s, r, t));
        }
    }
}

/// Strictly decodes an encoded log into its operations; any damaged frame
/// is an error.
pub fn decode(input: impl AsRef<[u8]>) -> Result<Vec<LogOp>, CodecError> {
    Frames::new(input.as_ref()).collect()
}

/// Strictly replays an encoded log into a store, streaming record by
/// record; returns the number of operations applied. Any damaged frame is
/// an error — but operations before it have already been applied, so use
/// this only where damage is fatal anyway (e.g. [`replay_file`] after a
/// clean shutdown). For crash recovery use [`recover`].
pub fn replay(input: impl AsRef<[u8]>, store: &mut FactStore) -> Result<usize, CodecError> {
    let mut span = loosedb_obs::span!("store.log.replay", bytes = input.as_ref().len());
    let mut n = 0;
    for op in Frames::new(input.as_ref()) {
        apply(op?, store);
        n += 1;
    }
    span.record("ops", n);
    Ok(n)
}

/// The outcome of lenient crash recovery over a log ([`recover`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Operations decoded from intact frames and applied.
    pub applied: usize,
    /// Byte length of the valid log prefix; the caller should truncate
    /// the file to this length to drop the damaged tail.
    pub valid_bytes: usize,
    /// True if a damaged frame stopped the replay (torn tail or
    /// corruption), false if the whole log was intact.
    pub damaged: bool,
}

/// Leniently replays a possibly crash-damaged log into a store: applies
/// every intact frame in order, stops at the first torn or corrupt one,
/// and reports how much of the log was valid. Never fails — a log that is
/// damaged from byte zero simply recovers zero operations.
pub fn recover(input: impl AsRef<[u8]>, store: &mut FactStore) -> Recovery {
    let mut span = loosedb_obs::span!("store.log.recover", bytes = input.as_ref().len());
    let mut frames = Frames::new(input.as_ref());
    let mut applied = 0;
    let mut damaged = false;
    for op in &mut frames {
        match op {
            Ok(op) => {
                apply(op, store);
                applied += 1;
            }
            Err(_) => damaged = true,
        }
    }
    span.record("ops", applied);
    span.record("damaged", damaged);
    Recovery { applied, valid_bytes: frames.valid_bytes(), damaged }
}

/// Loads and strictly replays a log file into a store.
pub fn replay_file(
    path: impl AsRef<std::path::Path>,
    store: &mut FactStore,
) -> std::io::Result<usize> {
    let data = std::fs::read(path)?;
    replay(data, store)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Pattern;

    #[test]
    fn log_and_replay() {
        let mut log = FactLog::new();
        log.insert("JOHN", "EARNS", 25000i64);
        log.insert("JOHN", "LIKES", "FELIX");
        log.remove("JOHN", "LIKES", "FELIX");
        assert_eq!(log.len(), 3);

        let mut store = FactStore::new();
        let applied = replay(log.bytes(), &mut store).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(store.len(), 1);
        let john = store.lookup_symbol("JOHN").unwrap();
        assert_eq!(store.count(Pattern::from_source(john)), 1);
    }

    #[test]
    fn replay_into_populated_store_is_id_independent() {
        // Fill the target store so its ids differ from the logging store's.
        let mut store = FactStore::new();
        store.add("PADDING-1", "PADDING-2", "PADDING-3");
        let mut log = FactLog::new();
        log.insert("A", "R", "B");
        replay(log.bytes(), &mut store).unwrap();
        let a = store.lookup_symbol("A").unwrap();
        assert_eq!(store.count(Pattern::from_source(a)), 1);
    }

    #[test]
    fn decode_roundtrip() {
        let mut log = FactLog::new();
        log.insert("X", "R", 5i64);
        log.remove("X", "R", 5i64);
        let ops = decode(log.bytes()).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            LogOp::Insert(EntityValue::symbol("X"), EntityValue::symbol("R"), EntityValue::Int(5))
        );
        assert!(matches!(ops[1], LogOp::Remove(..)));
    }

    #[test]
    fn truncated_log_is_an_error() {
        let mut log = FactLog::new();
        log.insert("JOHN", "EARNS", 25000i64);
        let data = log.bytes();
        for cut in 1..data.len() {
            assert!(decode(data.slice(..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_is_an_error() {
        let mut log = FactLog::new();
        log.insert("JOHN", "EARNS", 25000i64);
        let clean = log.bytes().to_vec();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn recover_stops_at_torn_tail() {
        let mut log = FactLog::new();
        log.insert("A", "R", "B");
        log.insert("C", "R", "D");
        log.insert("E", "R", "F");
        let clean = log.bytes().to_vec();

        // Cut anywhere inside the third frame: two ops recover.
        let two_frames = {
            let mut l = FactLog::new();
            l.insert("A", "R", "B");
            l.insert("C", "R", "D");
            l.byte_len()
        };
        for cut in two_frames + 1..clean.len() {
            let mut store = FactStore::new();
            let report = recover(&clean[..cut], &mut store);
            assert_eq!(report.applied, 2, "cut at {cut}");
            assert_eq!(report.valid_bytes, two_frames);
            assert!(report.damaged);
            assert_eq!(store.len(), 2);
        }

        // The intact log recovers everything and reports no damage.
        let mut store = FactStore::new();
        let report = recover(&clean, &mut store);
        assert_eq!(report, Recovery { applied: 3, valid_bytes: clean.len(), damaged: false });
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn recover_stops_at_bit_rot() {
        let mut log = FactLog::new();
        log.insert("A", "R", "B");
        log.insert("C", "R", "D");
        let mut data = log.bytes().to_vec();
        let first = FRAME_HEADER_LEN + {
            let mut l = FactLog::new();
            l.insert("A", "R", "B");
            l.byte_len() - FRAME_HEADER_LEN
        };
        // Corrupt the second frame's payload.
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        let mut store = FactStore::new();
        let report = recover(&data, &mut store);
        assert_eq!(report.applied, 1);
        assert_eq!(report.valid_bytes, first);
        assert!(report.damaged);
    }

    #[test]
    fn path_values_rejected() {
        let op = LogOp::Insert(
            EntityValue::Path(vec![crate::value::EntityId(1)].into()),
            EntityValue::symbol("R"),
            EntityValue::symbol("B"),
        );
        let panic = std::panic::catch_unwind(|| encode_frame(&op));
        assert!(panic.is_err());
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let log = FactLog::new();
        let mut store = FactStore::new();
        assert_eq!(replay(log.bytes(), &mut store).unwrap(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let mut log = FactLog::new();
        log.insert("A", "R", "B");
        let dir = std::env::temp_dir().join(format!("loosedb-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.log");
        log.save(&path).unwrap();
        let mut store = FactStore::new();
        assert_eq!(replay_file(&path, &mut store).unwrap(), 1);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
