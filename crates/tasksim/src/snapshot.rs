//! Versioned, dependency-free binary snapshots of engine state.
//!
//! Long-running production replays need to survive interruption: a run
//! checkpointed mid-stream and restored in a fresh process must continue
//! **bit-identically** to the uninterrupted run — same reports, same op
//! digest, same eviction decisions. Every stateful layer of the engine
//! therefore implements [`Snapshot`]/[`Restore`] against the codec here;
//! the front-ends surface the capability through
//! [`TaskIssuer::checkpoint`](crate::issuer::TaskIssuer::checkpoint) and
//! the `apophenia` crate's `Session::resume_from`.
//!
//! # Format
//!
//! The codec is deliberately plain — no serde, no external crates (the
//! workspace builds offline):
//!
//! ```text
//! magic "APSN" | format version (u32 LE) | front-end tag (u8)
//! payload length (u64 LE) | payload bytes | digest (u64 LE)
//! ```
//!
//! The digest seeds itself with the front-end tag and the payload
//! length, then folds the payload a 32-byte stripe at a time: four
//! independent 64-bit lanes each take one little-endian word per stripe
//! through `h = rotl((h ^ w) · K, 29)` with `K` odd. The tail below one
//! stripe is folded a byte at a time, and the lanes are folded in order
//! at the end. For a fixed word every step is a bijection of the lane
//! state, and for a fixed state a bijection of the word, so **any one
//! corrupted 8-byte word (or tail byte, or trailer bit) always changes
//! the digest**: a flipped bit anywhere after the length field is
//! rejected with a typed [`SnapshotError`] instead of silently restoring
//! divergent state. The rotation keeps the same bit flipped in two words
//! of one lane from cancelling, which a plain word-wise FNV allows for
//! bit 63. The lanes are independent, so the fold runs at memory speed
//! rather than one dependent multiply per byte.
//!
//! The digest is a corruption check, **not a MAC**: anyone can re-seal
//! edited bytes with a valid digest. The structural checks every
//! [`Restore`] implementation makes are the trust boundary — a hostile
//! image must fail with [`SnapshotError::Corrupt`], never panic later.
//!
//! Within the payload, integers are fixed-width little-endian, `f64`s are
//! written via [`f64::to_bits`] (bit-exact across save/restore — the
//! simulation clocks must not drift by a ULP), sequences are
//! length-prefixed, and hash-map contents are serialized in sorted key
//! order so identical states produce identical bytes.
//!
//! # Version policy
//!
//! [`FORMAT_VERSION`] identifies the layout of everything after the
//! version field. Any change to any layer's field set or encoding bumps
//! it; readers reject versions they do not know with
//! [`SnapshotError::UnsupportedVersion`] rather than guessing. There is
//! no cross-version migration: a snapshot is a mid-run artifact, not an
//! archival format — pair it with the binary that wrote it.

use std::collections::VecDeque;
use std::io::{Read, Write};

/// Magic bytes opening every snapshot envelope.
pub const MAGIC: [u8; 4] = *b"APSN";

/// Version of the on-disk layout (see the module docs for the policy).
/// v2: byte-denominated capacity budgets joined the serialized
/// configuration (`CapacityConfig::max_trie_bytes` /
/// `max_template_bytes`, `RuntimeConfig::max_template_bytes`).
/// v3: the reference-pipeline selector joined the serialized
/// configuration (`Config::reference_pipeline`).
/// v4: that selector left it again — the reference pipeline is a
/// test-only oracle now, not a configuration.
/// v5: the winnowing pre-filter left with its `Config::winnow_prefilter`
/// byte and the finder's `jobs_prefiltered` word — the mining kernel
/// leaves repeat-free slices exactly and earlier.
/// v6: the envelope digest became the word-parallel lane fold (seeded
/// with the tag and the payload length); payload bytes are unchanged.
pub const FORMAT_VERSION: u32 = 6;

/// Front-end tag: a bare [`crate::runtime::Runtime`] (untraced or
/// manually annotated).
pub const FRONT_END_RUNTIME: u8 = 0;
/// Front-end tag: the apophenia `AutoTracer`.
pub const FRONT_END_AUTO: u8 = 1;
/// Front-end tag: the apophenia `DistributedAutoTracer`.
pub const FRONT_END_DISTRIBUTED: u8 = 2;

/// Why a snapshot could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying reader/writer failed (message from the I/O error).
    Io(String),
    /// The stream ended before the envelope said it would.
    Truncated,
    /// The envelope does not open with [`MAGIC`].
    BadMagic,
    /// The envelope's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload digest does not match: the bytes were corrupted (or
    /// the tag was tampered with) after the checkpoint was written.
    DigestMismatch,
    /// The front-end tag names no known front-end.
    UnknownFrontEnd(u8),
    /// The payload decoded to structurally impossible state (described by
    /// the message).
    Corrupt(String),
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v} (expected {FORMAT_VERSION})")
            }
            Self::DigestMismatch => write!(f, "snapshot digest mismatch (corrupted bytes)"),
            Self::UnknownFrontEnd(tag) => write!(f, "unknown front-end tag {tag}"),
            Self::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            Self::TrailingBytes => write!(f, "snapshot has trailing bytes past the payload"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e.to_string())
        }
    }
}

/// What a front-end reports about a checkpoint it just wrote. Everything
/// needed to sanity-check a later resume without opening the snapshot:
/// the stream position the checkpoint cut at and the op digest the
/// restored run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The envelope's [`FORMAT_VERSION`].
    pub format_version: u32,
    /// Which front-end wrote the snapshot ([`FRONT_END_RUNTIME`],
    /// [`FRONT_END_AUTO`], or [`FRONT_END_DISTRIBUTED`]).
    pub front_end: u8,
    /// Tasks the application had issued at the checkpoint — the agreed
    /// barrier every node of a distributed deployment checkpointed at.
    pub tasks_issued: u64,
    /// Operations pushed to the log at the checkpoint (node 0's view for
    /// distributed front-ends).
    pub ops_pushed: u64,
    /// The order-sensitive op-stream digest at the checkpoint; a restored
    /// run starts from exactly this digest and must extend it identically
    /// to the uninterrupted run.
    pub op_digest: u64,
    /// Payload size in bytes (envelope overhead excluded).
    pub payload_bytes: u64,
}

impl CheckpointMeta {
    /// Human-readable front-end name.
    pub fn front_end_label(&self) -> &'static str {
        match self.front_end {
            FRONT_END_RUNTIME => "runtime",
            FRONT_END_AUTO => "auto",
            FRONT_END_DISTRIBUTED => "distributed",
            _ => "unknown",
        }
    }
}

/// One lane step of the envelope digest: a bijection of `h` for a fixed
/// `w` and of `w` for a fixed `h` (xor, multiply by an odd constant,
/// rotate).
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// The envelope's corruption check (see the module docs): four lanes over
/// 32-byte stripes, seeded with the front-end tag and the payload length,
/// the sub-stripe tail folded byte-wise, the lanes folded in order.
fn envelope_digest(front_end: u8, payload: &[u8]) -> u64 {
    let seed = mix(mix(0xcbf2_9ce4_8422_2325, u64::from(front_end)), payload.len() as u64);
    let mut lanes = [mix(seed, 0), mix(seed, 1), mix(seed, 2), mix(seed, 3)];
    let (stripes, tail) = payload.as_chunks::<32>();
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<8>();
        for (h, w) in lanes.iter_mut().zip(words) {
            *h = mix(*h, u64::from_le_bytes(*w));
        }
    }
    let h = lanes.into_iter().fold(seed, mix);
    tail.iter().fold(h, |h, &b| mix(h, u64::from(b)))
}

/// Bytes the first payload read of [`read_envelope`] allocates; later
/// reads double what has arrived.
const FIRST_READ: usize = 1 << 20;

/// Serializes a payload: field-at-a-time writes into an in-memory buffer,
/// flushed as one envelope by [`write_envelope`].
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw payload bytes.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (sizes are platform-independent on
    /// disk).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes an optional `usize` as an optional `u64`.
    pub fn put_opt_len(&mut self, v: Option<usize>) {
        self.put_opt_u64(v.map(|x| x as u64));
    }

    /// Writes an optional `u32` (presence byte + value).
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u32(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a length-prefixed sequence through `f`.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_len(items.len());
        for item in items {
            f(self, item);
        }
    }

    /// Writes a length-prefixed deque through `f` (front to back).
    pub fn put_deque<T>(&mut self, items: &VecDeque<T>, mut f: impl FnMut(&mut Self, &T)) {
        self.put_len(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Cursor-based reader over a snapshot payload.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `payload` (as returned by [`read_envelope`]).
    pub fn new(payload: &'a [u8]) -> Self {
        Self { buf: payload, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`SnapshotError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written by [`SnapshotWriter::put_len`].
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Corrupt("length exceeds usize".into()))
    }

    /// Reads an `f64` bit-exactly.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a boolean; any byte other than 0/1 is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid boolean byte {b}"))),
        }
    }

    /// Reads an optional `u64`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.get_bool()? { Some(self.get_u64()?) } else { None })
    }

    /// Reads an optional `usize`.
    pub fn get_opt_len(&mut self) -> Result<Option<usize>, SnapshotError> {
        match self.get_opt_u64()? {
            Some(v) => usize::try_from(v)
                .map(Some)
                .map_err(|_| SnapshotError::Corrupt("length exceeds usize".into())),
            None => Ok(None),
        }
    }

    /// Reads an optional `u32`.
    pub fn get_opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        Ok(if self.get_bool()? { Some(self.get_u32()?) } else { None })
    }

    /// Reads a length-prefixed sequence through `f`. The declared length
    /// is sanity-checked against the remaining bytes (every element
    /// encodes at least one byte), so corrupt lengths fail fast instead
    /// of allocating unboundedly.
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.get_len()?;
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "sequence of {n} elements exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed sequence into a deque.
    pub fn get_deque<T>(
        &mut self,
        f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<VecDeque<T>, SnapshotError> {
        Ok(VecDeque::from(self.get_seq(f)?))
    }
}

/// Serializing half of the snapshot contract: append this value's state
/// to a payload.
pub trait Snapshot {
    /// Writes the value into `w`.
    fn snapshot(&self, w: &mut SnapshotWriter);
}

/// Deserializing half of the snapshot contract: rebuild a value from a
/// payload cursor, validating structure as it goes.
pub trait Restore: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Writes a complete snapshot envelope (magic, version, tag, length,
/// payload, digest) to `out`.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_envelope(
    front_end: u8,
    payload: &[u8],
    out: &mut dyn Write,
) -> Result<(), SnapshotError> {
    out.write_all(&MAGIC)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    out.write_all(&[front_end])?;
    out.write_all(&(payload.len() as u64).to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&envelope_digest(front_end, payload).to_le_bytes())?;
    out.flush()?;
    Ok(())
}

/// Writes a front-end's checkpoint — envelope around `payload` — and
/// returns the [`CheckpointMeta`] describing the cut. The one place the
/// envelope/meta pairing lives, shared by every
/// [`TaskIssuer::checkpoint`](crate::issuer::TaskIssuer::checkpoint)
/// implementation.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_checkpoint(
    front_end: u8,
    tasks_issued: u64,
    ops_pushed: u64,
    op_digest: u64,
    payload: &[u8],
    out: &mut dyn Write,
) -> Result<CheckpointMeta, SnapshotError> {
    write_envelope(front_end, payload, out)?;
    Ok(CheckpointMeta {
        format_version: FORMAT_VERSION,
        front_end,
        tasks_issued,
        ops_pushed,
        op_digest,
        payload_bytes: payload.len() as u64,
    })
}

/// Reads and verifies a snapshot envelope from `input`, returning the
/// front-end tag and the payload bytes.
///
/// # Errors
///
/// Typed [`SnapshotError`]s for truncation, bad magic, unsupported
/// versions, and digest mismatches.
pub fn read_envelope(input: &mut dyn Read) -> Result<(u8, Vec<u8>), SnapshotError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut version = [0u8; 4];
    input.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let mut tag = [0u8; 1];
    input.read_exact(&mut tag)?;
    let mut len = [0u8; 8];
    input.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    // The length field is untrusted until the digest verifies: each read
    // asks for at most what has already arrived (1 MiB at first), so a
    // corrupted length yields `Truncated` after allocating about twice
    // the bytes actually delivered, never one huge up-front reservation.
    // Each byte is read straight into the payload buffer, with no
    // intermediate copy.
    let mut payload = Vec::new();
    while (payload.len() as u64) < len {
        let have = payload.len();
        let left = usize::try_from(len - have as u64).unwrap_or(usize::MAX);
        let grow = have.max(FIRST_READ).min(left);
        payload.resize(have + grow, 0);
        input.read_exact(&mut payload[have..])?;
    }
    let mut digest = [0u8; 8];
    input.read_exact(&mut digest)?;
    if u64::from_le_bytes(digest) != envelope_digest(tag[0], &payload) {
        return Err(SnapshotError::DigestMismatch);
    }
    Ok((tag[0], payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_len(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        w.put_seq(&[1u64, 2, 3], |w, v| w.put_u64(*v));
        let payload = w.into_payload();
        let mut r = SnapshotReader::new(&payload);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_len().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits(), "negative zero exact");
        assert!(r.get_f64().unwrap().is_nan(), "NaN payload preserved");
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_seq(|r| r.get_u64()).unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_payload_is_typed() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let payload = w.into_payload();
        let mut r = SnapshotReader::new(&payload[..4]);
        assert_eq!(r.get_u64(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn oversized_sequence_rejected_before_allocating() {
        let mut w = SnapshotWriter::new();
        w.put_len(usize::MAX / 2);
        let payload = w.into_payload();
        let mut r = SnapshotReader::new(&payload);
        let err = r.get_seq(|r| r.get_u8()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn envelope_round_trip_and_rejections() {
        let mut bytes = Vec::new();
        write_envelope(FRONT_END_AUTO, b"hello", &mut bytes).unwrap();
        let (tag, payload) = read_envelope(&mut bytes.as_slice()).unwrap();
        assert_eq!(tag, FRONT_END_AUTO);
        assert_eq!(payload, b"hello");

        // Truncation anywhere is typed.
        for cut in [0, 3, 8, 9, bytes.len() - 1] {
            let err = read_envelope(&mut &bytes[..cut]).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "cut at {cut}");
        }

        // Flipping a payload byte trips the digest.
        let mut corrupt = bytes.clone();
        corrupt[18] ^= 0x40;
        assert_eq!(read_envelope(&mut corrupt.as_slice()), Err(SnapshotError::DigestMismatch));

        // Flipping the front-end tag trips the digest too (the tag is
        // folded in, so tampering cannot redirect a payload).
        let mut retagged = bytes.clone();
        retagged[8] = FRONT_END_RUNTIME;
        assert_eq!(read_envelope(&mut retagged.as_slice()), Err(SnapshotError::DigestMismatch));

        // A corrupted (huge) length field reads as truncation — it must
        // not be trusted with an allocation before the digest verifies.
        let mut huge_len = bytes.clone();
        huge_len[16] = 0xff; // top byte of the 8-byte length field
        assert_eq!(read_envelope(&mut huge_len.as_slice()), Err(SnapshotError::Truncated));

        // Bad magic and future versions are typed.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(read_envelope(&mut bad_magic.as_slice()), Err(SnapshotError::BadMagic));
        let mut future = bytes;
        future[4] = 0xff;
        assert_eq!(
            read_envelope(&mut future.as_slice()),
            Err(SnapshotError::UnsupportedVersion(u32::from_le_bytes([0xff, 0, 0, 0])))
        );
    }

    /// Bytes before the payload: magic, version, tag, length.
    const HEADER: usize = 17;

    fn envelope(front_end: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_envelope(front_end, payload, &mut bytes).unwrap();
        bytes
    }

    /// A deterministic, non-repeating payload of `n` bytes.
    fn payload_of(n: usize) -> Vec<u8> {
        (0..n as u64).map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8).collect()
    }

    #[test]
    fn payloads_across_the_stripe_tail_round_trip() {
        for n in 0..=96 {
            let payload = payload_of(n);
            let bytes = envelope(FRONT_END_DISTRIBUTED, &payload);
            assert_eq!(bytes.len(), HEADER + n + 8);
            let (tag, back) = read_envelope(&mut bytes.as_slice()).unwrap();
            assert_eq!((tag, back), (FRONT_END_DISTRIBUTED, payload), "{n} bytes");
        }
    }

    #[test]
    fn same_bit_in_two_words_of_one_lane_is_caught() {
        // Stripes are 32 bytes, so words 4 apart share a lane. A plain
        // word-wise FNV lets two bit-63 flips in one lane cancel.
        let payload = payload_of(8 * 32 + 5);
        let bytes = envelope(FRONT_END_AUTO, &payload);
        for lane in 0..4 {
            for (first, second) in [(0, 1), (0, 7), (3, 4), (6, 7)] {
                for bit in 0..64 {
                    let mut corrupt = bytes.clone();
                    for stripe in [first, second] {
                        let at = HEADER + 32 * stripe + 8 * lane + bit / 8;
                        corrupt[at] ^= 1 << (bit % 8);
                    }
                    assert_eq!(
                        read_envelope(&mut corrupt.as_slice()),
                        Err(SnapshotError::DigestMismatch),
                        "lane {lane}, stripes {first} and {second}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_tag_seeds_the_digest() {
        for n in [0, 1, 31, 32, 33, 100] {
            let payload = payload_of(n);
            let digests: Vec<u64> =
                (0..=u8::MAX).map(|tag| envelope_digest(tag, &payload)).collect();
            let mut distinct = digests.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), digests.len(), "{n} bytes: two tags share a digest");
        }
    }

    #[test]
    fn v5_envelopes_are_rejected_by_version() {
        let mut bytes = envelope(FRONT_END_AUTO, b"payload");
        bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(read_envelope(&mut bytes.as_slice()), Err(SnapshotError::UnsupportedVersion(5)));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any single bit flipped after the length field — in the
            /// payload's stripes, its tail, or the trailer — is caught.
            #[test]
            fn any_single_bit_flip_after_the_length_is_caught(
                payload in proptest::collection::vec(any::<u8>(), 0..160),
                tag in any::<u8>(),
                bit_sel in any::<u32>(),
            ) {
                let mut bytes = envelope(tag, &payload);
                let bits = (bytes.len() - HEADER) * 8;
                let bit = bit_sel as usize % bits;
                bytes[HEADER + bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(
                    read_envelope(&mut bytes.as_slice()),
                    Err(SnapshotError::DigestMismatch)
                );
            }
        }
    }

    #[test]
    fn errors_render_readably() {
        assert!(SnapshotError::DigestMismatch.to_string().contains("corrupt"));
        assert!(SnapshotError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(SnapshotError::UnknownFrontEnd(7).to_string().contains('7'));
    }
}
