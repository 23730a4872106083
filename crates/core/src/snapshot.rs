//! On-disk snapshot codec for the clustered FITing-Tree.
//!
//! Serializes a [`FitingTree`]'s SoA segment pages (`keys` ∥ `values` ∥
//! tombstone bitmap ∥ insert buffer) and its flat directory
//! (`anchors` ∥ `slots`) as length-prefixed, CRC32-checksummed
//! little-endian sections. The layout is **mmap-ready** — every record
//! is fixed-width (via the [`Key`] byte codecs) and every section
//! starts on a 64-byte boundary — but the reader shipped here is a
//! plain std-only byte-slice decoder; a zero-copy mapped reader can
//! layer on later without a format change.
//!
//! # Layout
//!
//! ```text
//! header (one 64-byte block)
//!   0..8    magic "FITSNP02"
//!   8..10   key width in bytes   (u16, = K::ENCODED_LEN)
//!   10..12  value width in bytes (u16, = V::ENCODED_LEN)
//!   12      reserved, written 0  (u8; images from before the single
//!           in-segment search carry 1..=3 here and still decode)
//!   13..16  zero
//!   16..24  error budget         (u64)
//!   24..32  buffer size          (u64)
//!   32..40  entry count          (u64)
//!   40..48  segment count        (u64)
//!   48..52  CRC32 of bytes 0..48
//!   52..64  zero
//! section (starts 64-byte aligned; one per block below)
//!   0..8    payload length       (u64)
//!   8..12   CRC32 of the payload
//!   12..16  zero
//!   16..    payload, zero-padded to the next 64-byte boundary
//! ```
//!
//! Sections, in order: the directory anchor array (`segment_count`
//! keys), the directory slot array (`segment_count` × u32 — written
//! *compacted*, i.e. slot `i` for the `i`-th segment in key order,
//! since arena slot numbers are an in-memory artifact), then one
//! section per segment:
//!
//! ```text
//! start_key | slope (f64 bits) | page_len u64 | buf_len u64 | dead_words u64
//! | under u32 | over u32
//! | keys (page_len × key width)   | values (page_len × value width)
//! | tombstone bitmap (dead_words × u64) | buffer (buf_len × (key+value))
//! ```
//!
//! The decoder re-derives what is cheap to re-derive (the tombstone
//! count, the directory's interpolation seed) and trusts the
//! checksummed copy of what is not (the measured error envelope
//! `under`/`over` — an O(n) float pass the restart path should not
//! pay). Structural validation — sortedness, anchor agreement, exact
//! section consumption — always runs; the tree's exhaustive per-key
//! invariant check additionally runs in debug builds, where the crash
//! and round-trip suites live.

use crate::clustered::FitingTree;
use crate::error::BuildError;
use crate::key::Key;
use crate::segment::Segment;

/// First eight bytes of every snapshot. Version `02`: the persisted
/// envelope is measured against the open-top prediction (clamped at 0
/// only), which is what lets a page grow by in-place appends.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"FITSNP02";

/// Alignment of the header and of every section start.
pub(crate) const SNAPSHOT_ALIGN: usize = 64;

const HEADER_LEN: usize = 64;
const SECTION_HEADER_LEN: usize = 16;

// CRC32 (IEEE 802.3, polynomial 0xEDB88320) lookup tables, built at
// compile time — the workspace is offline, so the checksum is
// implemented here and shared with the WAL via re-export. Eight
// tables drive a slicing-by-8 kernel: table `t` advances a byte's
// contribution `t` further positions through the register, so eight
// input bytes fold into the CRC with eight independent loads instead
// of eight serially dependent single-byte steps — recovery reads
// checksum whole snapshots, so this is restart-path critical.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum both the snapshot sections
/// and the `fiting-storage` WAL records carry. Slicing-by-8: eight
/// bytes per step through eight derived tables.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why a snapshot failed to decode. Every variant leaves nothing
/// half-built — decoding either returns a fully validated tree or one
/// of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the named structure was complete.
    Truncated(&'static str),
    /// The first eight bytes are not the snapshot magic.
    BadMagic,
    /// A `FITSNP01` image: its error envelopes were measured under the
    /// old (page-clamped) prediction and cannot be trusted; rebuild the
    /// index from its source instead.
    UnsupportedVersion,
    /// A stored CRC32 did not match the bytes it covers (section 0 is
    /// the header).
    ChecksumMismatch {
        /// Which checksummed block failed (0 = header, then sections
        /// in file order).
        section: usize,
    },
    /// The stored key width does not match `K::ENCODED_LEN`.
    KeyWidthMismatch {
        /// Width the decoding type expects.
        expected: usize,
        /// Width stored in the header.
        found: usize,
    },
    /// The stored value width does not match `V::ENCODED_LEN`.
    ValueWidthMismatch {
        /// Width the decoding type expects.
        expected: usize,
        /// Width stored in the header.
        found: usize,
    },
    /// Header byte 12 (reserved; once a search-strategy selector) holds
    /// a value no writer ever produced.
    BadStrategy(u8),
    /// The stored configuration is itself invalid (e.g. buffer size
    /// consuming the whole error budget).
    Config(BuildError),
    /// The sections decoded but describe an inconsistent tree (counts
    /// disagree, unsorted anchors, …).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            SnapshotError::BadMagic => f.write_str("not a FITing-Tree snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion => {
                f.write_str("FITSNP01 snapshot: envelope definition changed, image not readable")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in block {section}")
            }
            SnapshotError::KeyWidthMismatch { expected, found } => {
                write!(f, "key width {found} (expected {expected})")
            }
            SnapshotError::ValueWidthMismatch { expected, found } => {
                write!(f, "value width {found} (expected {expected})")
            }
            SnapshotError::BadStrategy(b) => write!(f, "reserved header byte 12 holds {b}"),
            SnapshotError::Config(e) => write!(f, "stored configuration invalid: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot inconsistent: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Largest value any writer put in header byte 12: earlier formats
/// stored one of four in-segment search selectors there (0..=3). The
/// selector never changed which keys a page holds or where, so all
/// four decode to the one search; anything above is foreign.
const MAX_RESERVED_BYTE: u8 = 3;

/// Bytes the encoder gathers before handing them to its sink. A
/// section longer than this (a page of some 4 000 `u64` pairs or more)
/// goes to the sink in one piece of its own.
pub const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// A buffer of at most [`SNAPSHOT_CHUNK`] bytes in front of a sink;
/// `len` counts every byte put.
struct Out<F> {
    buf: Vec<u8>,
    sink: F,
    len: usize,
}

impl<E, F: FnMut(&[u8]) -> Result<(), E>> Out<F> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), E> {
        if self.buf.len() + bytes.len() > SNAPSHOT_CHUNK {
            (self.sink)(&self.buf)?;
            self.buf.clear();
        }
        self.len += bytes.len();
        if bytes.len() > SNAPSHOT_CHUNK {
            return (self.sink)(bytes);
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Puts one `len | crc | payload` section, zero-padded to the next
    /// 64-byte boundary.
    fn section(&mut self, payload: &[u8]) -> Result<(), E> {
        self.put(&(payload.len() as u64).to_le_bytes())?;
        self.put(&crc32(payload).to_le_bytes())?;
        self.put(&[0u8; 4])?;
        self.put(payload)?;
        self.put(&[0u8; SNAPSHOT_ALIGN][..self.len.next_multiple_of(SNAPSHOT_ALIGN) - self.len])
    }
}

/// Streams `tree`'s snapshot image (see the module docs for the
/// layout) into `sink` one section at a time, through a buffer of
/// [`SNAPSHOT_CHUNK`] bytes: the image is never in memory whole, only
/// its largest section is. Returns the image's length.
///
/// # Errors
///
/// The first error `sink` returns; nothing is written after it.
pub fn encode_tree_into<K: Key, V: Key, E>(
    tree: &FitingTree<K, V>,
    sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<usize, E> {
    let entries: Vec<(K, usize)> = tree.dir.entries().collect();
    let mut payload = Vec::new();
    payload.extend_from_slice(&SNAPSHOT_MAGIC);
    payload.extend_from_slice(&(K::ENCODED_LEN as u16).to_le_bytes());
    payload.extend_from_slice(&(V::ENCODED_LEN as u16).to_le_bytes());
    payload.extend_from_slice(&[0u8; 4]);
    payload.extend_from_slice(&tree.error.to_le_bytes());
    payload.extend_from_slice(&tree.buffer_size.to_le_bytes());
    payload.extend_from_slice(&(tree.len as u64).to_le_bytes());
    payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let crc = crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload.resize(HEADER_LEN, 0);
    let mut out = Out {
        buf: Vec::with_capacity(SNAPSHOT_CHUNK),
        sink,
        len: 0,
    };
    out.put(&payload)?;

    // Directory: anchors in key order, then compacted slot numbers.
    payload.clear();
    for &(anchor, _) in &entries {
        payload.extend_from_slice(&anchor.to_le_bytes());
    }
    out.section(&payload)?;
    payload.clear();
    for i in 0..entries.len() as u32 {
        payload.extend_from_slice(&i.to_le_bytes());
    }
    out.section(&payload)?;

    // One section per segment, in directory (key) order.
    for &(_, slot) in &entries {
        let seg = tree.segments[slot]
            .as_ref()
            .expect("directory entries name live arena slots");
        payload.clear();
        payload.extend_from_slice(&seg.start_key.to_le_bytes());
        payload.extend_from_slice(&seg.slope.to_bits().to_le_bytes());
        payload.extend_from_slice(&(seg.keys.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(seg.buffer.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(seg.dead_words().len() as u64).to_le_bytes());
        let (under, over) = seg.error_envelope();
        payload.extend_from_slice(&under.to_le_bytes());
        payload.extend_from_slice(&over.to_le_bytes());
        for &k in &seg.keys {
            payload.extend_from_slice(&k.to_le_bytes());
        }
        for &v in &seg.values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        for &w in seg.dead_words() {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        for &(k, v) in &seg.buffer {
            payload.extend_from_slice(&k.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
        }
        out.section(&payload)?;
    }
    (out.sink)(&out.buf)?;
    Ok(out.len)
}

/// Serializes `tree` into an owned snapshot image: [`encode_tree_into`]
/// with a `Vec` for its sink.
#[must_use]
pub fn encode_tree<K: Key, V: Key>(tree: &FitingTree<K, V>) -> Vec<u8> {
    let mut image = Vec::new();
    encode_tree_into(tree, |chunk| std::io::Write::write_all(&mut image, chunk))
        .expect("a Vec takes every write");
    image
}

/// Cursor over a byte slice with truncation-checked reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated(what))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a record count, refusing one whose `width`-byte records
    /// could not fit in the rest of the input — so no multiply by it
    /// can overflow.
    fn count(&mut self, width: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let (count, left) = (self.u64(what)?, self.bytes.len() - self.pos);
        match count.checked_mul(width as u64) {
            Some(n) if n <= left as u64 => Ok(count as usize),
            _ => Err(SnapshotError::Truncated(what)),
        }
    }

    /// Skips to the next `align` boundary, requiring the skipped
    /// padding to be all zeros — this makes *every* byte of a snapshot
    /// significant, so any single corrupted byte is detected (by a
    /// checksum, a consistency check, or this).
    fn align(&mut self, align: usize) -> Result<(), SnapshotError> {
        let rem = self.pos % align;
        if rem != 0 {
            let pad = self.take(align - rem, "alignment padding")?;
            if pad.iter().any(|&b| b != 0) {
                return Err(SnapshotError::Corrupt("nonzero alignment padding".into()));
            }
        }
        Ok(())
    }

    /// Reads one section header + payload, verifying its checksum.
    fn section(&mut self, index: usize) -> Result<&'a [u8], SnapshotError> {
        self.align(SNAPSHOT_ALIGN)?;
        let header = self.take(SECTION_HEADER_LEN, "section header")?;
        let len = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if header[12..16] != [0u8; 4] {
            return Err(SnapshotError::Corrupt("nonzero section reserve".into()));
        }
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated("section length"))?;
        let payload = self.take(len, "section payload")?;
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::ChecksumMismatch { section: index });
        }
        Ok(payload)
    }
}

fn read_key<K: Key>(r: &mut Reader<'_>, what: &'static str) -> Result<K, SnapshotError> {
    Ok(K::from_le_bytes(r.take(K::ENCODED_LEN, what)?))
}

/// Decodes a snapshot image back into a [`FitingTree`], verifying the
/// header checksum, every section checksum, and finally the tree's own
/// structural invariants.
///
/// # Errors
///
/// Any truncation, checksum mismatch, width disagreement with the
/// requested `K`/`V` types, unknown reserved byte, or structural
/// inconsistency returns a [`SnapshotError`] and builds nothing.
pub fn decode_tree<K: Key, V: Key>(bytes: &[u8]) -> Result<FitingTree<K, V>, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let header = r.take(HEADER_LEN, "header")?;
    if header[0..8] == *b"FITSNP01" {
        return Err(SnapshotError::UnsupportedVersion);
    }
    if header[0..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let stored_crc = u32::from_le_bytes(header[48..52].try_into().unwrap());
    if crc32(&header[0..48]) != stored_crc {
        return Err(SnapshotError::ChecksumMismatch { section: 0 });
    }
    if header[52..64].iter().any(|&b| b != 0) {
        return Err(SnapshotError::Corrupt("nonzero header reserve".into()));
    }
    let key_width = u16::from_le_bytes(header[8..10].try_into().unwrap()) as usize;
    if key_width != K::ENCODED_LEN {
        return Err(SnapshotError::KeyWidthMismatch {
            expected: K::ENCODED_LEN,
            found: key_width,
        });
    }
    let value_width = u16::from_le_bytes(header[10..12].try_into().unwrap()) as usize;
    if value_width != V::ENCODED_LEN {
        return Err(SnapshotError::ValueWidthMismatch {
            expected: V::ENCODED_LEN,
            found: value_width,
        });
    }
    if header[12] > MAX_RESERVED_BYTE {
        return Err(SnapshotError::BadStrategy(header[12]));
    }
    let error = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let buffer_size = u64::from_le_bytes(header[24..32].try_into().unwrap());
    let len = u64::from_le_bytes(header[32..40].try_into().unwrap());
    let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated("entry count"))?;
    let seg_count = u64::from_le_bytes(header[40..48].try_into().unwrap());
    // Each segment holds an anchor and a slot, so a count whose
    // directory could not fit in the input is refused before anything
    // multiplies it.
    let seg_count = match seg_count.checked_mul(K::ENCODED_LEN as u64 + 4) {
        Some(n) if n <= bytes.len() as u64 => seg_count as usize,
        _ => return Err(SnapshotError::Truncated("segment count")),
    };

    let mut tree =
        FitingTree::<K, V>::from_parts(error, buffer_size).map_err(SnapshotError::Config)?;

    // Directory sections.
    let anchors_payload = r.section(1)?;
    if anchors_payload.len() != seg_count * K::ENCODED_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "anchor section holds {} bytes for {seg_count} segments",
            anchors_payload.len()
        )));
    }
    let anchors: Vec<K> = anchors_payload
        .chunks_exact(K::ENCODED_LEN)
        .map(K::from_le_bytes)
        .collect();
    if !anchors.windows(2).all(|w| w[0] < w[1]) {
        return Err(SnapshotError::Corrupt(
            "directory anchors not strictly increasing".into(),
        ));
    }
    let slots_payload = r.section(2)?;
    if slots_payload.len() != seg_count * 4 {
        return Err(SnapshotError::Corrupt(format!(
            "slot section holds {} bytes for {seg_count} segments",
            slots_payload.len()
        )));
    }
    for (i, chunk) in slots_payload.chunks_exact(4).enumerate() {
        let slot = u32::from_le_bytes(chunk.try_into().unwrap());
        // Snapshots store compacted slots; anything else is foreign.
        if slot as usize != i {
            return Err(SnapshotError::Corrupt(format!(
                "slot {i} stored as {slot}; snapshots are compacted"
            )));
        }
    }

    // Segment sections, in directory order → compacted arena order.
    let mut segments: Vec<Option<Segment<K, V>>> = Vec::with_capacity(anchors.len());
    let mut live = 0;
    for (i, &anchor) in anchors.iter().enumerate() {
        let payload = r.section(3 + i)?;
        let mut s = Reader {
            bytes: payload,
            pos: 0,
        };
        let start_key: K = read_key(&mut s, "segment start key")?;
        if start_key != anchor {
            return Err(SnapshotError::Corrupt(format!(
                "segment {i} start key disagrees with its directory anchor"
            )));
        }
        let slope = f64::from_bits(s.u64("segment slope")?);
        let pair_width = K::ENCODED_LEN + V::ENCODED_LEN;
        let page_len = s.count(pair_width, "page length")?;
        let buf_len = s.count(pair_width, "buffer length")?;
        let dead_words = s.count(8, "bitmap length")?;
        if dead_words != 0 && dead_words != page_len.div_ceil(64) {
            return Err(SnapshotError::Corrupt(format!(
                "segment {i}: {dead_words} bitmap words for a {page_len}-slot page"
            )));
        }
        let under = u32::from_le_bytes(s.take(4, "error envelope")?.try_into().unwrap());
        let over = u32::from_le_bytes(s.take(4, "error envelope")?.try_into().unwrap());
        let keys: Vec<K> = s
            .take(page_len * K::ENCODED_LEN, "page keys")?
            .chunks_exact(K::ENCODED_LEN)
            .map(K::from_le_bytes)
            .collect();
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(format!("segment {i} page unsorted")));
        }
        let values: Vec<V> = s
            .take(page_len * V::ENCODED_LEN, "page values")?
            .chunks_exact(V::ENCODED_LEN)
            .map(V::from_le_bytes)
            .collect();
        let dead: Vec<u64> = s
            .take(dead_words * 8, "tombstone bitmap")?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if page_len % 64 != 0 && dead.last().is_some_and(|&w| w >> (page_len % 64) != 0) {
            return Err(SnapshotError::Corrupt(format!(
                "segment {i} tombstones slots past its page"
            )));
        }
        let buffer: Vec<(K, V)> = s
            .take(buf_len * pair_width, "insert buffer")?
            .chunks_exact(pair_width)
            .map(|c| {
                (
                    K::from_le_bytes(&c[..K::ENCODED_LEN]),
                    V::from_le_bytes(&c[K::ENCODED_LEN..]),
                )
            })
            .collect();
        if !buffer.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(SnapshotError::Corrupt(format!(
                "segment {i} buffer unsorted"
            )));
        }
        if s.pos != payload.len() {
            return Err(SnapshotError::Corrupt(format!(
                "segment {i} section has {} trailing bytes",
                payload.len() - s.pos
            )));
        }
        let segment =
            Segment::from_raw_parts(start_key, slope, keys, values, dead, buffer, (under, over));
        live += segment.len();
        segments.push(Some(segment));
    }
    if live != len {
        return Err(SnapshotError::Corrupt(format!(
            "segments hold {live} live entries; the header counts {len}"
        )));
    }

    r.align(SNAPSHOT_ALIGN)?;
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last section",
            bytes.len() - r.pos
        )));
    }

    tree.segments = segments;
    tree.free = Vec::new();
    tree.len = len;
    tree.dir
        .rebuild(anchors.into_iter().enumerate().map(|(i, a)| (a, i as u32)));
    // The exhaustive per-key invariant sweep (windowed-lookup proof for
    // every page entry) is an O(n) pass the restart path should not
    // pay for data the checksums already cover; it runs in debug
    // builds, where the round-trip and crash-injection suites live.
    if cfg!(debug_assertions) {
        tree.check_invariants().map_err(SnapshotError::Corrupt)?;
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FitingTreeBuilder;
    use std::convert::Infallible;

    fn sample_tree(n: u64) -> FitingTree<u64, u64> {
        let mut t = FitingTreeBuilder::new(64)
            .buffer_size(8)
            .bulk_load((0..n).map(|k| (k * 3, k)))
            .unwrap();
        // Dirty it: buffered inserts and tombstones in several segments.
        for k in 0..n / 7 {
            t.insert(k * 21 + 1, k);
        }
        for k in 0..n / 11 {
            t.remove(&(k * 33));
        }
        t
    }

    /// The whole-image encoder this module shipped before encoding
    /// streamed, kept verbatim as the byte-for-byte reference.
    fn whole_image<K: Key, V: Key>(tree: &FitingTree<K, V>) -> Vec<u8> {
        let entries: Vec<(K, usize)> = tree.dir.entries().collect();
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&(K::ENCODED_LEN as u16).to_le_bytes());
        out.extend_from_slice(&(V::ENCODED_LEN as u16).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&tree.error.to_le_bytes());
        out.extend_from_slice(&tree.buffer_size.to_le_bytes());
        out.extend_from_slice(&(tree.len as u64).to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        pad_to(&mut out);
        let mut anchors = Vec::new();
        for &(anchor, _) in &entries {
            anchors.extend_from_slice(&anchor.to_le_bytes());
        }
        push_section(&mut out, &anchors);
        let mut slots = Vec::new();
        for i in 0..entries.len() as u32 {
            slots.extend_from_slice(&i.to_le_bytes());
        }
        push_section(&mut out, &slots);
        let mut payload = Vec::new();
        for &(_, slot) in &entries {
            let seg = tree.segments[slot].as_ref().unwrap();
            payload.clear();
            payload.extend_from_slice(&seg.start_key.to_le_bytes());
            payload.extend_from_slice(&seg.slope.to_bits().to_le_bytes());
            payload.extend_from_slice(&(seg.keys.len() as u64).to_le_bytes());
            payload.extend_from_slice(&(seg.buffer.len() as u64).to_le_bytes());
            payload.extend_from_slice(&(seg.dead_words().len() as u64).to_le_bytes());
            let (under, over) = seg.error_envelope();
            payload.extend_from_slice(&under.to_le_bytes());
            payload.extend_from_slice(&over.to_le_bytes());
            for &k in &seg.keys {
                payload.extend_from_slice(&k.to_le_bytes());
            }
            for &v in &seg.values {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            for &w in seg.dead_words() {
                payload.extend_from_slice(&w.to_le_bytes());
            }
            for &(k, v) in &seg.buffer {
                payload.extend_from_slice(&k.to_le_bytes());
                payload.extend_from_slice(&v.to_le_bytes());
            }
            push_section(&mut out, &payload);
        }
        out
    }

    fn pad_to(out: &mut Vec<u8>) {
        out.resize(out.len().next_multiple_of(SNAPSHOT_ALIGN), 0);
    }

    /// Appends one `len | crc | payload` section, 64-byte aligned.
    fn push_section(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(payload);
        pad_to(out);
    }

    /// The chunks `encode_tree_into` hands its sink.
    fn chunks(tree: &FitingTree<u64, u64>) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        let len = encode_tree_into(tree, |chunk| {
            chunks.push(chunk.to_vec());
            Ok::<(), Infallible>(())
        });
        assert_eq!(len, Ok(chunks.iter().map(Vec::len).sum()));
        chunks
    }

    #[test]
    fn streamed_image_equals_the_whole_image_encoding() {
        let mut dirty = sample_tree(5000);
        let top = *dirty.last().unwrap().0;
        for k in 1..=300u64 {
            dirty.insert(top + k * 3, k); // tail appends
        }
        let empty: FitingTree<u64, u64> = FitingTreeBuilder::new(32).build_empty().unwrap();
        // Many small sections, then one linear page whose section
        // outgrows the buffer.
        let keys = (0..20_000u64)
            .map(|k| k * k / 32 + k)
            .chain((0..40_000).map(|k| 20_000 * 20_000 + k * 3));
        let large = FitingTreeBuilder::new(64)
            .bulk_load(keys.map(|k| (k, k ^ 0x5A5A)))
            .unwrap();
        assert!(large.segment_count() > 10);
        let widest = large.segments.iter().flatten().map(|s| s.keys.len());
        assert!(widest.max().unwrap() * 16 > SNAPSHOT_CHUNK);

        for (name, tree) in [("dirty", &dirty), ("empty", &empty), ("large", &large)] {
            let chunks = chunks(tree);
            assert_eq!(chunks.concat(), whole_image(tree), "{name}");
            assert_eq!(encode_tree(tree), whole_image(tree), "{name}");
        }
        // Several full buffers, and the one page too long for a buffer
        // in a piece of its own.
        let chunks = chunks(&large);
        let oversized = chunks.iter().filter(|c| c.len() > SNAPSHOT_CHUNK).count();
        assert!(
            chunks.len() >= 4 && oversized == 1,
            "{} chunks",
            chunks.len()
        );
    }

    #[test]
    fn a_failing_sink_stops_the_stream() {
        let tree = sample_tree(40_000);
        let mut calls = 0;
        let got = encode_tree_into(&tree, |_| {
            calls += 1;
            if calls == 3 {
                Err("disk full")
            } else {
                Ok(())
            }
        });
        assert_eq!((got, calls), (Err("disk full"), 3));
    }

    /// A one-segment image with `seg_count` in its header and `payload`
    /// as the segment's section, every checksum valid.
    fn crafted(seg_count: u64, len: u64, anchors: &[u64], payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&8u16.to_le_bytes());
        out.extend_from_slice(&8u16.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&64u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&seg_count.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        pad_to(&mut out);
        let a: Vec<u8> = anchors.iter().flat_map(|a| a.to_le_bytes()).collect();
        push_section(&mut out, &a);
        let slots: Vec<u8> = (0..anchors.len() as u32)
            .flat_map(u32::to_le_bytes)
            .collect();
        push_section(&mut out, &slots);
        push_section(&mut out, payload);
        out
    }

    /// A segment section anchored at 0: `page_len`, `buf_len` and
    /// `dead_words` as given, followed by `tail`.
    fn segment(page_len: u64, buf_len: u64, dead_words: u64, tail: &[u64]) -> Vec<u8> {
        [0, 0f64.to_bits(), page_len, buf_len, dead_words]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .chain([0u8; 8]) // under, over
            .chain(tail.iter().flat_map(|w| w.to_le_bytes()))
            .collect()
    }

    #[test]
    fn hostile_counts_get_typed_errors_not_panics() {
        let decode = |image: &[u8]| decode_tree::<u64, u64>(image).unwrap_err();
        // seg_count × 8 and × 4 wrap to the 3 anchors and slots present.
        let seg_count = (1u64 << 62) + 3;
        assert_eq!(
            decode(&crafted(seg_count, 0, &[1, 2, 3], &[])),
            SnapshotError::Truncated("segment count")
        );
        // page_len × 8 wraps to one key's (and one value's) width.
        let page = segment((1 << 61) + 1, 0, 0, &[0, 0]);
        assert_eq!(
            decode(&crafted(1, 1, &[0], &page)),
            SnapshotError::Truncated("page length")
        );
        // buf_len × 16 wraps to one pair's width.
        let buffer = segment(0, (1 << 60) + 1, 0, &[0, 0]);
        assert_eq!(
            decode(&crafted(1, 1, &[0], &buffer)),
            SnapshotError::Truncated("buffer length")
        );
        // dead_words × 8 wraps to one word's width; a bitmap that
        // tombstones slots past the page.
        let words = segment(1, 0, (1 << 61) + 1, &[0, 0, 0]);
        assert_eq!(
            decode(&crafted(1, 1, &[0], &words)),
            SnapshotError::Truncated("bitmap length")
        );
        let past = segment(1, 0, 1, &[0, 0, 0b10]);
        assert!(matches!(
            decode(&crafted(1, 1, &[0], &past)),
            SnapshotError::Corrupt(_)
        ));
        // The page holds one live entry; a header claiming two is
        // refused in release builds too.
        let one = segment(1, 0, 0, &[0, 0]);
        assert_eq!(
            decode_tree::<u64, u64>(&crafted(1, 1, &[0], &one))
                .unwrap()
                .len(),
            1
        );
        assert!(matches!(
            decode(&crafted(1, 2, &[0], &one)),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_round_trips_dirty_tree() {
        let tree = sample_tree(5000);
        let expect: Vec<(u64, u64)> = tree.range(..).map(|(k, v)| (*k, *v)).collect();
        let bytes = encode_tree(&tree);
        assert_eq!(bytes.len() % SNAPSHOT_ALIGN, 0);
        let back: FitingTree<u64, u64> = decode_tree(&bytes).unwrap();
        assert_eq!(back.len(), tree.len());
        assert_eq!(back.error(), tree.error());
        assert_eq!(back.buffer_size(), tree.buffer_size());
        assert_eq!(back.segment_count(), tree.segment_count());
        let got: Vec<(u64, u64)> = back.range(..).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, expect);
        back.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_round_trips_a_tail_page_grown_in_place() {
        let mut tree = FitingTreeBuilder::new(64)
            .bulk_load((0..3_000u64).map(|k| (k * k / 32 + k, k)))
            .unwrap();
        let top = *tree.last().unwrap().0;
        // Appends bend the tail model within its budget, so the
        // persisted envelope is one only appends could have produced.
        for k in 1..=2_000u64 {
            tree.insert(top + k * 180 + k % 7, k);
        }
        let tail = *tree.last().unwrap().0;
        assert_eq!(tree.remove(&tail), Some(2_000)); // tombstoned tail slot
        let stats = tree.stats();
        assert!(stats.in_place_appends > 1_000, "{stats:?}");
        let expect: Vec<(u64, u64)> = tree.range(..).map(|(k, v)| (*k, *v)).collect();

        let mut back: FitingTree<u64, u64> = decode_tree(&encode_tree(&tree)).unwrap();
        assert_eq!(back.segment_count(), tree.segment_count());
        let got: Vec<(u64, u64)> = back.range(..).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, expect);
        // The decoded tail keeps growing in place, tombstone included.
        assert_eq!(back.insert(tail, 1), None);
        assert_eq!(back.insert(tail + 180, 2), None);
        assert_eq!(back.stats().in_place_appends, 1);
        back.check_invariants().unwrap();
    }

    #[test]
    fn decode_refuses_the_previous_format() {
        // FITSNP01 envelopes were measured against a page-clamped
        // prediction; an otherwise valid image must not be trusted.
        let mut old = encode_tree(&sample_tree(500));
        old[..8].copy_from_slice(b"FITSNP01");
        let crc = crc32(&old[0..48]);
        old[48..52].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_tree::<u64, u64>(&old).unwrap_err(),
            SnapshotError::UnsupportedVersion
        );
    }

    #[test]
    fn reserved_byte_accepts_the_old_strategy_values_and_nothing_else() {
        let good = encode_tree(&sample_tree(2000));
        assert_eq!(good[12], 0);
        let with_byte = |b: u8| {
            let mut image = good.clone();
            image[12] = b;
            let crc = crc32(&image[0..48]);
            image[48..52].copy_from_slice(&crc.to_le_bytes());
            decode_tree::<u64, u64>(&image)
        };
        for b in 0..=3u8 {
            // Same tree, so it re-encodes to the image byte 12 = 0 gave.
            assert_eq!(encode_tree(&with_byte(b).unwrap()), good, "byte {b}");
        }
        for b in [4u8, 255] {
            assert_eq!(with_byte(b).unwrap_err(), SnapshotError::BadStrategy(b));
        }
    }

    #[test]
    fn snapshot_round_trips_empty_tree() {
        let tree: FitingTree<u64, u64> = FitingTreeBuilder::new(32).build_empty().unwrap();
        let bytes = encode_tree(&tree);
        let back: FitingTree<u64, u64> = decode_tree(&bytes).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.segment_count(), 0);
    }

    #[test]
    fn decode_rejects_corruption_everywhere() {
        let tree = sample_tree(2000);
        let good = encode_tree(&tree);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_tree::<u64, u64>(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // Truncations at every block boundary and a few interiors.
        for cut in [0, 8, HEADER_LEN - 1, HEADER_LEN, good.len() - 1] {
            assert!(decode_tree::<u64, u64>(&good[..cut]).is_err(), "cut={cut}");
        }
        // A flipped byte anywhere past the magic must be caught by a
        // checksum (or a downstream consistency check) — sample evenly.
        for i in (8..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            assert!(decode_tree::<u64, u64>(&bad).is_err(), "flip at {i}");
        }
        // Wrong decode type: u32 values against a u64-valued snapshot.
        assert!(matches!(
            decode_tree::<u64, u32>(&good),
            Err(SnapshotError::ValueWidthMismatch { .. })
        ));
    }
}
