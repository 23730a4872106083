//! On-disk snapshot codec for the clustered FITing-Tree.
//!
//! A snapshot is serialized exactly as the tree lives in memory: a
//! page table with one row per segment (paper Section 3's variable-sized
//! pages, each with its fitted slope), the key column and the value
//! column those pages are windows of, and one sparse section holding
//! the pages' tombstone bitmaps and insert buffers. Every record is
//! fixed-width little-endian (via the [`Key`] byte codecs) and every
//! section starts on a 64-byte boundary, so the layout is mmap-ready;
//! the reader shipped here is a plain std-only byte-slice decoder.
//!
//! # Layout
//!
//! ```text
//! header (one 64-byte block)
//!   0..8    magic "FITSNP03"
//!   8..10   key width in bytes   (u16, = K::ENCODED_LEN)
//!   10..12  value width in bytes (u16, = V::ENCODED_LEN)
//!   12..16  zero
//!   16..24  error budget         (u64)
//!   24..32  buffer size          (u64)
//!   32..40  entry count          (u64)
//!   40..48  segment count        (u64)
//!   48..52  CRC32 of bytes 0..48
//!   52..64  zero
//! section (starts 64-byte aligned; four of them, in the order below)
//!   0..8    payload length       (u64)
//!   8..     payload
//!           CRC32 of the payload (u32), then zeros to the next
//!           64-byte boundary
//! ```
//!
//! 1. The page table: one 40-byte row per segment, in key order —
//!    `page_len u64 | slope (f64 bits) | under u32 | over u32
//!    | buf_len u64 | dead_words u64`.
//! 2. The key column: every page's keys, page after page (Σ `page_len`
//!    keys).
//! 3. The value column, parallel to the key column.
//! 4. The sparse section: for each row in order, its `dead_words`
//!    tombstone bitmap words (u64), then its `buf_len` buffered pairs
//!    (key ∥ value).
//!
//! No start key is stored: every page is anchored at its first key. The
//! checksum trails its payload, so the encoder streams each column
//! [`SNAPSHOT_CHUNK`] bytes at a time and never holds one whole.
//!
//! The decoder checks the page table against the input's length before
//! it allocates anything, then checksums and converts each column in
//! one pass into one array advised onto huge pages — the two columns on
//! two threads when the pairs fill more than one bulk-load step — and
//! builds the tree through bulk load's own path, so its pages are
//! windows of those two arrays.
//! It re-derives what is cheap to re-derive (the tombstone counts, the
//! directory) and trusts the checksummed copy of what is not (the
//! measured error envelope `under`/`over` — an O(n) float pass the
//! restart path should not pay). Structural validation — sortedness,
//! buffer bounds, counts, exact section lengths — always runs; debug
//! builds also re-measure every envelope and run the tree's exhaustive
//! per-key invariant check, where the crash and round-trip suites live.

use crate::clustered::{paginate, FitingTree, STEP};
use crate::cut::PageCut;
use crate::error::BuildError;
use crate::segment::{advised, measure_envelope, Column, Run};
use fiting_index_api::Key;
use std::thread;

/// First eight bytes of every snapshot. Version `03`: a page table and
/// two columns. `01` and `02` images are refused.
const SNAPSHOT_MAGIC: [u8; 8] = *b"FITSNP03";

/// Alignment of the header and of every section start.
const SNAPSHOT_ALIGN: usize = 64;

const HEADER_LEN: usize = 64;

/// Bytes of one page-table row.
const ROW_LEN: usize = 40;

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

/// Folds `bytes` into the CRC32 register `c` (kept inverted: a fresh
/// register is `u32::MAX`, and the checksum is its complement).
/// Slicing-by-8: eight bytes per step through eight derived tables.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
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
    c
}

/// CRC32 (IEEE) of `bytes` — the checksum both the snapshot sections
/// and the `fiting-storage` WAL records carry.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
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
    /// A `FITSNP01` or `FITSNP02` image: an older format this build no
    /// longer reads; rebuild the index from its source instead.
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
    /// The stored configuration is itself invalid (e.g. buffer size
    /// consuming the whole error budget).
    Config(BuildError),
    /// The sections decoded but describe an inconsistent tree (counts
    /// disagree, unsorted keys, …).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            SnapshotError::BadMagic => f.write_str("not a FITing-Tree snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion => {
                f.write_str("FITSNP01/FITSNP02 snapshot: format no longer readable")
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
            SnapshotError::Config(e) => write!(f, "stored configuration invalid: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot inconsistent: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Bytes the encoder gathers before handing them to its sink: every
/// piece but the last is exactly this long.
pub const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// A buffer of [`SNAPSHOT_CHUNK`] bytes in front of a sink; `len`
/// counts every byte put, and `crc` is the register of the section
/// being put.
struct Out<F> {
    buf: Vec<u8>,
    sink: F,
    len: usize,
    crc: u32,
}

impl<E, F: FnMut(&[u8]) -> Result<(), E>> Out<F> {
    fn put(&mut self, mut bytes: &[u8]) -> Result<(), E> {
        self.len += bytes.len();
        self.crc = crc32_update(self.crc, bytes);
        while !bytes.is_empty() {
            let room = SNAPSHOT_CHUNK - self.buf.len();
            let (now, rest) = bytes.split_at(room.min(bytes.len()));
            self.buf.extend_from_slice(now);
            bytes = rest;
            if self.buf.len() == SNAPSHOT_CHUNK {
                (self.sink)(&self.buf)?;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Puts the encodings of `items` a 4 KiB block at a time, so the
    /// checksum and the copy run once a block, not once a record.
    fn records<T: Key>(&mut self, items: &[T]) -> Result<(), E> {
        let mut block = [0u8; 4096];
        for batch in items.chunks(block.len() / T::ENCODED_LEN) {
            let mut at = 0;
            for item in batch {
                block[at..at + T::ENCODED_LEN].copy_from_slice(&item.to_le_bytes());
                at += T::ENCODED_LEN;
            }
            self.put(&block[..at])?;
        }
        Ok(())
    }

    /// Puts one `len | payload | crc` section, zero-padded to the next
    /// 64-byte boundary; `payload` puts exactly `len` bytes.
    fn section(
        &mut self,
        len: usize,
        payload: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.put(&(len as u64).to_le_bytes())?;
        self.crc = u32::MAX;
        payload(self)?;
        self.put(&(!self.crc).to_le_bytes())?;
        self.put(&[0u8; SNAPSHOT_ALIGN][..self.len.next_multiple_of(SNAPSHOT_ALIGN) - self.len])
    }
}

/// Streams `tree`'s snapshot image (see the module docs for the
/// layout) into `sink` through a buffer of [`SNAPSHOT_CHUNK`] bytes:
/// no part of the image is ever in memory whole. Returns the image's
/// length.
///
/// # Errors
///
/// The first error `sink` returns; nothing is written after it.
pub fn encode_tree_into<K: Key, V: Key, E>(
    tree: &FitingTree<K, V>,
    sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<usize, E> {
    let pages = &tree.segments;
    let slots: usize = pages.iter().map(|seg| seg.keys().len()).sum();
    let pair = K::ENCODED_LEN + V::ENCODED_LEN;
    let sparse: usize = pages
        .iter()
        .map(|seg| seg.dead_words().len() * 8 + seg.buffer.len() * pair)
        .sum();
    // Bytes 8..16 as one word: the key width, the value width, zeros.
    let widths = K::ENCODED_LEN as u64 | (V::ENCODED_LEN as u64) << 16;
    let fields = [
        widths,
        tree.error,
        tree.buffer_size,
        tree.len as u64,
        pages.len() as u64,
    ];
    let mut header = SNAPSHOT_MAGIC.to_vec();
    header.extend(fields.iter().flat_map(|field| field.to_le_bytes()));
    header.extend_from_slice(&crc32(&header).to_le_bytes());
    header.resize(HEADER_LEN, 0);
    let mut out = Out {
        buf: Vec::with_capacity(SNAPSHOT_CHUNK),
        sink,
        len: 0,
        crc: u32::MAX,
    };
    out.put(&header)?;
    out.section(pages.len() * ROW_LEN, |out| {
        pages.iter().try_for_each(|seg| {
            let (under, over) = seg.error_envelope();
            out.records(&[
                seg.keys().len() as u64,
                seg.slope.to_bits(),
                u64::from(under) | u64::from(over) << 32,
                seg.buffer.len() as u64,
                seg.dead_words().len() as u64,
            ])
        })
    })?;
    out.section(slots * K::ENCODED_LEN, |out| {
        pages.iter().try_for_each(|seg| out.records(seg.keys()))
    })?;
    out.section(slots * V::ENCODED_LEN, |out| {
        pages.iter().try_for_each(|seg| out.records(seg.values()))
    })?;
    out.section(sparse, |out| {
        pages.iter().try_for_each(|seg| {
            out.records(seg.dead_words())?;
            seg.buffer.iter().try_for_each(|&(key, value)| {
                out.put(&key.to_le_bytes())?;
                out.put(&value.to_le_bytes())
            })
        })
    })?;
    if !out.buf.is_empty() {
        (out.sink)(&out.buf)?;
    }
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

/// A section's payload and its stored CRC32, not yet checked.
type Section<'a> = (&'a [u8], u32);

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

    /// Reads section `index`, which must hold `expected` payload bytes.
    fn section(&mut self, index: usize, expected: usize) -> Result<Section<'a>, SnapshotError> {
        self.align(SNAPSHOT_ALIGN)?;
        let [len] = words(self.take(8, "section length")?);
        if len != expected as u64 {
            let why = format!("section {index} holds {len} bytes, not {expected}");
            return Err(SnapshotError::Corrupt(why));
        }
        let payload = self.take(expected, "section payload")?;
        let crc = self.take(4, "section checksum")?;
        Ok((payload, u32::from_le_bytes(crc.try_into().unwrap())))
    }
}

/// The first `N` little-endian `u64` words of `bytes`.
fn words<const N: usize>(bytes: &[u8]) -> [u64; N] {
    std::array::from_fn(|i| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap()))
}

/// Section `index`'s payload, once its checksum holds.
fn checked(index: usize, (payload, crc): Section<'_>) -> Result<&[u8], SnapshotError> {
    if crc32(payload) == crc {
        Ok(payload)
    } else {
        Err(SnapshotError::ChecksumMismatch { section: index })
    }
}

/// Decodes column section `index` in one pass, [`SNAPSHOT_CHUNK`]
/// bytes at a time: each piece is checksummed and converted into one
/// array advised onto huge pages. A record that projects to NaN is
/// refused — no writer produces those bits (`OrderedF64::new` refuses
/// NaN), and the total order would file one past `+∞`, where no
/// sortedness check notices it — and so, when `sorted`, is one that
/// does not sort above the record before it. A checksum mismatch
/// outranks both.
fn column<T: Key>(
    index: usize,
    (payload, crc): Section<'_>,
    sorted: bool,
) -> Result<Vec<T>, SnapshotError> {
    let width = T::ENCODED_LEN;
    let mut items: Vec<T> = advised(payload.len() / width);
    let (mut register, mut flaw) = (u32::MAX, None);
    for piece in payload.chunks(SNAPSHOT_CHUNK / width * width) {
        register = crc32_update(register, piece);
        let from = items.len();
        items.extend(piece.chunks_exact(width).map(T::from_le_bytes));
        let fresh = &items[from.saturating_sub(1)..];
        if fresh.iter().any(|item| item.to_f64().is_nan()) {
            flaw.get_or_insert("holds a NaN");
        } else if sorted && !fresh.windows(2).all(|w| w[0] < w[1]) {
            flaw.get_or_insert("is not strictly increasing");
        }
    }
    if !register != crc {
        return Err(SnapshotError::ChecksumMismatch { section: index });
    }
    match flaw {
        Some(why) => Err(SnapshotError::Corrupt(format!("section {index} {why}"))),
        None => Ok(items),
    }
}

/// Decodes the key column and the value column: on a helper thread and
/// the calling thread when `helper`, else both on the calling thread. A
/// helper that cannot be spawned leaves its column to the calling
/// thread.
fn columns<K: Key, V: Key>(
    keys: Section<'_>,
    values: Section<'_>,
    helper: bool,
) -> Result<Run<K, V>, SnapshotError> {
    let keys = || column::<K>(2, keys, true);
    thread::scope(|scope| {
        let spawned = helper.then(|| thread::Builder::new().spawn_scoped(scope, keys).ok());
        let values = column::<V>(3, values, false);
        let keys = match spawned.flatten() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            None => keys(),
        };
        Ok((keys?, values?))
    })
}

/// Decodes a snapshot image back into a [`FitingTree`] whose pages are
/// windows of one key column and one value column, as a bulk load's
/// are. The header checksum, every section checksum and the tree's
/// structure are verified first.
///
/// # Errors
///
/// Any truncation, checksum mismatch, width disagreement with the
/// requested `K`/`V` types, older format, or structural inconsistency
/// returns a [`SnapshotError`] and builds nothing.
pub fn decode_tree<K: Key, V: Key>(bytes: &[u8]) -> Result<FitingTree<K, V>, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let header = r.take(HEADER_LEN, "header")?;
    if header[0..8] == *b"FITSNP01" || header[0..8] == *b"FITSNP02" {
        return Err(SnapshotError::UnsupportedVersion);
    }
    if header[0..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if crc32(&header[0..48]) != u32::from_le_bytes(header[48..52].try_into().unwrap()) {
        return Err(SnapshotError::ChecksumMismatch { section: 0 });
    }
    let [widths, error, buffer_size, len, seg_count] = words(&header[8..48]);
    if widths >> 32 != 0 || header[52..64].iter().any(|&b| b != 0) {
        return Err(SnapshotError::Corrupt("nonzero header reserve".into()));
    }
    let (expected, found) = (K::ENCODED_LEN, widths as usize & 0xFFFF);
    if found != expected {
        return Err(SnapshotError::KeyWidthMismatch { expected, found });
    }
    let (expected, found) = (V::ENCODED_LEN, widths as usize >> 16);
    if found != expected {
        return Err(SnapshotError::ValueWidthMismatch { expected, found });
    }
    let tree = FitingTree::<K, V>::from_parts(error, buffer_size).map_err(SnapshotError::Config)?;

    // The page table. Every count is checked against the input's length
    // before anything multiplies by it or allocates for it.
    let fits = |n: &u64| *n <= bytes.len() as u64;
    let table = seg_count
        .checked_mul(ROW_LEN as u64)
        .filter(fits)
        .ok_or(SnapshotError::Truncated("segment count"))?;
    let table = checked(1, r.section(1, table as usize)?)?;
    let pair = (K::ENCODED_LEN + V::ENCODED_LEN) as u64;
    let (mut slots, mut sparse) = (0u64, 0u64);
    let (mut cuts, mut shapes) = (Vec::new(), Vec::new());
    for (i, row) in table.chunks_exact(ROW_LEN).enumerate() {
        let [page_len, slope, envelope, buffered, bits] = words(row);
        let envelope = (envelope as u32, (envelope >> 32) as u32);
        let end = slots
            .checked_add(page_len)
            .filter(|end| end.checked_mul(pair).is_some_and(|n| fits(&n)))
            .ok_or(SnapshotError::Truncated("page length"))?;
        // An envelope past the search window's `seg_error + 1` budget
        // would leave a live slot outside its own window.
        let why = if page_len == 0 {
            "is empty"
        } else if bits != 0 && bits != page_len.div_ceil(64) {
            "has a bitmap of the wrong length"
        } else if buffered > buffer_size.saturating_add(1) {
            "buffers more than the buffer holds"
        } else if u64::from(envelope.0.max(envelope.1)) > tree.seg_error.saturating_add(1) {
            "has an error envelope wider than the budget"
        } else {
            ""
        };
        if !why.is_empty() {
            return Err(SnapshotError::Corrupt(format!("page {i} {why}")));
        }
        sparse = buffered
            .checked_mul(pair)
            .and_then(|n| n.checked_add(bits * 8)?.checked_add(sparse))
            .filter(fits)
            .ok_or(SnapshotError::Truncated("buffer length"))?;
        cuts.push(PageCut {
            slots: slots as usize..end as usize,
            slope: f64::from_bits(slope),
            envelope,
        });
        shapes.push((bits as usize, buffered as usize));
        slots = end;
    }
    let slots = slots as usize;
    let keys = r.section(2, slots * K::ENCODED_LEN)?;
    let values = r.section(3, slots * V::ENCODED_LEN)?;
    let mut sparse = checked(4, r.section(4, sparse as usize)?)?;
    r.align(SNAPSHOT_ALIGN)?;
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupt("bytes past the last section".into()));
    }
    let (keys, values) = columns::<K, V>(keys, values, slots * size_of::<(K, V)>() > STEP)?;

    // The sparse section, row by row; a buffered key must fall in its
    // page's key range (the first page's buffer may also hold keys
    // below its anchor) and must not repeat a page key.
    let mut parts = Vec::with_capacity(cuts.len());
    let mut live = 0;
    for (i, (cut, &(bits, buffered))) in cuts.iter().zip(&shapes).enumerate() {
        let page = &keys[cut.slots.clone()];
        let (bitmap, rest) = sparse.split_at(bits * 8);
        let (pairs, rest) = rest.split_at(buffered * pair as usize);
        sparse = rest;
        let dead: Vec<u64> = bitmap.chunks_exact(8).map(|w| words::<1>(w)[0]).collect();
        let buffer: Vec<(K, V)> = pairs
            .chunks_exact(pair as usize)
            .map(|c| c.split_at(K::ENCODED_LEN))
            .map(|(k, v)| (K::from_le_bytes(k), V::from_le_bytes(v)))
            .collect();
        let next = keys.get(cut.slots.end);
        let stray = |&(k, v): &(K, V)| {
            k.to_f64().is_nan()
                || v.to_f64().is_nan()
                || (i > 0 && k < page[0])
                || next.is_some_and(|&next| k >= next)
                || page.binary_search(&k).is_ok()
        };
        let tail = page.len() % 64;
        // Debug builds re-measure the envelope; release builds trust it.
        let why = if tail != 0 && dead.last().is_some_and(|&w| w >> tail != 0) {
            "tombstones slots past its end"
        } else if !buffer.windows(2).all(|w| w[0].0 < w[1].0) {
            "has an unsorted buffer"
        } else if buffer.iter().any(stray) {
            "buffers a NaN or a key outside its range"
        } else if cfg!(debug_assertions)
            && measure_envelope(page, page[0].to_f64(), cut.slope) != cut.envelope
        {
            "has a stored error envelope its keys disagree with"
        } else {
            ""
        };
        if !why.is_empty() {
            return Err(SnapshotError::Corrupt(format!("page {i} {why}")));
        }
        let removed: usize = dead.iter().map(|w| w.count_ones() as usize).sum();
        live += page.len() - removed + buffer.len();
        parts.push((dead, buffer));
    }
    if live as u64 != len {
        let why = format!("pages hold {live} live entries; the header counts {len}");
        return Err(SnapshotError::Corrupt(why));
    }

    let pages = paginate(&Column::shared((keys, values)), cuts.into_iter())
        .zip(parts)
        .map(|(seg, (dead, buffer))| seg.with_sparse(dead, buffer));
    let tree = tree.load(pages);
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
    use fiting_index_api::OrderedF64;
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

    /// A bulk-loaded tree past the two-thread decode threshold, dirtied.
    fn above_threshold() -> FitingTree<u64, u64> {
        let n = (STEP / 16) as u64 + 1_000;
        let mut tree = FitingTreeBuilder::new(64)
            .buffer_size(8)
            .bulk_load((0..n).map(|k| (k * 5 + k % 3, k)))
            .unwrap();
        for k in 0..2_000 {
            tree.insert(k * 211 + 1, k);
            tree.remove(&(k * 173 * 5));
        }
        tree
    }

    fn pad_to(out: &mut Vec<u8>) {
        out.resize(out.len().next_multiple_of(SNAPSHOT_ALIGN), 0);
    }

    /// Appends one `len | payload | crc` section, 64-byte aligned.
    fn push_section(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        pad_to(out);
    }

    /// A header of the given widths and `[error, buffer size, entry
    /// count, segment count]`, its checksum valid.
    fn header(key_width: u16, value_width: u16, counts: [u64; 4]) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&key_width.to_le_bytes());
        out.extend_from_slice(&value_width.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        counts
            .iter()
            .for_each(|c| out.extend_from_slice(&c.to_le_bytes()));
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        pad_to(&mut out);
        out
    }

    /// The image, each section gathered whole first: the byte-for-byte
    /// reference for the streaming encoder.
    fn whole_image<K: Key, V: Key>(tree: &FitingTree<K, V>) -> Vec<u8> {
        let pages = &tree.segments;
        let counts = [
            tree.error,
            tree.buffer_size,
            tree.len as u64,
            pages.len() as u64,
        ];
        let mut out = header(K::ENCODED_LEN as u16, V::ENCODED_LEN as u16, counts);
        let (mut table, mut keys, mut values, mut sparse) = (vec![], vec![], vec![], vec![]);
        for seg in pages {
            let (under, over) = seg.error_envelope();
            table.extend_from_slice(&(seg.keys().len() as u64).to_le_bytes());
            table.extend_from_slice(&seg.slope.to_bits().to_le_bytes());
            table.extend_from_slice(&under.to_le_bytes());
            table.extend_from_slice(&over.to_le_bytes());
            table.extend_from_slice(&(seg.buffer.len() as u64).to_le_bytes());
            table.extend_from_slice(&(seg.dead_words().len() as u64).to_le_bytes());
            for k in seg.keys() {
                keys.extend_from_slice(&k.to_le_bytes());
            }
            for v in seg.values() {
                values.extend_from_slice(&v.to_le_bytes());
            }
            for w in seg.dead_words() {
                sparse.extend_from_slice(&w.to_le_bytes());
            }
            for (k, v) in &seg.buffer {
                sparse.extend_from_slice(&k.to_le_bytes());
                sparse.extend_from_slice(&v.to_le_bytes());
            }
        }
        for section in [table, keys, values, sparse] {
            push_section(&mut out, &section);
        }
        out
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
        // Many small pages, then one linear page whose keys alone
        // outgrow a chunk.
        let keys = (0..20_000u64)
            .map(|k| k * k / 32 + k)
            .chain((0..40_000).map(|k| 20_000 * 20_000 + k * 3));
        let large = FitingTreeBuilder::new(64)
            .bulk_load(keys.map(|k| (k, k ^ 0x5A5A)))
            .unwrap();
        assert!(large.segment_count() > 10);
        let widest = large.segments.iter().map(|s| s.keys().len());
        assert!(widest.max().unwrap() * 8 > SNAPSHOT_CHUNK);

        for (name, tree) in [("dirty", &dirty), ("empty", &empty), ("large", &large)] {
            let chunks = chunks(tree);
            assert_eq!(chunks.concat(), whole_image(tree), "{name}");
            assert_eq!(encode_tree(tree), whole_image(tree), "{name}");
        }
        // Every chunk but the last is full, the page too long for one
        // chunk included.
        let chunks = chunks(&large);
        let (last, full) = chunks.split_last().unwrap();
        assert!(full.len() >= 4, "{} chunks", chunks.len());
        assert!(full.iter().all(|c| c.len() == SNAPSHOT_CHUNK));
        assert!((1..=SNAPSHOT_CHUNK).contains(&last.len()));
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

    /// A page-table row of slope 0 with the envelope that slope
    /// measures (every key predicted at slot 0, so `over` =
    /// `page_len − 1`), as five words: `under` and `over` share one.
    fn row(page_len: u64, buffered: u64, words: u64) -> Vec<u64> {
        vec![
            page_len,
            0,
            page_len.saturating_sub(1) << 32,
            buffered,
            words,
        ]
    }

    /// An image of 8-byte keys and values under error budget
    /// `buffer_size + 64`, holding `len` entries in `table.len() / 5`
    /// rows (or `seg_count`, when given), its sections the given words,
    /// every checksum valid.
    fn crafted(
        buffer_size: u64,
        len: u64,
        seg_count: Option<u64>,
        sections: [&[u64]; 4],
    ) -> Vec<u8> {
        let rows = seg_count.unwrap_or(sections[0].len() as u64 / 5);
        let error = buffer_size.saturating_add(64);
        let mut out = header(8, 8, [error, buffer_size, len, rows]);
        for words in sections {
            let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            push_section(&mut out, &payload);
        }
        out
    }

    fn refusal(image: &[u8]) -> SnapshotError {
        decode_tree::<u64, u64>(image).unwrap_err()
    }

    fn is_corrupt(image: &[u8]) -> bool {
        matches!(refusal(image), SnapshotError::Corrupt(_))
    }

    #[test]
    fn hostile_page_tables_get_typed_errors_not_panics() {
        // The well-formed image most cases below are cut from: two
        // pages, one dead slot, one buffered key.
        let table = [row(2, 0, 1), row(1, 1, 0)].concat();
        let sparse = [0b10, 35, 4];
        let good = crafted(8, 3, None, [&table, &[10, 20, 30], &[1, 2, 3], &sparse]);
        assert_eq!(decode_tree::<u64, u64>(&good).map(|t| t.len()), Ok(3));

        // Counts whose products wrap: rows × 40 to one row's width,
        // page_len × 16 to one pair's, buf_len × 16 to one pair's.
        let one = crafted(0, 1, Some((1 << 61) + 1), [&row(1, 0, 0), &[7], &[7], &[]]);
        assert_eq!(refusal(&one), SnapshotError::Truncated("segment count"));
        let long = crafted(0, 1, None, [&row((1 << 60) + 1, 0, 0), &[7], &[7], &[]]);
        assert_eq!(refusal(&long), SnapshotError::Truncated("page length"));
        let wide_row = row(1, (1 << 60) + 1, 0);
        let wide = crafted(u64::MAX - 1, 2, None, [&wide_row, &[7], &[7], &[8, 8]]);
        assert_eq!(refusal(&wide), SnapshotError::Truncated("buffer length"));

        let sloped: Vec<u64> = (0..67).collect();
        for image in [
            // a zero-length page,
            crafted(
                8,
                1,
                None,
                [&[row(0, 0, 0), row(1, 0, 0)].concat(), &[7], &[7], &[]],
            ),
            // bitmap words other than 0 or ⌈len/64⌉, one count wrapping,
            crafted(8, 1, None, [&row(1, 0, 2), &[7], &[7], &[0, 0]]),
            crafted(8, 1, None, [&row(1, 0, (1 << 61) + 1), &[7], &[7], &[0]]),
            // tombstones past the page,
            crafted(8, 1, None, [&row(1, 0, 1), &[7], &[7], &[0b10]]),
            // an envelope wider than the error budget,
            crafted(8, 67, None, [&row(67, 0, 0), &sloped, &[0; 67], &[]]),
            // a live count the header disagrees with,
            crafted(8, 4, None, [&table, &[10, 20, 30], &[1, 2, 3], &sparse]),
            // a section length the page table disagrees with,
            crafted(8, 3, None, [&table, &[10, 20, 30, 40], &[1, 2, 3], &sparse]),
            // a key column out of order within a page and across two.
            crafted(8, 3, None, [&table, &[20, 10, 30], &[1, 2, 3], &sparse]),
            crafted(8, 3, None, [&table, &[10, 20, 20], &[1, 2, 3], &sparse]),
        ] {
            assert!(is_corrupt(&image), "{:?}", refusal(&image));
        }

        // A nonzero header reserve, checksum valid.
        let mut reserved = good;
        reserved[12] = 1;
        let crc = crc32(&reserved[0..48]);
        reserved[48..52].copy_from_slice(&crc.to_le_bytes());
        assert!(is_corrupt(&reserved));

        // A checksummed envelope its page disagrees with (key 5 sits a
        // slot past a flat model's prediction; the stored `over` is 0):
        // debug builds re-measure and refuse, release builds trust it.
        let bent = crafted(8, 2, None, [&[2, 0, 0, 0, 0], &[0, 5], &[0, 0], &[]]);
        if cfg!(debug_assertions) {
            assert!(is_corrupt(&bent));
        } else {
            assert_eq!(decode_tree::<u64, u64>(&bent).unwrap().len(), 2);
        }
    }

    #[test]
    fn a_buffer_past_its_bounds_is_corrupt_in_every_build() {
        // Pages [100, 101] and [200], one buffered key each; only the
        // first page's buffer may hold keys below its anchor.
        let table = [row(2, 1, 0), row(1, 1, 0)].concat();
        let image = |first: u64, second: u64| {
            let sparse = [first, 0, second, 0];
            crafted(8, 5, None, [&table, &[100, 101, 200], &[0; 3], &sparse])
        };
        for (first, second) in [(99, 300), (5, 201), (150, 250)] {
            let tree = decode_tree::<u64, u64>(&image(first, second)).unwrap();
            assert_eq!((tree.get(&first), tree.get(&second)), (Some(&0), Some(&0)));
        }
        // A key one below the second page's anchor, one at the next
        // page's anchor, one repeating a page key in either page.
        for (first, second) in [(99, 199), (200, 300), (101, 300), (99, 200)] {
            assert!(is_corrupt(&image(first, second)), "{first} {second}");
        }
        // 500 buffered entries under a buffer of 8, sorted and in range;
        // and an unsorted buffer.
        let pairs: Vec<u64> = (0..500).flat_map(|k| [1_000 + k, k]).collect();
        assert!(is_corrupt(&crafted(
            8,
            501,
            None,
            [&row(1, 500, 0), &[7], &[7], &pairs]
        )));
        let unsorted = [9, 0, 8, 0];
        assert!(is_corrupt(&crafted(
            8,
            3,
            None,
            [&row(1, 2, 0), &[7], &[7], &unsorted]
        )));
    }

    #[test]
    fn a_key_or_value_projecting_to_nan_is_corrupt() {
        // Bits no writer produces: `OrderedF64::new` refuses NaN, and
        // the ordered image maps these back to one.
        let nan = u64::MAX;
        assert!(OrderedF64::from_le_bytes(&nan.to_le_bytes()).get().is_nan());
        // The ordered image of 1.0 (a non-negative value's sign bit
        // flipped).
        let one = 1f64.to_bits() ^ (1 << 63);
        let f64_keys = |image: &[u8]| decode_tree::<OrderedF64, u64>(image).map(|t| t.len());
        let f64_values = |image: &[u8]| decode_tree::<u64, OrderedF64>(image).map(|t| t.len());
        let image = |keys: &[u64], values: &[u64], buffer: &[u64]| {
            let table = row(keys.len() as u64, buffer.len() as u64 / 2, 0);
            let len = (keys.len() + buffer.len() / 2) as u64;
            crafted(8, len, None, [&table, keys, values, buffer])
        };
        // The well-formed images these are cut from decode.
        assert_eq!(f64_keys(&image(&[one], &[0], &[])), Ok(1));
        assert_eq!(f64_values(&image(&[0], &[one], &[])), Ok(1));
        for bad in [
            // a page's only key, a key sorted past a valid one, a
            // buffered key,
            image(&[nan], &[0], &[]),
            image(&[one, nan], &[0, 0], &[]),
            image(&[one], &[0], &[nan, 0]),
        ] {
            assert!(matches!(f64_keys(&bad), Err(SnapshotError::Corrupt(_))));
        }
        for bad in [
            // a page value, a buffered value.
            image(&[0], &[nan], &[]),
            image(&[0], &[one], &[5, nan]),
        ] {
            assert!(matches!(f64_values(&bad), Err(SnapshotError::Corrupt(_))));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A register folded piece by piece ends where the whole does.
        let (a, b) = b"123456789".split_at(5);
        assert_eq!(!crc32_update(crc32_update(u32::MAX, a), b), 0xCBF4_3926);
    }

    /// `tree` decoded from its own image: the same entries in the same
    /// pages, every page a window of the first page's column, and the
    /// same image again.
    fn round_trip(tree: &FitingTree<u64, u64>) -> FitingTree<u64, u64> {
        let bytes = encode_tree(tree);
        assert_eq!(bytes.len() % SNAPSHOT_ALIGN, 0);
        let back: FitingTree<u64, u64> = decode_tree(&bytes).unwrap();
        assert_eq!(
            (back.error(), back.buffer_size(), back.segment_count()),
            (tree.error(), tree.buffer_size(), tree.segment_count())
        );
        assert_eq!(back.len(), tree.len());
        assert!(back.range(..).eq(tree.range(..)));
        let mut pages = back.segments.iter();
        if let Some(first) = pages.next() {
            assert!(pages.all(|page| page.shares_column(first)));
        }
        back.check_invariants().unwrap();
        assert_eq!(encode_tree(&back), bytes);
        back
    }

    #[test]
    fn snapshot_round_trips_dirty_empty_and_large_trees() {
        round_trip(&sample_tree(5000));
        let empty = round_trip(&FitingTreeBuilder::new(32).build_empty().unwrap());
        assert_eq!(empty.segment_count(), 0);
        let large = above_threshold();
        assert!(large.len() > STEP / 16);
        round_trip(&large);
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

        let mut back = round_trip(&tree);
        // The tombstoned tail slot is resurrected, which moves the tail
        // page to a column of its own, and the next key is appended to
        // it in place.
        assert_eq!(back.insert(tail, 1), None);
        assert_eq!(back.insert(tail + 180, 2), None);
        assert_eq!(back.stats().in_place_appends, 1);
        back.check_invariants().unwrap();
    }

    /// The four sections of `image`, walked by their length fields.
    fn sections(image: &[u8]) -> Vec<Section<'_>> {
        let mut r = Reader {
            bytes: image,
            pos: HEADER_LEN,
        };
        (1..=4)
            .map(|index| {
                r.align(SNAPSHOT_ALIGN).unwrap();
                let len = u64::from_le_bytes(image[r.pos..r.pos + 8].try_into().unwrap());
                r.section(index, len as usize).unwrap()
            })
            .collect()
    }

    #[test]
    fn both_column_decoders_agree() {
        let image = encode_tree(&above_threshold());
        let (keys, values) = (sections(&image)[1], sections(&image)[2]);
        let whole = columns::<u64, u64>(keys, values, false).unwrap();
        assert_eq!(columns::<u64, u64>(keys, values, true).unwrap(), whole);
        // A flipped bit in either column, and keys out of order under a
        // valid checksum: the same typed error from both.
        let flip = |(payload, crc): Section<'_>| {
            let mut bytes = payload.to_vec();
            bytes[payload.len() / 2] ^= 1;
            (bytes, crc)
        };
        let (bad_keys, bad_values) = (flip(keys), flip(values));
        let mut swapped = keys.0.to_vec();
        swapped[..16].rotate_left(8);
        for helper in [false, true] {
            let decode = |keys, values| columns::<u64, u64>(keys, values, helper).unwrap_err();
            let sections = [
                (2, (&bad_keys.0[..], bad_keys.1), values),
                (3, keys, (&bad_values.0[..], bad_values.1)),
            ];
            for (section, keys, values) in sections {
                assert_eq!(
                    decode(keys, values),
                    SnapshotError::ChecksumMismatch { section }
                );
            }
            let unsorted = decode((&swapped[..], crc32(&swapped)), values);
            assert!(
                matches!(unsorted, SnapshotError::Corrupt(_)),
                "{unsorted:?}"
            );
        }
    }

    #[test]
    fn decode_refuses_the_previous_formats() {
        // FITSNP01 envelopes were measured against a page-clamped
        // prediction; FITSNP02 gave every page a section of its own.
        // An otherwise valid image under either magic is not read.
        for magic in [b"FITSNP01", b"FITSNP02"] {
            let mut old = encode_tree(&sample_tree(500));
            old[..8].copy_from_slice(magic);
            let crc = crc32(&old[0..48]);
            old[48..52].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(refusal(&old), SnapshotError::UnsupportedVersion);
        }
    }

    #[test]
    fn decode_rejects_corruption_everywhere() {
        let tree = sample_tree(2000);
        let good = encode_tree(&tree);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(refusal(&bad), SnapshotError::BadMagic);
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
