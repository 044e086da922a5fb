//! Line-offset index for O(1) random access into `.zsmi` (or `.smi`)
//! buffers — the use case the whole design serves: domain experts sample a
//! small subset of a huge archive without decompressing it.
//!
//! The index is a sidecar (`.zsx`), or the index section of a `.zsa`: a
//! small binary table of per-line `(start, end)` byte ranges. The archive
//! itself stays readable text; only the *optional* accelerator is binary
//! (rebuilding it is a single scan, so it can always be regenerated from
//! the archive).
//!
//! Range ends are **exact** (newline excluded), so
//! [`LineIndex::line_range`] is authoritative on its own: a reader that
//! has only the index — the out-of-core [`crate::reader::ArchiveReader`]
//! path — can issue a byte-range read for precisely one line without ever
//! scanning the buffer for the newline.
//!
//! # In memory
//!
//! Lines are grouped in blocks of 64. Each block has one `u64` *anchor*,
//! the start of its first line, and one cache-line-aligned row of 64
//! `u8` lengths. In a *regular* block every later line starts one
//! separator past the previous line's end, so line `k` of the block
//! starts at
//!
//! ```text
//! anchor + k + (lens[0] + … + lens[k-1])
//! ```
//!
//! and [`LineIndex::line_range`] works that sum out without a branch, as
//! masked 64-bit words folded into 16-bit lanes. A block with blank bytes
//! between two of its lines (only raw `.smi` buffers have them) or with a
//! line longer than 255 bytes is *irregular*: the top bit of its anchor
//! is set, the other bits give where the block's exact `(start, end)`
//! pairs begin in a side table kept in line order, and its lengths stay
//! zero. A compressed payload never has blank lines, so its index costs
//! 1 + 8/64 bytes a line (16 when ranges were held as two `u64`s), and a
//! lookup touches one row of lengths, which for an 80k-line deck fit in
//! L2 beside the payload.
//!
//! Every constructor — [`LineIndex::build`], [`LineIndex::append_scan`]
//! and each wire-version parser — adds lines through one `push(start,
//! end)`, so the layout is a function of the ranges alone: two indexes
//! describing the same ranges hold the same vectors, and equality
//! compares those. Walks over many lines ([`LineIndex::ranges`]) carry a
//! running offset and pay O(1) a line instead of one block sum each.
//!
//! # Wire format (version 4)
//!
//! ```text
//! offset 0    "ZSXIDX04"                     magic
//!        8    count: u64 LE                  number of lines
//!        16   total: u64 LE                  bytes in the indexed buffer
//!        24   per line:
//!               varint (len - 1) << 1 | has_gap
//!               varint gap                   only when has_gap is set
//!        ...  crc32: u32 LE                  over every earlier index byte
//! ```
//!
//! Varints are unsigned LEB128, minimal length. A line is expected to
//! start one byte after the previous line's end (at 0 for the first
//! line); `gap` is how many bytes later it actually starts, and is only
//! stored when it is non-zero — for blank-line runs, which compressed
//! payloads never contain. A compressed SMILES line is tens of bytes, so
//! a line costs one index byte where version 3 spent sixteen.
//!
//! Versions 1–3 are still read, so every deck packed before stays
//! readable; only version 4 is written. Version 3 stored each range as
//! two `u64`s. Versions 1 and 2 stored starts only and *derived* ends
//! from them, which overshoots across blank lines and so forces a
//! defensive re-trim in [`LineIndex::line`].

use crate::codec::split_lines;
use crate::decompress::Decompressor;
use crate::dict::Dictionary;
use crate::error::ZsmilesError;
use crate::writer::{pump_lines, DEFAULT_WRITER_BATCH};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use textcomp::crc32::Crc32;

/// Version 1 wire format: starts only, no trailing-newline flag (readers
/// must assume the buffer ended with a newline). Still accepted on read.
const MAGIC_V1: &[u8; 8] = b"ZSXIDX01";
/// Version 2 wire format: starts plus one flag byte recording whether the
/// indexed buffer ended with a newline. Still accepted on read.
const MAGIC_V2: &[u8; 8] = b"ZSXIDX02";
/// Version 3 wire format: exact `(start, end)` pairs per line as two
/// `u64`s. Still accepted on read.
const MAGIC_V3: &[u8; 8] = b"ZSXIDX03";
/// Version 4 wire format: exact ranges as varint lengths and gaps, closed
/// by a CRC32. The only version written.
const MAGIC_V4: &[u8; 8] = b"ZSXIDX04";

/// Magic, count and total: the head every wire version shares.
const HEAD_LEN: usize = 24;

/// The most lines a parser reserves room for before reading them. The
/// stored count is untrusted input, and reserving it verbatim would let a
/// corrupted count abort the process before a read could fail; past the
/// cap the vectors grow as lines actually arrive.
pub const MAX_PREALLOC_LINES: usize = 1 << 20;

/// Encoded index bytes [`LineIndex::write_to`] gathers before each write.
const WRITE_CHUNK: usize = 64 << 10;

/// Bytes in the longest LEB128 varint of a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Lines per block: one anchor and one row of lengths each.
const BLOCK: usize = 64;

/// Set on the anchor of an irregular block; the remaining bits are the
/// position of the block's first range in the side table.
const IRREGULAR: u64 = 1 << 63;

/// The `n` low bytes of a word, for `n` in `0..=8`.
const LOW_BYTES: [u64; 9] = [
    0,
    0xFF,
    0xFFFF,
    0xFF_FFFF,
    0xFFFF_FFFF,
    0xFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF,
    0xFF_FFFF_FFFF_FFFF,
    u64::MAX,
];

/// Every other byte of a word: the even lanes of a 16-bit fold.
const EVEN_BYTES: u64 = 0x00FF_00FF_00FF_00FF;

/// One block's line lengths, aligned so the row is one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
struct Lens([u8; BLOCK]);

impl Lens {
    /// Sum of the first `k` lengths (`k < 64`), without a branch: each
    /// word is masked to the lengths before `k` and folded into four
    /// 16-bit lanes. A lane gathers at most 8 × 510 and the four at most
    /// 16 320, so the final multiply-and-shift never carries out.
    fn sum_before(&self, k: usize) -> u64 {
        let mut lanes = 0u64;
        for (w, bytes) in self.0.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            let word = word & LOW_BYTES[k.saturating_sub(8 * w).min(8)];
            lanes += (word & EVEN_BYTES) + (word >> 8 & EVEN_BYTES);
        }
        lanes.wrapping_mul(0x0001_0001_0001_0001) >> 48
    }
}

fn corrupt(reason: impl std::fmt::Display) -> ZsmilesError {
    ZsmilesError::DictFormat {
        line: 0,
        reason: format!("corrupt index: {reason}"),
    }
}

/// Append `v` as a minimal unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one minimal unsigned LEB128 varint, hashing every byte it takes.
/// Overlong encodings and values past 64 bits are rejected, so each index
/// has exactly one encoding.
fn read_varint<R: Read>(r: &mut R, crc: &mut Crc32) -> Result<u64, ZsmilesError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        crc.update(&b);
        let byte = b[0];
        // The tenth byte holds bit 63 alone and must end the varint.
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows 64 bits"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(corrupt("overlong varint"));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// Exact byte ranges of non-empty lines in a newline-separated buffer,
/// held as block anchors and per-line lengths (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct LineIndex {
    /// One per block of [`BLOCK`] lines: the start of the block's first
    /// line, or [`IRREGULAR`] and the block's position in `side`.
    anchors: Vec<u64>,
    /// One row per block: each line's length in a regular block; zero in
    /// an irregular block and past the last line.
    lens: Vec<Lens>,
    /// Exact `[start, end]` of every line in an irregular block, in line
    /// order.
    side: Vec<[u64; 2]>,
    /// Number of lines.
    len: usize,
    /// Where the next line starts when no blank bytes precede it: one
    /// separator past the last line's end.
    next_start: u64,
    /// Total buffer length the index describes.
    total: u64,
    /// The wire version this index was parsed from; `None` when it was
    /// built or extended by scanning. Versions 1 and 2 carry ends
    /// *derived* from starts, which can be wrong for buffers with
    /// interior blank lines or a missing trailing newline, so
    /// [`LineIndex::line`] keeps the old defensive re-trim for them — and
    /// only for them.
    wire_version: Option<u8>,
}

/// Equality is over the described ranges, not over how they were learned:
/// an index read from a legacy sidecar equals a freshly built one whenever
/// they agree on every line's range. The layout is a function of the
/// ranges alone, so comparing it compares them.
impl PartialEq for LineIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.total == other.total
            && self.anchors == other.anchors
            && self.lens == other.lens
            && self.side == other.side
    }
}

impl Eq for LineIndex {}

impl LineIndex {
    /// An empty index with room for `lines` lines.
    fn with_capacity(lines: usize) -> LineIndex {
        let blocks = lines.div_ceil(BLOCK);
        LineIndex {
            anchors: Vec::with_capacity(blocks),
            lens: Vec::with_capacity(blocks),
            ..LineIndex::default()
        }
    }

    /// Scan a buffer and index every non-empty line with exact ends.
    pub fn build(buf: &[u8]) -> LineIndex {
        let mut idx = LineIndex::default();
        idx.append_scan(buf);
        idx.shrink_to_fit();
        idx
    }

    /// [`LineIndex::build`] over a stream that is never held whole: one
    /// pass of line batches through [`crate::writer::pump_lines`].
    pub(crate) fn scan<R: Read>(input: R) -> Result<LineIndex, ZsmilesError> {
        let mut idx = LineIndex::default();
        pump_lines(input, DEFAULT_WRITER_BATCH, |lines| {
            idx.append_scan(lines);
            Ok(())
        })?;
        idx.shrink_to_fit();
        Ok(idx)
    }

    /// Extend the index with one more scanned chunk of the buffer it
    /// describes — the incremental form of [`LineIndex::build`] for
    /// writers that stream the payload and never hold it whole
    /// ([`crate::writer::ArchiveWriter`]). Chunks must arrive in order
    /// and **end on a line boundary** (the last byte is a newline, or the
    /// chunk is the final one): a line may not straddle two calls.
    ///
    /// Building `LineIndex::build(a ‖ b)` and
    /// `{ i.append_scan(a); i.append_scan(b) }` agree whenever `a` ends
    /// with a newline — the invariant every compressed chunk satisfies
    /// (the encoder terminates every line it emits).
    pub fn append_scan(&mut self, chunk: &[u8]) {
        debug_assert!(
            self.exact_ends() || self.is_empty(),
            "cannot append to an index with derived (legacy v1/v2) ends"
        );
        self.wire_version = None;
        let base = self.total;
        let mut start = 0;
        for line in split_lines(chunk) {
            if !line.is_empty() {
                self.push(base + start as u64, base + (start + line.len()) as u64);
            }
            start += line.len() + 1;
        }
        self.total += chunk.len() as u64;
    }

    /// Append the line `start..end` — the one way a range enters an
    /// index. Callers have checked that it is non-empty and starts past
    /// the previous line's end.
    fn push(&mut self, start: u64, end: u64) {
        let k = self.len % BLOCK;
        if k == 0 {
            // Provisional: a start too large for an anchor fails `fits`
            // below and moves the block to the side table.
            self.anchors.push(start & !IRREGULAR);
            self.lens.push(Lens([0; BLOCK]));
        }
        let b = self.anchors.len() - 1;
        let len = end - start;
        let fits = len <= u64::from(u8::MAX)
            && if k == 0 {
                start < IRREGULAR
            } else {
                start == self.next_start
            };
        let regular = self.anchors[b] & IRREGULAR == 0;
        if regular && fits {
            self.lens[b].0[k] = len as u8;
        } else {
            if regular {
                self.spill(b, k);
            }
            self.side.push([start, end]);
        }
        self.len += 1;
        // Saturating is safe: no line can start past a `u64::MAX` end.
        self.next_start = end.saturating_add(1);
    }

    /// Turn block `b`, which holds `k` lines so far, irregular: move its
    /// lines into the side table and point its anchor there.
    fn spill(&mut self, b: usize, k: usize) {
        let at = self.side.len() as u64;
        let mut start = self.anchors[b];
        for &len in &self.lens[b].0[..k] {
            let end = start + u64::from(len);
            self.side.push([start, end]);
            start = end + 1;
        }
        self.lens[b] = Lens([0; BLOCK]);
        self.anchors[b] = IRREGULAR | at;
    }

    fn shrink_to_fit(&mut self) {
        self.anchors.shrink_to_fit();
        self.lens.shrink_to_fit();
        self.side.shrink_to_fit();
    }

    /// Number of indexed lines.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length in bytes of the buffer the index describes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Heap bytes the index holds (anchors, lengths and side table, by
    /// capacity): about 1.13 a line for a compressed payload.
    pub fn heap_bytes(&self) -> usize {
        self.anchors.capacity() * std::mem::size_of::<u64>()
            + self.lens.capacity() * std::mem::size_of::<Lens>()
            + self.side.capacity() * std::mem::size_of::<[u64; 2]>()
    }

    /// The wire version this index was read from (1–4), or `None` for an
    /// index built by scanning. Every writer emits version 4.
    pub fn wire_version(&self) -> Option<u8> {
        self.wire_version
    }

    /// Whether the ends are exact: built by scanning, or read from a v3
    /// or v4 index.
    pub(crate) fn exact_ends(&self) -> bool {
        !matches!(self.wire_version, Some(1 | 2))
    }

    /// Exact byte range of line `i` (newline excluded): the block's
    /// anchor plus one separator and one length per earlier line of the
    /// block, or the side table's entry for an irregular block.
    ///
    /// # Panics
    ///
    /// When `i` is not below [`LineIndex::len`].
    pub fn line_range(&self, i: usize) -> Range<usize> {
        assert!(i < self.len, "line {i} of an index of {}", self.len);
        let (b, k) = (i / BLOCK, i % BLOCK);
        let anchor = self.anchors[b];
        if anchor & IRREGULAR != 0 {
            let [start, end] = self.side[(anchor & !IRREGULAR) as usize + k];
            return start as usize..end as usize;
        }
        let lens = &self.lens[b];
        let start = anchor + lens.sum_before(k) + k as u64;
        start as usize..(start + u64::from(lens.0[k])) as usize
    }

    /// The ranges of `lines`, in order: one block sum where the walk
    /// enters a regular block, then a running offset, so a walk pays O(1)
    /// a line.
    ///
    /// # Panics
    ///
    /// When `lines.end` is past [`LineIndex::len`].
    pub fn ranges(&self, lines: Range<usize>) -> Ranges<'_> {
        assert!(
            lines.end <= self.len,
            "lines {lines:?} of an index of {}",
            self.len
        );
        Ranges {
            index: self,
            lines,
            lens: &[],
            side: &[],
            at: 0,
        }
    }

    /// The rest of line `i`'s block from `i` on, for [`Ranges`]: its
    /// lengths and the start of line `i` when the block is regular, its
    /// side-table entries when it is not.
    fn block_from(&self, i: usize) -> (&[u8], &[[u64; 2]], u64) {
        let (b, k) = (i / BLOCK, i % BLOCK);
        let anchor = self.anchors[b];
        if anchor & IRREGULAR != 0 {
            let at = (anchor & !IRREGULAR) as usize;
            let end = (at + BLOCK).min(self.side.len());
            return (&[], &self.side[at + k..end], 0);
        }
        let lens = &self.lens[b];
        (&lens.0[k..], &[], anchor + lens.sum_before(k) + k as u64)
    }

    /// Slice line `i` out of the buffer the index was built from. With
    /// exact ends (built, or read from a v3 or v4 file) this is a plain
    /// slice — no newline scan. Indexes loaded from legacy v1/v2 sidecars
    /// carry *derived* ends, which can disagree with the buffer (interior
    /// blank lines, missing trailing newline), so they keep the
    /// historical defensive re-trim.
    pub fn line<'a>(&self, buf: &'a [u8], i: usize) -> &'a [u8] {
        let r = self.line_range(i);
        if self.exact_ends() {
            return &buf[r];
        }
        let s = &buf[r.start..];
        match s.iter().position(|&b| b == b'\n') {
            Some(n) => &s[..n],
            None => s,
        }
    }

    /// Decompress exactly one line of a compressed archive.
    pub fn decompress_line_at(
        &self,
        dict: &Dictionary,
        buf: &[u8],
        i: usize,
    ) -> Result<Vec<u8>, ZsmilesError> {
        let mut out = Vec::new();
        Decompressor::new(dict).decompress_line(self.line(buf, i), &mut out)?;
        Ok(out)
    }

    /// Serialize in the version 4 wire format (see the module docs),
    /// gathering the encoding in bounded chunks so a large index costs a
    /// few writes, not one per line.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut crc = Crc32::new();
        // Most lines take one byte; a line overruns the chunk by at most
        // its two varints.
        let estimate = HEAD_LEN + self.len() + 4;
        let mut buf = Vec::with_capacity(estimate.min(WRITE_CHUNK) + 2 * MAX_VARINT_LEN);
        buf.extend_from_slice(MAGIC_V4);
        buf.extend_from_slice(&(self.len as u64).to_le_bytes());
        buf.extend_from_slice(&self.total.to_le_bytes());
        // Where the next line starts when no blank bytes precede it.
        let mut expected = 0u64;
        for r in self.ranges(0..self.len) {
            let (s, e) = (r.start as u64, r.end as u64);
            let gap = s - expected;
            put_varint(&mut buf, (e - s - 1) << 1 | u64::from(gap != 0));
            if gap != 0 {
                put_varint(&mut buf, gap);
            }
            expected = e + 1;
            if buf.len() >= WRITE_CHUNK {
                crc.update(&buf);
                w.write_all(&buf)?;
                buf.clear();
            }
        }
        crc.update(&buf);
        buf.extend_from_slice(&crc.finish().to_le_bytes());
        w.write_all(&buf)
    }

    /// Parse a `.zsx` sidecar or a container's index section, any
    /// version.
    ///
    /// Every version is held to the same rules: each range is non-empty,
    /// ends within `total`, and starts at least one byte past the
    /// previous range's end. Version 4 must also match its CRC and end
    /// exactly after it. v1/v2 files carry only line starts; their ends
    /// are reconstructed the way those formats were always interpreted
    /// (interior end = next start minus one separator, final end from the
    /// trailing-newline flag), which is exact for buffers without
    /// interior blank lines — the invariant every compressed payload
    /// satisfies.
    ///
    /// Every wire version spends at least one byte a line, so room is
    /// reserved for no more lines than `bytes` could describe: a
    /// corrupted count cannot make a parse reserve more than its input.
    pub fn read_from(bytes: &[u8]) -> Result<LineIndex, ZsmilesError> {
        let (mut r, max_lines) = (bytes, bytes.len().min(MAX_PREALLOC_LINES));
        let mut head = [0u8; HEAD_LEN];
        r.read_exact(&mut head[..8])?;
        let version = match &head[..8] {
            m if m == MAGIC_V4 => 4,
            m if m == MAGIC_V3 => 3,
            m if m == MAGIC_V2 => 2,
            m if m == MAGIC_V1 => 1,
            _ => {
                return Err(ZsmilesError::DictFormat {
                    line: 0,
                    reason: "not a ZSX index file".into(),
                })
            }
        };
        r.read_exact(&mut head[8..])?;
        let field = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        let (n, total) = (field(8), field(16));
        let mut idx = LineIndex::with_capacity(n.min(max_lines as u64) as usize);
        match version {
            4 => read_v4(&mut r, &head, n, total, &mut idx)?,
            3 => read_v3(&mut r, n, total, &mut idx)?,
            _ => read_legacy(&mut r, version, n, total, &mut idx)?,
        }
        idx.total = total;
        idx.wire_version = Some(version);
        idx.shrink_to_fit();
        Ok(idx)
    }

    pub fn save(&self, path: &Path) -> Result<(), ZsmilesError> {
        let f = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(f))?;
        Ok(())
    }
}

/// In-order cursor over the byte ranges of a run of lines, from
/// [`LineIndex::ranges`]. It holds the rest of the current block — its
/// lengths when regular, its side-table entries when not — and moves to
/// the next block when they run out.
#[derive(Debug, Clone)]
pub struct Ranges<'a> {
    index: &'a LineIndex,
    /// The lines still to yield.
    lines: Range<usize>,
    /// Lengths of the current regular block from the next line on.
    lens: &'a [u8],
    /// Ranges of the current irregular block from the next line on.
    side: &'a [[u64; 2]],
    /// Start of the next line of the current regular block.
    at: u64,
}

impl Iterator for Ranges<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let i = self.lines.next()?;
        if self.lens.is_empty() && self.side.is_empty() {
            (self.lens, self.side, self.at) = self.index.block_from(i);
        }
        if let [len, rest @ ..] = self.lens {
            self.lens = rest;
            let (start, end) = (self.at, self.at + u64::from(*len));
            self.at = end + 1;
            return Some(start as usize..end as usize);
        }
        let ([start, end], rest) = self.side.split_first().expect("entered a block");
        self.side = rest;
        Some(*start as usize..*end as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lines.size_hint()
    }
}

impl ExactSizeIterator for Ranges<'_> {}

/// Version 4 body: varint lengths and gaps, then the CRC over `head` and
/// every body byte, then end of input.
fn read_v4<R: Read>(
    r: &mut R,
    head: &[u8; HEAD_LEN],
    n: u64,
    total: u64,
    idx: &mut LineIndex,
) -> Result<(), ZsmilesError> {
    let mut crc = Crc32::new();
    crc.update(head);
    // Where the next line starts when no gap is stored: one separator
    // past the previous end.
    let mut expected = 0u64;
    for _ in 0..n {
        let word = read_varint(r, &mut crc)?;
        let gap = match word & 1 {
            0 => 0,
            _ => match read_varint(r, &mut crc)? {
                0 => return Err(corrupt("zero gap stored")),
                g => g,
            },
        };
        let start = expected.checked_add(gap);
        let end = start.and_then(|s| s.checked_add((word >> 1) + 1));
        match (start, end) {
            (Some(s), Some(e)) if e <= total => {
                idx.push(s, e);
                // Saturating is safe: a line that would start at
                // `u64::MAX` can have no in-bounds end.
                expected = e.saturating_add(1);
            }
            _ => return Err(corrupt("line range past the indexed bytes")),
        }
    }
    let mut stored = [0u8; 4];
    r.read_exact(&mut stored)?;
    let stored = u32::from_le_bytes(stored);
    let computed = crc.finish();
    if stored != computed {
        return Err(corrupt(format!(
            "CRC mismatch: stored {stored:08x}, computed {computed:08x}"
        )));
    }
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(corrupt("trailing bytes after the CRC"));
    }
    Ok(())
}

/// Version 3 body: one `(start, end)` pair of `u64`s per line.
fn read_v3<R: Read>(
    r: &mut R,
    n: u64,
    total: u64,
    idx: &mut LineIndex,
) -> Result<(), ZsmilesError> {
    let (mut s8, mut e8) = ([0u8; 8], [0u8; 8]);
    let mut prev_end = None;
    for _ in 0..n {
        r.read_exact(&mut s8)?;
        r.read_exact(&mut e8)?;
        let (s, e) = (u64::from_le_bytes(s8), u64::from_le_bytes(e8));
        // Ranges are non-empty, in-bounds, and strictly ordered with at
        // least one separator byte between lines; anything else would arm
        // a reversed or out-of-bounds slice.
        if s >= e || e > total || prev_end.is_some_and(|p| s <= p) {
            return Err(corrupt("offsets not monotonic"));
        }
        idx.push(s, e);
        prev_end = Some(e);
    }
    Ok(())
}

/// Version 1 and 2 bodies: starts only (v2 after a trailing-newline
/// flag byte). Each end is derived when the next start arrives, one
/// separator before it, and held to the same rules as a stored one; an
/// empty derived line is reported only once every start has been read,
/// so a truncated or disordered body still fails as such.
fn read_legacy<R: Read>(
    r: &mut R,
    version: u8,
    n: u64,
    total: u64,
    idx: &mut LineIndex,
) -> Result<(), ZsmilesError> {
    let trailing_newline = if version == 2 {
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        flag[0] != 0
    } else {
        true
    };
    let mut n8 = [0u8; 8];
    let mut prev: Option<u64> = None;
    let mut empty = false;
    for _ in 0..n {
        r.read_exact(&mut n8)?;
        let v = u64::from_le_bytes(n8);
        // Strictly increasing and inside the buffer: equal consecutive
        // starts would yield a reversed (or underflowing) line_range.
        if prev.is_some_and(|p| v <= p) || v >= total {
            return Err(corrupt("offsets not monotonic"));
        }
        if let Some(p) = prev {
            empty |= p + 1 >= v;
            if !empty {
                idx.push(p, v - 1);
            }
        }
        prev = Some(v);
    }
    if let Some(s) = prev {
        match total.checked_sub(u64::from(trailing_newline)) {
            Some(e) if !empty && s < e => idx.push(s, e),
            _ => empty = true,
        }
    }
    if empty {
        return Err(corrupt("derived line range is empty"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use crate::dict::builder::DictBuilder;

    #[test]
    fn build_and_slice() {
        let buf = b"CCO\nc1ccccc1\nN\n";
        let idx = LineIndex::build(buf);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.line(buf, 0), b"CCO");
        assert_eq!(idx.line(buf, 1), b"c1ccccc1");
        assert_eq!(idx.line(buf, 2), b"N");
        assert_eq!(idx.total_bytes(), buf.len() as u64);
    }

    #[test]
    fn block_sum_matches_a_plain_sum_at_every_position() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let rows = [Lens([255; BLOCK]), Lens([1; BLOCK]), Lens([0; BLOCK])];
        let random = (0..8).map(|_| {
            let mut row = [0u8; BLOCK];
            for b in &mut row {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                *b = rng as u8;
            }
            Lens(row)
        });
        for row in rows.into_iter().chain(random) {
            for k in 0..BLOCK {
                let plain: u64 = row.0[..k].iter().map(|&b| u64::from(b)).sum();
                assert_eq!(row.sum_before(k), plain, "k={k} row={:?}", &row.0[..k]);
            }
        }
    }

    #[test]
    fn irregular_blocks_sit_beside_regular_ones() {
        // Block 0 regular; block 1 turns irregular at its third line (a
        // gap); block 2 at its first (a 256-byte line); block 3 regular
        // again after a leading gap, which its anchor absorbs.
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for i in 0..4 * BLOCK {
            if i == BLOCK + 2 || i == 3 * BLOCK {
                buf.extend_from_slice(b"\n\n");
            }
            let len = if i == 2 * BLOCK { 256 } else { 1 + i % 9 };
            want.push(buf.len()..buf.len() + len);
            buf.extend(std::iter::repeat_n(b'C', len));
            buf.push(b'\n');
        }
        let idx = LineIndex::build(&buf);
        assert_eq!(idx.anchors[0] & IRREGULAR, 0);
        assert_eq!(idx.anchors[1], IRREGULAR);
        assert_eq!(idx.anchors[2], IRREGULAR | BLOCK as u64);
        assert_eq!(idx.anchors[3], want[3 * BLOCK].start as u64);
        assert_eq!(idx.side.len(), 2 * BLOCK);
        let got: Vec<_> = (0..idx.len()).map(|i| idx.line_range(i)).collect();
        assert_eq!(got, want);
        assert_eq!(idx.ranges(0..idx.len()).collect::<Vec<_>>(), want);
        assert_eq!(idx.ranges(BLOCK + 1..3 * BLOCK + 5).len(), 2 * BLOCK + 4);
        assert!(idx
            .ranges(BLOCK + 1..3 * BLOCK + 5)
            .eq(want[BLOCK + 1..3 * BLOCK + 5].iter().cloned()));
        // Four anchors and rows, and two blocks' lines in the side table
        // at 16 bytes each.
        assert_eq!(idx.heap_bytes(), 4 * (8 + BLOCK) + 2 * BLOCK * 16);
    }

    #[test]
    fn a_start_too_large_for_an_anchor_goes_to_the_side_table() {
        let mut idx = LineIndex::default();
        for i in 0..BLOCK as u64 {
            idx.push(2 * i, 2 * i + 1);
        }
        let top = 1u64 << 63;
        idx.push(top, top + 5);
        idx.push(top + 6, top + 7);
        assert_eq!(idx.anchors[1], IRREGULAR);
        assert_eq!(idx.line_range(BLOCK - 1), 126..127);
        assert_eq!(idx.line_range(BLOCK), top as usize..top as usize + 5);
        assert_eq!(
            idx.line_range(BLOCK + 1),
            top as usize + 6..top as usize + 7
        );
    }

    #[test]
    #[should_panic(expected = "line 3 of an index of 3")]
    fn line_range_past_the_end_panics() {
        LineIndex::build(b"CCO\nN\nC\n").line_range(3);
    }

    #[test]
    fn append_scan_matches_whole_buffer_build() {
        let buf = b"CCO\n\n\nc1ccccc1\nN\nCC(C)O\n";
        let whole = LineIndex::build(buf);
        // Every split into line-aligned chunks agrees with the one-shot
        // scan, including empty chunks and blank-line-only chunks.
        let cuts: &[&[usize]] = &[&[], &[4], &[4, 5, 6], &[15], &[4, 15, 17], &[24]];
        for cut in cuts {
            let mut idx = LineIndex::default();
            let mut prev = 0;
            for &c in cut.iter() {
                idx.append_scan(&buf[prev..c]);
                prev = c;
            }
            idx.append_scan(&buf[prev..]);
            assert_eq!(idx, whole, "cuts={cut:?}");
            assert_eq!(idx.total_bytes(), whole.total_bytes());
            assert_eq!(idx.line(buf, 1), b"c1ccccc1");
        }
        // A final chunk without a trailing newline closes the last line.
        let tail = b"CCO\nCC";
        let mut idx = LineIndex::default();
        idx.append_scan(&tail[..4]);
        idx.append_scan(&tail[4..]);
        assert_eq!(idx, LineIndex::build(tail));
    }

    #[test]
    fn missing_trailing_newline() {
        let buf = b"CCO\nCC";
        let idx = LineIndex::build(buf);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.line(buf, 1), b"CC");
    }

    #[test]
    fn line_range_is_exact_for_final_line_without_newline() {
        // Regression: old code unconditionally trimmed one byte off the
        // last line, dropping its final real byte when the buffer did not
        // end with a newline.
        let buf = b"CCO\nCC";
        let idx = LineIndex::build(buf);
        assert_eq!(
            idx.line_range(1),
            4..6,
            "no newline: range covers the whole tail"
        );
        assert_eq!(&buf[idx.line_range(1)], b"CC");

        let buf_nl = b"CCO\nCC\n";
        let idx_nl = LineIndex::build(buf_nl);
        assert_eq!(idx_nl.line_range(1), 4..6, "newline: range excludes it");
        assert_eq!(&buf_nl[idx_nl.line_range(1)], b"CC");

        // Single line, both ways.
        assert_eq!(LineIndex::build(b"N").line_range(0), 0..1);
        assert_eq!(LineIndex::build(b"N\n").line_range(0), 0..1);
    }

    #[test]
    fn line_range_is_exact_across_interior_blank_lines() {
        // Regression (the ROADMAP open item this format closes): with
        // derived ends, the range for a line followed by blank lines
        // overshot into the separator run; line_range had to be defended
        // by a newline re-scan in line().
        let buf = b"CCO\n\n\nCC\n";
        let idx = LineIndex::build(buf);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.line_range(0), 0..3, "no overshoot into blank run");
        assert_eq!(&buf[idx.line_range(0)], b"CCO");
        assert_eq!(idx.line_range(1), 6..8);

        // And the exactness survives a wire round trip.
        let mut raw = Vec::new();
        idx.write_to(&mut raw).unwrap();
        let back = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.line_range(0), 0..3);
    }

    #[test]
    fn sidecar_round_trips_trailing_newline_or_not() {
        for buf in [b"CCO\nCC".as_slice(), b"CCO\nCC\n"] {
            let idx = LineIndex::build(buf);
            let mut raw = Vec::new();
            idx.write_to(&mut raw).unwrap();
            let back = LineIndex::read_from(raw.as_slice()).unwrap();
            assert_eq!(back, idx);
            assert_eq!(back.line_range(1), idx.line_range(1));
        }
    }

    #[test]
    fn v3_rejects_malformed_ranges() {
        let head = |n: u64, total: u64| {
            let mut raw = Vec::new();
            raw.extend_from_slice(MAGIC_V3);
            raw.extend_from_slice(&n.to_le_bytes());
            raw.extend_from_slice(&total.to_le_bytes());
            raw
        };
        // Empty range (start == end).
        let mut raw = head(1, 10);
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes());
        assert!(LineIndex::read_from(raw.as_slice()).is_err());
        // End past total.
        let mut raw = head(1, 10);
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(&11u64.to_le_bytes());
        assert!(LineIndex::read_from(raw.as_slice()).is_err());
        // Overlapping lines (second starts before first ends + separator).
        let mut raw = head(2, 10);
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(&6u64.to_le_bytes());
        assert!(LineIndex::read_from(raw.as_slice()).is_err());
        // A well-formed pair parses.
        let mut raw = head(2, 10);
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(&5u64.to_le_bytes());
        raw.extend_from_slice(&10u64.to_le_bytes());
        assert_eq!(LineIndex::read_from(raw.as_slice()).unwrap().len(), 2);
    }

    /// A v4 blob for `head` fields plus a raw body, signed with a
    /// correct CRC.
    fn v4_blob(n: u64, total: u64, body: &[u8]) -> Vec<u8> {
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC_V4);
        raw.extend_from_slice(&n.to_le_bytes());
        raw.extend_from_slice(&total.to_le_bytes());
        raw.extend_from_slice(body);
        let crc = textcomp::crc32::crc32(&raw);
        raw.extend_from_slice(&crc.to_le_bytes());
        raw
    }

    #[test]
    fn v4_spends_one_byte_per_short_line() {
        let buf = b"CCO\nCC\n";
        let mut raw = Vec::new();
        LineIndex::build(buf).write_to(&mut raw).unwrap();
        // (len - 1) << 1 with no gap flag: 3 -> 4, 2 -> 2.
        assert_eq!(raw, v4_blob(2, 7, &[4, 2]));
        let back = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(back, LineIndex::build(buf));
        assert_eq!(back.wire_version(), Some(4));
        assert_eq!(LineIndex::build(buf).wire_version(), None);
    }

    #[test]
    fn v4_stores_gaps_and_long_lines_in_multibyte_varints() {
        // Leading blanks, a 200-byte gap, a 300-byte line, trailing blanks.
        let mut buf = b"\n\nCCO".to_vec();
        buf.extend([b'\n'; 201]);
        buf.extend([b'C'; 300]);
        buf.extend_from_slice(b"\nN\n\n\n");
        let idx = LineIndex::build(&buf);
        assert_eq!(idx.len(), 3);
        let mut raw = Vec::new();
        idx.write_to(&mut raw).unwrap();
        // Line 0: len 3 at 2 -> word 5, gap 2. Line 1: len 300 at gap 200
        // -> word 599 (two bytes), gap 200 (two bytes). Line 2: word 0.
        let body = [5, 2, 0xD7, 0x04, 0xC8, 0x01, 0];
        assert_eq!(raw, v4_blob(3, buf.len() as u64, &body));
        let back = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(back, idx);
        for i in 0..3 {
            assert_eq!(back.line(&buf, i), idx.line(&buf, i));
        }
    }

    #[test]
    fn v4_rejects_bad_crc_trailing_bytes_and_truncation() {
        let good = v4_blob(2, 7, &[4, 2]);
        assert_eq!(LineIndex::read_from(good.as_slice()).unwrap().len(), 2);
        let mut bad_crc = good.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        let err = LineIndex::read_from(bad_crc.as_slice()).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(LineIndex::read_from(trailing.as_slice()).is_err());
        for cut in 0..good.len() {
            assert!(LineIndex::read_from(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn v4_rejects_malformed_ranges_and_varints() {
        let rejected = |n: u64, total: u64, body: &[u8]| {
            LineIndex::read_from(v4_blob(n, total, body).as_slice()).is_err()
        };
        assert!(rejected(1, 3, &[6]), "len 4 ends past total 3");
        assert!(rejected(1, 10, &[1, 0]), "a flagged gap of zero");
        assert!(rejected(1, 10, &[0x84, 0x00]), "overlong varint");
        assert!(rejected(1, u64::MAX, &[0xFF; 10]), "varint past 64 bits");
        // An end and a start past u64::MAX: checked adds, not wrapped
        // ranges. `max` is the varint of u64::MAX; `half` that of a
        // 2^63-byte line without a gap.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let half = [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let body = [&[1][..], &max].concat();
        assert!(rejected(1, u64::MAX, &body), "gap u64::MAX, then a byte");
        let body = [&half[..], &[1], &max].concat();
        assert!(rejected(2, u64::MAX, &body), "second start past u64::MAX");
        let body = [&half[..], &[1, 5]].concat();
        assert!(!rejected(2, u64::MAX, &body), "both lines fit");
        // A count larger than the lines present is a truncation.
        assert!(rejected(3, 7, &[4, 2]));
        assert!(!rejected(2, 7, &[4, 2]));
    }

    #[test]
    fn legacy_derived_ranges_must_be_non_empty_and_in_bounds() {
        // Regression: a v1/v2 index with count 1, total 0 and start 0
        // derived its end as `0 - 1` — a subtraction overflow in debug
        // builds and `0..usize::MAX` in release.
        let legacy = |magic: &[u8; 8], total: u64, flag: Option<u8>, starts: &[u64]| {
            let mut raw = magic.to_vec();
            raw.extend_from_slice(&(starts.len() as u64).to_le_bytes());
            raw.extend_from_slice(&total.to_le_bytes());
            raw.extend(flag);
            for s in starts {
                raw.extend_from_slice(&s.to_le_bytes());
            }
            LineIndex::read_from(raw.as_slice())
        };
        assert!(legacy(MAGIC_V1, 0, None, &[0]).is_err());
        assert!(legacy(MAGIC_V2, 0, Some(1), &[0]).is_err());
        // Consecutive starts one byte apart derive an empty first line.
        assert!(legacy(MAGIC_V2, 10, Some(1), &[3, 4]).is_err());
        assert!(legacy(MAGIC_V1, 10, None, &[3, 4]).is_err());
        // A final start on the trailing newline derives an empty last line.
        assert!(legacy(MAGIC_V2, 5, Some(1), &[0, 4]).is_err());
        // The same shapes one byte wider are fine.
        assert_eq!(
            legacy(MAGIC_V2, 1, Some(0), &[0]).unwrap().line_range(0),
            0..1
        );
        assert_eq!(
            legacy(MAGIC_V1, 10, None, &[3, 5]).unwrap().line_range(0),
            3..4
        );
    }

    #[test]
    fn v2_equal_consecutive_starts_rejected() {
        // Regression: `v < prev` accepted duplicate offsets, arming a
        // reversed line_range (start..start-1) that panics in line().
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC_V2);
        raw.extend_from_slice(&2u64.to_le_bytes());
        raw.extend_from_slice(&10u64.to_le_bytes());
        raw.push(1);
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes()); // duplicate start
        assert!(LineIndex::read_from(raw.as_slice()).is_err());

        // Zero is a valid *first* start, and must stay accepted.
        let mut ok = Vec::new();
        ok.extend_from_slice(MAGIC_V2);
        ok.extend_from_slice(&2u64.to_le_bytes());
        ok.extend_from_slice(&10u64.to_le_bytes());
        ok.push(1);
        ok.extend_from_slice(&0u64.to_le_bytes());
        ok.extend_from_slice(&4u64.to_le_bytes());
        assert_eq!(LineIndex::read_from(ok.as_slice()).unwrap().len(), 2);
    }

    #[test]
    fn v2_sidecar_still_reads_with_derived_ends() {
        // A v2 file (starts + flag) for "CCO\nCC\n".
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC_V2);
        raw.extend_from_slice(&2u64.to_le_bytes()); // count
        raw.extend_from_slice(&7u64.to_le_bytes()); // total
        raw.push(1); // trailing newline
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes());
        let idx = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.line_range(0), 0..3);
        assert_eq!(idx.line_range(1), 4..6);
        assert_eq!(idx, LineIndex::build(b"CCO\nCC\n"));
    }

    #[test]
    fn v1_sidecar_still_reads() {
        // A v1 file (no flag byte) for "CCO\nCC\n".
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC_V1);
        raw.extend_from_slice(&2u64.to_le_bytes()); // count
        raw.extend_from_slice(&7u64.to_le_bytes()); // total
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.extend_from_slice(&4u64.to_le_bytes());
        let idx = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.line_range(1), 4..6, "v1 assumes newline-terminated");
    }

    #[test]
    fn empty_lines_skipped() {
        let buf = b"\n\nCCO\n\nCC\n\n";
        let idx = LineIndex::build(buf);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.line(buf, 0), b"CCO");
        assert_eq!(idx.line(buf, 1), b"CC");
    }

    #[test]
    fn empty_buffer() {
        let idx = LineIndex::build(b"");
        assert!(idx.is_empty());
    }

    #[test]
    fn random_access_into_compressed_archive() {
        let lines: Vec<&[u8]> = [
            b"COc1cc(C=O)ccc1O".as_slice(),
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
        ]
        .repeat(10);
        let dict = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(lines.iter().copied())
        .unwrap();
        let mut z = Vec::new();
        let mut c = Compressor::new(&dict);
        for l in &lines {
            c.compress_line(l, &mut z);
            z.push(b'\n');
        }
        let idx = LineIndex::build(&z);
        assert_eq!(idx.len(), 30);
        for i in [0usize, 7, 15, 29] {
            let got = idx.decompress_line_at(&dict, &z, i).unwrap();
            assert_eq!(got, lines[i], "line {i}");
        }
    }

    #[test]
    fn sidecar_round_trip() {
        let buf = b"CCO\nc1ccccc1\nN\n";
        let idx = LineIndex::build(buf);
        let mut raw = Vec::new();
        idx.write_to(&mut raw).unwrap();
        let back = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(idx, back);
    }

    #[test]
    fn sidecar_rejects_garbage() {
        assert!(LineIndex::read_from(&b"NOTANIDX"[..]).is_err());
        assert!(LineIndex::read_from(&b"ZS"[..]).is_err());
        // Non-monotonic offsets (v2 wire).
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC_V2);
        raw.extend_from_slice(&2u64.to_le_bytes());
        raw.extend_from_slice(&100u64.to_le_bytes());
        raw.push(1); // trailing-newline flag
        raw.extend_from_slice(&50u64.to_le_bytes());
        raw.extend_from_slice(&10u64.to_le_bytes());
        assert!(LineIndex::read_from(raw.as_slice()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let buf = b"CCO\nCC\n";
        let idx = LineIndex::build(buf);
        let path = std::env::temp_dir().join("zsmiles_test.zsx");
        idx.save(&path).unwrap();
        let back = LineIndex::read_from(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(idx, back);
        std::fs::remove_file(&path).ok();
    }
}
