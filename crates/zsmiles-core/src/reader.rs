//! Out-of-core `.zsa` reading: seek the footer, load only the metadata,
//! then fetch exactly the payload ranges callers ask for.
//!
//! [`crate::Archive`] parses a container it already holds in memory —
//! fine for decks that fit in RAM, wrong for the paper's setting of
//! tens-of-terabyte screening libraries. [`ArchiveReader`] is the
//! out-of-core redesign of the read path:
//!
//! 1. **Open** reads the fixed-size footer and header, then the embedded
//!    dictionary and the line index. On disk the index costs about one
//!    byte per line (wire version 4), so opening a 100M-line archive
//!    reads ~100 MB of metadata; held in memory it is one `u64` anchor
//!    per 64 lines plus one length byte per line (see
//!    [`crate::index`]), about 1.13 bytes, so that same archive holds
//!    ~113 MB of index (two `u64`s per line took 1.6 GB). The payload is
//!    *never* loaded wholesale.
//! 2. **`get(line)`** issues one positioned read for that line's exact
//!    byte range (the [`crate::index::LineIndex`] stores exact ends) into
//!    a stack buffer and decodes it into an exactly sized result — one
//!    heap allocation per call. A random-access fetch transfers footer +
//!    metadata once, then one compressed line per request — the property
//!    the counting-source tests pin down.
//! 3. **`get_range`** / [`ArchiveReader::lines`] / `unpack_to` batch
//!    contiguous lines into single reads, for campaign-style "pull these
//!    thousand hits" workloads and full streaming unpacks in bounded
//!    memory. They walk the index with its [`LineIndex::ranges`] cursor,
//!    O(1) a line.
//!
//! The reader is generic over [`ArchiveSource`] — a file via
//! [`FileSource`], bytes via [`crate::source::InMemorySource`] or
//! `&[u8]`, or any caller-provided positioned-read backend (an mmap, an
//! object store). Decoding goes through [`AnyDictionary`], so none of
//! this code knows which code width the archive uses. Decks on disk are
//! read through [`crate::shard::ShardedReader`], which holds one
//! `ArchiveReader` over a [`crate::source::AutoSource`] per file, a bare
//! `.zsa` included.
//!
//! # Integrity
//!
//! Opening validates structure (magic, trailer, section bounds, index
//! consistency with the payload length) but cannot checksum a payload it
//! refuses to read; [`ArchiveReader::verify`] streams the whole container
//! through the CRC in bounded memory when end-to-end integrity is worth
//! one sequential pass.

use crate::archive::{bad, parse_layout, FOOTER_LEN, HEADER_LEN};
use crate::decompress::DecompressStats;
use crate::engine::{AnyDictionary, DictFlavor};
use crate::error::ZsmilesError;
use crate::index::{LineIndex, Ranges};
use crate::source::{ArchiveSource, FileSource};
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use textcomp::crc32::Crc32;

/// Default byte budget for one batched payload read.
pub const DEFAULT_BATCH_BYTES: usize = 1 << 20;

/// Default chunk size for [`ArchiveReader::unpack_to`]: bytes of payload
/// read and decoded per parallel call.
pub const DEFAULT_CHUNK: usize = 8 << 20;

/// Stack buffer a single-line fetch reads into. Compressed SMILES lines
/// run to tens of bytes; a longer line takes one heap read instead.
const LINE_STACK_BYTES: usize = 256;

/// A `.zsa` archive opened for random access without loading its payload.
#[derive(Debug)]
pub struct ArchiveReader<S: ArchiveSource> {
    source: S,
    dict: AnyDictionary,
    index: LineIndex,
    payload_start: u64,
    payload_len: u64,
    index_len: u64,
    metadata_bytes: u64,
    stored_crc: u32,
}

impl ArchiveReader<FileSource> {
    /// Open a `.zsa` file for out-of-core random access with plain
    /// positioned I/O. Reads header, footer, dictionary and line index;
    /// the payload stays on disk.
    pub fn open(path: &Path) -> Result<ArchiveReader<FileSource>, ZsmilesError> {
        ArchiveReader::from_source(FileSource::open(path)?)
    }
}

impl<S: ArchiveSource> ArchiveReader<S> {
    /// Open a container served by `source`, loading only its metadata
    /// sections (header, footer, dictionary, line index). The header's
    /// `dict_len` is bounded by [`crate::engine::MAX_DICT_BYTES`] before
    /// the dictionary is read, so an untrusted header cannot make the
    /// open reserve more than that for it.
    pub fn from_source(source: S) -> Result<ArchiveReader<S>, ZsmilesError> {
        let total = source.len();
        if total < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(bad(format!(
                "file too short for a .zsa container ({total} bytes)"
            )));
        }
        let footer = source.read_range(total - FOOTER_LEN as u64, FOOTER_LEN)?;
        let header = source.read_range(0, HEADER_LEN)?;
        let layout = parse_layout(&header, &footer, total)?;

        let dict_bytes = source.read_range(layout.dict_start, layout.dict_len as usize)?;
        let dict = AnyDictionary::read(&dict_bytes)?;
        if dict.flavor() != layout.flavor {
            return Err(bad(format!(
                "flavor tag says {} but embedded dictionary is {}",
                layout.flavor.name(),
                dict.flavor().name()
            )));
        }
        let index_bytes = source.read_range(layout.index_start, layout.index_len as usize)?;
        let index = LineIndex::read_from_bytes(&index_bytes)?;
        // The index must describe exactly the payload section. Its own
        // parser already guarantees every stored range lies inside
        // `total_bytes()`, so this one comparison makes every later
        // byte-range read provably in-bounds — the out-of-core substitute
        // for the in-memory parser's rebuild-and-compare.
        if index.total_bytes() != layout.payload_len {
            return Err(bad(format!(
                "index describes {} payload bytes but the container holds {}",
                index.total_bytes(),
                layout.payload_len
            )));
        }
        Ok(ArchiveReader {
            source,
            dict,
            index,
            payload_start: layout.payload_start,
            payload_len: layout.payload_len,
            index_len: layout.index_len,
            metadata_bytes: (HEADER_LEN + FOOTER_LEN) as u64 + layout.dict_len + layout.index_len,
            stored_crc: layout.stored_crc,
        })
    }

    /// Number of ligands stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Which dictionary flavour the archive embeds.
    pub fn flavor(&self) -> DictFlavor {
        self.dict.flavor()
    }

    /// The embedded dictionary.
    pub fn dictionary(&self) -> &AnyDictionary {
        &self.dict
    }

    /// The line-offset index.
    pub fn index(&self) -> &LineIndex {
        &self.index
    }

    /// Compressed payload size in bytes (not resident — still in the
    /// source).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_len
    }

    /// Size in bytes of the stored line index section (its wire version
    /// is [`LineIndex::wire_version`] on [`ArchiveReader::index`]).
    pub fn index_bytes(&self) -> u64 {
        self.index_len
    }

    /// Bytes of metadata (header, footer, dictionary, index) a reader
    /// transfers at open time, before any line is requested.
    pub fn metadata_bytes(&self) -> u64 {
        self.metadata_bytes
    }

    /// The CRC32 stored in the container's footer. Structural identity a
    /// shard manifest can cross-check without reading any payload
    /// (verifying the checksum is [`ArchiveReader::verify`]).
    pub fn container_crc(&self) -> u32 {
        self.stored_crc
    }

    /// The underlying source.
    pub fn source(&self) -> &S {
        &self.source
    }

    pub fn into_source(self) -> S {
        self.source
    }

    fn check_line(&self, i: usize) -> Result<(), ZsmilesError> {
        if i >= self.index.len() {
            return Err(ZsmilesError::LineOutOfRange {
                line: i,
                len: self.index.len(),
            });
        }
        Ok(())
    }

    /// The compressed bytes of ligand `i`: one positioned read of exactly
    /// that line's range.
    pub fn compressed_line(&self, i: usize) -> Result<Vec<u8>, ZsmilesError> {
        self.check_line(i)?;
        self.read_span(self.index.line_range(i))
    }

    /// Decompress ligand `i` — the paper's random-access read, out of
    /// core: the transfer is that line's compressed bytes, nothing else.
    /// A line of up to 256 compressed bytes is read into a stack buffer, so
    /// the returned line is the call's only heap allocation.
    pub fn get(&self, i: usize) -> Result<Vec<u8>, ZsmilesError> {
        self.check_line(i)?;
        let r = self.index.line_range(i);
        let mut stack = [0u8; LINE_STACK_BYTES];
        let heap;
        let line: &[u8] = match stack.get_mut(..r.len()) {
            Some(buf) => {
                self.source
                    .read_at(self.payload_start + r.start as u64, buf)?;
                buf
            }
            None => {
                heap = self.read_span(r)?;
                &heap
            }
        };
        let mut out = Vec::new();
        self.dict.decompress_line(line, &mut out)?;
        Ok(out)
    }

    /// Decompress a contiguous run of ligands with **one** positioned
    /// read covering the run.
    pub fn get_range(&self, lines: Range<usize>) -> Result<Vec<Vec<u8>>, ZsmilesError> {
        if lines.end > self.index.len() {
            return Err(ZsmilesError::LineOutOfRange {
                line: lines.end.saturating_sub(1),
                len: self.index.len(),
            });
        }
        if lines.is_empty() {
            return Ok(Vec::new());
        }
        let span_start = self.index.line_range(lines.start).start;
        let span_end = self.index.line_range(lines.end - 1).end;
        let span = self.read_span(span_start..span_end)?;

        let mut out = Vec::with_capacity(lines.len());
        for r in self.index.ranges(lines) {
            let mut smiles = Vec::new();
            self.dict
                .decompress_line(&span[r.start - span_start..r.end - span_start], &mut smiles)?;
            out.push(smiles);
        }
        Ok(out)
    }

    /// Decompress an arbitrary set of ligands (hit lists are rarely
    /// contiguous), in the order given — one [`ArchiveReader::get`] per
    /// requested line, so `k` lines cost `k + 1` allocations.
    pub fn get_many(&self, indices: &[usize]) -> Result<Vec<Vec<u8>>, ZsmilesError> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.get(i)?);
        }
        Ok(out)
    }

    /// Iterate every ligand in order, reading the payload in batches of
    /// [`DEFAULT_BATCH_BYTES`].
    pub fn lines(&self) -> LineIter<'_, S> {
        self.lines_batched(DEFAULT_BATCH_BYTES)
    }

    /// [`ArchiveReader::lines`] with an explicit per-batch byte budget
    /// (always at least one line per batch).
    pub fn lines_batched(&self, batch_bytes: usize) -> LineIter<'_, S> {
        LineIter {
            reader: self,
            ranges: self.index.ranges(0..self.index.len()),
            batch: Vec::new(),
            batch_start: 0,
            batch_end_line: 0,
            next: 0,
            batch_bytes: batch_bytes.max(1),
            failed: false,
        }
    }

    /// Grow a batch of lines starting at line `i` until it would exceed
    /// `budget` payload bytes (always at least one line). Returns the
    /// first line *not* in the batch and the batch's payload byte span —
    /// the single batching rule the iterator and streaming unpack share.
    fn batch_span(&self, i: usize, budget: usize) -> (usize, Range<usize>) {
        let mut ranges = self.index.ranges(i..self.index.len());
        let first = ranges.next().expect("a batch starts at an indexed line");
        let (mut j, mut end) = (i + 1, first.end);
        for r in ranges.take_while(|r| r.end - first.start <= budget) {
            (j, end) = (j + 1, r.end);
        }
        (j, first.start..end)
    }

    /// Read one payload byte span as positioned I/O.
    fn read_span(&self, span: Range<usize>) -> Result<Vec<u8>, ZsmilesError> {
        self.source
            .read_range(self.payload_start + span.start as u64, span.len())
    }

    /// Stream-decompress the whole archive into `w` on `threads` workers,
    /// reading the payload in chunks of roughly `chunk_bytes` — constant
    /// memory in the archive size.
    pub fn unpack_to<W: Write>(
        &self,
        mut w: W,
        threads: usize,
        chunk_bytes: usize,
    ) -> Result<DecompressStats, ZsmilesError> {
        let chunk_bytes = chunk_bytes.max(1);
        let mut stats = DecompressStats::default();
        let mut i = 0;
        while i < self.index.len() {
            let (j, span) = self.batch_span(i, chunk_bytes);
            let chunk = self.read_span(span)?;
            let (out, s) = self.dict.decompress_parallel(&chunk, threads)?;
            w.write_all(&out)?;
            stats.lines += s.lines;
            stats.in_bytes += s.in_bytes;
            stats.out_bytes += s.out_bytes;
            i = j;
        }
        w.flush()?;
        Ok(stats)
    }

    /// Verify the container's CRC32 end to end, streaming the source in
    /// bounded memory. This is the integrity pass `from_source`
    /// deliberately skips (it would read the whole payload); run it when
    /// opening untrusted archives.
    pub fn verify(&self) -> Result<(), ZsmilesError> {
        let crc_at = self.source.len() - 12;
        let mut hasher = Crc32::new();
        let mut buf = vec![0u8; DEFAULT_BATCH_BYTES.min(crc_at.max(1) as usize)];
        let mut offset = 0u64;
        while offset < crc_at {
            let n = ((crc_at - offset) as usize).min(buf.len());
            self.source.read_at(offset, &mut buf[..n])?;
            hasher.update(&buf[..n]);
            offset += n as u64;
        }
        let actual = hasher.finish();
        if actual != self.stored_crc {
            return Err(bad(format!(
                "CRC mismatch: stored {:08x}, computed {actual:08x} — archive corrupt",
                self.stored_crc
            )));
        }
        Ok(())
    }
}

/// Batched in-order iterator over every decoded line of an archive. One
/// positioned read per batch.
pub struct LineIter<'r, S: ArchiveSource> {
    reader: &'r ArchiveReader<S>,
    /// The range of every line from `next` on.
    ranges: Ranges<'r>,
    batch: Vec<u8>,
    /// Payload offset of `batch[0]`.
    batch_start: usize,
    /// First line *not* covered by the current batch.
    batch_end_line: usize,
    next: usize,
    batch_bytes: usize,
    failed: bool,
}

impl<S: ArchiveSource> LineIter<'_, S> {
    fn fill_batch(&mut self) -> Result<(), ZsmilesError> {
        let (j, span) = self.reader.batch_span(self.next, self.batch_bytes);
        self.batch_start = span.start;
        self.batch = self.reader.read_span(span)?;
        self.batch_end_line = j;
        Ok(())
    }
}

impl<S: ArchiveSource> Iterator for LineIter<'_, S> {
    type Item = Result<Vec<u8>, ZsmilesError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.next >= self.reader.len() {
            return None;
        }
        if self.next >= self.batch_end_line {
            if let Err(e) = self.fill_batch() {
                self.failed = true;
                return Some(Err(e));
            }
        }
        let r = self.ranges.next().expect("one range per line");
        let line = &self.batch[r.start - self.batch_start..r.end - self.batch_start];
        let mut out = Vec::new();
        match self.reader.dict.decompress_line(line, &mut out) {
            Ok(_) => {
                self.next += 1;
                Some(Ok(out))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            return (0, Some(0));
        }
        let left = self.reader.len() - self.next;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Archive;
    use crate::dict::builder::DictBuilder;
    use crate::source::{CountingSource, InMemorySource};
    use crate::wide::WideDictBuilder;

    fn deck_lines() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 5] = [
            b"COc1cc(C=O)ccc1O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(120).collect()
    }

    fn deck_bytes() -> Vec<u8> {
        deck_lines()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect()
    }

    fn dict(wide: bool) -> AnyDictionary {
        let base = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        };
        if wide {
            AnyDictionary::Wide(Box::new(
                WideDictBuilder {
                    base,
                    wide_size: 32,
                }
                .train(deck_lines())
                .unwrap(),
            ))
        } else {
            AnyDictionary::Base(Box::new(base.train(deck_lines()).unwrap()))
        }
    }

    fn container(wide: bool) -> Vec<u8> {
        let archive = Archive::pack(dict(wide), &deck_bytes(), 2);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        blob
    }

    #[test]
    fn reader_matches_in_memory_archive_for_both_flavours() {
        for wide in [false, true] {
            let blob = container(wide);
            let archive = Archive::read_from(&blob).unwrap();
            let reader = ArchiveReader::from_source(blob.as_slice()).unwrap();
            assert_eq!(reader.len(), archive.len());
            assert_eq!(reader.flavor(), archive.flavor());
            assert_eq!(reader.payload_bytes(), archive.payload().len() as u64);
            for i in [0usize, 1, 17, 63, 119] {
                assert_eq!(
                    reader.get(i).unwrap(),
                    archive.get(i).unwrap(),
                    "wide={wide}"
                );
                assert_eq!(
                    reader.compressed_line(i).unwrap(),
                    archive.compressed_line(i).unwrap()
                );
            }
            reader.verify().unwrap();
        }
    }

    #[test]
    fn get_touches_only_metadata_plus_one_line() {
        // The deck plus one line whose compressed form (every control
        // byte escaped, two bytes each) outgrows the stack buffer `get`
        // reads into.
        let long = b"\x07C".repeat(150);
        let mut deck = deck_bytes();
        deck.extend_from_slice(&long);
        deck.push(b'\n');
        let mut blob = Vec::new();
        Archive::pack(dict(false), &deck, 2)
            .write_to(&mut blob)
            .unwrap();
        let total = blob.len() as u64;
        let src = CountingSource::new(InMemorySource::new(blob));
        let reader = ArchiveReader::from_source(src).unwrap();
        let open_bytes = reader.source().bytes_read();
        assert_eq!(
            open_bytes,
            reader.metadata_bytes(),
            "open reads exactly header+footer+dict+index"
        );
        assert!(open_bytes < total, "metadata is a strict subset");
        assert!(reader.index().line_range(120).len() > LINE_STACK_BYTES);

        for (i, want) in [(42, deck_lines()[42]), (120, long.as_slice())] {
            reader.source().reset();
            let line_len = reader.index().line_range(i).len() as u64;
            assert_eq!(reader.get(i).unwrap(), want, "line {i}");
            assert_eq!(reader.source().reads(), 1, "one positioned read per get");
            assert_eq!(
                reader.source().bytes_read(),
                line_len,
                "the read is exactly the line's range"
            );
        }
    }

    #[test]
    fn get_range_is_one_read_and_matches_gets() {
        let blob = container(true);
        let src = CountingSource::new(InMemorySource::new(blob));
        let reader = ArchiveReader::from_source(src).unwrap();
        let singles: Vec<Vec<u8>> = (10..30).map(|i| reader.get(i).unwrap()).collect();
        reader.source().reset();
        let batch = reader.get_range(10..30).unwrap();
        assert_eq!(reader.source().reads(), 1, "a range is one read");
        assert_eq!(batch, singles);
        assert_eq!(reader.get_range(5..5).unwrap(), Vec::<Vec<u8>>::new());
        assert!(matches!(
            reader.get_range(100..200).unwrap_err(),
            ZsmilesError::LineOutOfRange { .. }
        ));
    }

    #[test]
    fn batched_iteration_restores_the_deck() {
        let blob = container(false);
        let reader = ArchiveReader::from_source(blob.as_slice()).unwrap();
        // Tiny batches force many reads; the stream must still be exact.
        for batch_bytes in [1usize, 7, 64, 1 << 20] {
            let lines: Result<Vec<Vec<u8>>, _> = reader.lines_batched(batch_bytes).collect();
            let lines = lines.unwrap();
            assert_eq!(lines.len(), 120, "batch={batch_bytes}");
            assert_eq!(lines, deck_lines(), "batch={batch_bytes}");
        }
        assert_eq!(reader.lines().size_hint(), (120, Some(120)));
    }

    #[test]
    fn unpack_to_streams_the_whole_deck() {
        let blob = container(true);
        let reader = ArchiveReader::from_source(blob.as_slice()).unwrap();
        for chunk in [16usize, 1000, 1 << 22] {
            let mut out = Vec::new();
            let stats = reader.unpack_to(&mut out, 3, chunk).unwrap();
            assert_eq!(out, deck_bytes(), "chunk={chunk}");
            assert_eq!(stats.lines, 120);
        }
    }

    #[test]
    fn zero_line_archive_reads_and_errors_cleanly() {
        let archive = Archive::pack(dict(false), b"", 1);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        let reader = ArchiveReader::from_source(blob.as_slice()).unwrap();
        assert_eq!(reader.len(), 0);
        assert!(reader.is_empty());
        assert!(matches!(
            reader.get(0).unwrap_err(),
            ZsmilesError::LineOutOfRange { line: 0, len: 0 }
        ));
        assert_eq!(reader.lines().count(), 0);
        let mut out = Vec::new();
        reader.unpack_to(&mut out, 2, 1024).unwrap();
        assert!(out.is_empty());
        reader.verify().unwrap();
    }

    #[test]
    fn truncated_and_corrupt_containers_are_rejected() {
        let blob = container(false);
        // Truncated footer / truncated body / garbage.
        assert!(ArchiveReader::from_source(&blob[..blob.len() - 1]).is_err());
        assert!(ArchiveReader::from_source(&blob[..HEADER_LEN + 3]).is_err());
        assert!(ArchiveReader::from_source(&b"ZSAR0001"[..]).is_err());
        assert!(ArchiveReader::from_source(&b"not an archive, just text"[..]).is_err());

        // A payload bit flip passes structural open (metadata untouched)
        // but fails the streaming verify.
        let mut flipped = blob.clone();
        let payload_mid = blob.len() / 2;
        flipped[payload_mid] ^= 0x01;
        let reader = ArchiveReader::from_source(flipped.as_slice());
        if let Ok(reader) = reader {
            let err = reader.verify().unwrap_err();
            assert!(
                matches!(&err, ZsmilesError::ArchiveFormat { reason } if reason.contains("CRC")),
                "got {err}"
            );
        }
    }

    #[test]
    fn lying_index_totals_are_rejected_at_open() {
        // Bump the index section's `total` field and re-sign the CRC the
        // way a buggy-but-honest writer would; the reader must refuse at
        // open (it cannot rebuild the index without the payload, but the
        // total/payload_len cross-check catches the lie).
        let mut blob = container(false);
        let footer = blob.len() - FOOTER_LEN;
        let index_len = u64::from_le_bytes(blob[footer..footer + 8].try_into().unwrap()) as usize;
        let index_start = footer - index_len;
        let total_at = index_start + 16;
        let total = u64::from_le_bytes(blob[total_at..total_at + 8].try_into().unwrap());
        blob[total_at..total_at + 8].copy_from_slice(&(total + 50).to_le_bytes());
        // The index carries its own CRC in its last four bytes; an honest
        // writer signs the index it meant to write.
        let index_crc = textcomp::crc32::crc32(&blob[index_start..footer - 4]);
        blob[footer - 4..footer].copy_from_slice(&index_crc.to_le_bytes());
        let crc_at = blob.len() - 12;
        let crc = textcomp::crc32::crc32(&blob[..crc_at]);
        blob[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

        let err = ArchiveReader::from_source(blob.as_slice()).unwrap_err();
        assert!(
            matches!(&err, ZsmilesError::ArchiveFormat { reason }
                if reason.contains("payload bytes")),
            "got {err}"
        );
    }
}
