//! The `.zsa` archive container: one self-describing file for the whole
//! random-access story.
//!
//! The loose-file workflow needs three artifacts — the compressed deck
//! (`.zsmi`), its dictionary (`.dct`), and a line-offset sidecar (`.zsx`).
//! Losing any one of them costs either decodability or O(1) access. A
//! `.zsa` file carries all three sections plus integrity metadata, the way
//! FSST-style string codecs ship symbol table and payload as one unit:
//!
//! ```text
//! offset 0         "ZSAR0001"                     magic
//!        8         flavor tag (1 base, 2 wide)    which dictionary format
//!        9..16     reserved (zero)
//!        16        dict_len: u64 LE
//!        24        payload_len: u64 LE
//!        32        dictionary bytes               readable .dct text, either flavour
//!        ...       payload bytes                  newline-separated compressed lines
//!        ...       line index                     LineIndex wire format, v4:
//!                    "ZSXIDX04", count: u64 LE,     ~1 byte per line
//!                    total: u64 LE, one varint per
//!                    line (+ a gap varint after
//!                    blank bytes), crc32: u32 LE
//!        ...       index_len: u64 LE
//!        ...       crc32: u32 LE                  over every preceding byte
//!        end-8     "ZSAREND1"                     trailer magic
//! ```
//!
//! Properties preserved from the paper's design:
//!
//! * the **payload stays readable text** — `grep` through a `.zsa` still
//!   hits compressed SMILES lines; only the index and the fixed-size
//!   header/footer are binary;
//! * **O(1) `get(line)`** without sidecars: the footer locates the index,
//!   the index locates the line;
//! * the **dictionary travels with the data**, so archives are
//!   self-decoding on any machine, either code width, sniffed by tag.
//!
//! The CRC32 (reused from [`textcomp::crc32`], the same routine the
//! bzip-like baseline uses per block) covers header, dictionary, payload
//! and index, so truncation and bit rot are detected before any decode is
//! attempted. The index also ends with a CRC32 of its own (see
//! [`crate::index`]), which the out-of-core reader checks at open: it
//! never reads the payload there, so the container CRC waits for an
//! explicit verify, but a damaged index is refused before any `get`.
//! Indexes in versions 1–3 of the [`LineIndex`] wire format, written by
//! earlier releases, still read.

use crate::compress::CompressStats;
use crate::decompress::DecompressStats;
use crate::engine::{AnyDictionary, DictFlavor};
use crate::error::ZsmilesError;
use crate::index::LineIndex;
use std::io::Write;
use std::path::Path;
use textcomp::crc32::crc32;

pub(crate) const MAGIC: &[u8; 8] = b"ZSAR0001";
pub(crate) const TRAILER: &[u8; 8] = b"ZSAREND1";
/// Fixed header: magic + flavor + reserved + dict_len + payload_len.
pub(crate) const HEADER_LEN: usize = 8 + 1 + 7 + 8 + 8;
/// Fixed footer: index_len + crc32 + trailer.
pub(crate) const FOOTER_LEN: usize = 8 + 4 + 8;

pub(crate) fn bad(reason: impl Into<String>) -> ZsmilesError {
    ZsmilesError::ArchiveFormat {
        reason: reason.into(),
    }
}

/// Byte layout of one container: where each section lives, parsed from
/// the fixed-size header and footer alone. This is the shared ground
/// between the in-memory [`Archive`] parser and the out-of-core
/// [`crate::reader::ArchiveReader`], which must locate sections without
/// touching the payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub flavor: DictFlavor,
    pub dict_start: u64,
    pub dict_len: u64,
    pub payload_start: u64,
    pub payload_len: u64,
    pub index_start: u64,
    pub index_len: u64,
    pub stored_crc: u32,
}

/// Parse and cross-check the fixed-size header (`HEADER_LEN` bytes at
/// offset 0) and footer (`FOOTER_LEN` bytes ending the file) of a
/// container `total` bytes long.
pub(crate) fn parse_layout(
    header: &[u8],
    footer: &[u8],
    total: u64,
) -> Result<Layout, ZsmilesError> {
    debug_assert_eq!(header.len(), HEADER_LEN);
    debug_assert_eq!(footer.len(), FOOTER_LEN);
    if total < (HEADER_LEN + FOOTER_LEN) as u64 {
        return Err(bad(format!(
            "file too short for a .zsa container ({total} bytes)"
        )));
    }
    if &header[..8] != MAGIC {
        return Err(bad("bad magic: not a .zsa archive"));
    }
    if &footer[12..20] != TRAILER {
        return Err(bad("bad trailer: archive truncated or not a .zsa file"));
    }
    let flavor = DictFlavor::from_tag(header[8])
        .ok_or_else(|| bad(format!("unknown dictionary flavor tag {}", header[8])))?;
    let dict_len = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let payload_len = u64::from_le_bytes(header[24..32].try_into().unwrap());
    let index_len = u64::from_le_bytes(footer[0..8].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(footer[8..12].try_into().unwrap());

    let dict_start = HEADER_LEN as u64;
    let payload_start = dict_start
        .checked_add(dict_len)
        .ok_or_else(|| bad("dict_len overflow"))?;
    let index_start = payload_start
        .checked_add(payload_len)
        .ok_or_else(|| bad("payload_len overflow"))?;
    let index_end = index_start
        .checked_add(index_len)
        .ok_or_else(|| bad("index_len overflow"))?;
    let index_len_at = total - FOOTER_LEN as u64;
    if index_end != index_len_at {
        return Err(bad(format!(
            "section sizes inconsistent: header says sections end at {index_end}, \
             footer starts at {index_len_at}"
        )));
    }
    Ok(Layout {
        flavor,
        dict_start,
        dict_len,
        payload_start,
        payload_len,
        index_start,
        index_len,
        stored_crc,
    })
}

/// An [`std::io::Write`] adapter that hashes and counts everything it
/// forwards — how [`Archive::write_to`] keeps the CRC streaming while
/// writing sections straight through.
struct CrcCountWriter<W: Write> {
    inner: W,
    crc: textcomp::crc32::Crc32,
    written: u64,
}

impl<W: Write> CrcCountWriter<W> {
    fn new(inner: W) -> Self {
        CrcCountWriter {
            inner,
            crc: textcomp::crc32::Crc32::new(),
            written: 0,
        }
    }
}

impl<W: Write> Write for CrcCountWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A packed, indexed, self-describing SMILES archive.
#[derive(Debug, Clone)]
pub struct Archive {
    dict: AnyDictionary,
    payload: Vec<u8>,
    index: LineIndex,
    /// Compression accounting — known when the archive was packed in this
    /// process, absent after [`Archive::open`] (the original size is not
    /// stored in the container).
    stats: Option<CompressStats>,
}

impl Archive {
    /// Compress `deck` (newline-separated SMILES) with `dict` on
    /// `threads` workers and index the result.
    pub fn pack(dict: AnyDictionary, deck: &[u8], threads: usize) -> Archive {
        let (payload, stats) = dict.compress_parallel(deck, threads);
        let index = LineIndex::build(&payload);
        Archive {
            dict,
            payload,
            index,
            stats: Some(stats),
        }
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

    /// The compressed payload (newline-separated, readable).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The line-offset index.
    pub fn index(&self) -> &LineIndex {
        &self.index
    }

    /// Compression accounting, if the archive was packed in this process.
    pub fn stats(&self) -> Option<&CompressStats> {
        self.stats.as_ref()
    }

    /// The compressed bytes of ligand `i` — the unit a random-access read
    /// transfers.
    pub fn compressed_line(&self, i: usize) -> Result<&[u8], ZsmilesError> {
        if i >= self.index.len() {
            return Err(ZsmilesError::LineOutOfRange {
                line: i,
                len: self.index.len(),
            });
        }
        Ok(self.index.line(&self.payload, i))
    }

    /// Decompress ligand `i` — the paper's random-access read: one line is
    /// touched, not the archive.
    pub fn get(&self, i: usize) -> Result<Vec<u8>, ZsmilesError> {
        let line = self.compressed_line(i)?;
        let mut out = Vec::new();
        self.dict.decompress_line(line, &mut out)?;
        Ok(out)
    }

    /// Decode a set of lines in the order given — the shared core of
    /// every batched fetch.
    fn decode_lines<I>(&self, indices: I) -> Result<Vec<Vec<u8>>, ZsmilesError>
    where
        I: ExactSizeIterator<Item = usize>,
    {
        let mut out = Vec::with_capacity(indices.len());
        for i in indices {
            out.push(self.get(i)?);
        }
        Ok(out)
    }

    /// Decompress a contiguous run of ligands — the batch-fetch unit
    /// screening campaigns pull after scoring.
    pub fn get_range(&self, lines: std::ops::Range<usize>) -> Result<Vec<Vec<u8>>, ZsmilesError> {
        self.decode_lines(lines)
    }

    /// Decompress an arbitrary set of ligands (hit lists are rarely
    /// contiguous), in the order given.
    pub fn get_many(&self, indices: &[usize]) -> Result<Vec<Vec<u8>>, ZsmilesError> {
        self.decode_lines(indices.iter().copied())
    }

    /// Decompress the whole deck on `threads` workers.
    pub fn unpack(&self, threads: usize) -> Result<(Vec<u8>, DecompressStats), ZsmilesError> {
        self.dict.decompress_parallel(&self.payload, threads)
    }

    // -- serialization ------------------------------------------------------

    /// Serialize the container, streaming each section straight to `w`.
    ///
    /// The CRC covers the bytes exactly as written, tracked by a hashing
    /// writer wrapper — no staging copy of the container is ever built
    /// (archives are payload-dominated, so the old assemble-then-write
    /// path doubled peak memory for nothing).
    pub fn write_to<W: Write>(&self, w: W) -> std::io::Result<()> {
        // Only the dictionary is pre-serialized: its length is a header
        // field, and dictionaries are kilobytes next to payloads.
        let mut dict_bytes = Vec::new();
        self.dict.write(&mut dict_bytes)?;

        let mut cw = CrcCountWriter::new(w);
        cw.write_all(MAGIC)?;
        cw.write_all(&[self.dict.flavor().tag()])?;
        cw.write_all(&[0u8; 7])?;
        cw.write_all(&(dict_bytes.len() as u64).to_le_bytes())?;
        cw.write_all(&(self.payload.len() as u64).to_le_bytes())?;
        cw.write_all(&dict_bytes)?;
        cw.write_all(&self.payload)?;
        let before_index = cw.written;
        self.index.write_to(&mut cw)?;
        let index_len = cw.written - before_index;
        cw.write_all(&index_len.to_le_bytes())?;
        let crc = cw.crc.finish();
        let mut w = cw.inner;
        w.write_all(&crc.to_le_bytes())?;
        w.write_all(TRAILER)?;
        w.flush()
    }

    /// Parse a container, verifying trailer, CRC and section bounds before
    /// touching any content.
    pub fn read_from(bytes: &[u8]) -> Result<Archive, ZsmilesError> {
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(bad(format!(
                "file too short for a .zsa container ({} bytes)",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(bad("bad magic: not a .zsa archive"));
        }
        if &bytes[bytes.len() - 8..] != TRAILER {
            return Err(bad("bad trailer: archive truncated or not a .zsa file"));
        }
        // With all bytes in hand, verify the checksum before interpreting
        // any section — the out-of-core reader cannot afford this pass and
        // offers it separately as `ArchiveReader::verify`.
        let crc_at = bytes.len() - 12;
        let stored_crc = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().unwrap());
        let actual_crc = crc32(&bytes[..crc_at]);
        if stored_crc != actual_crc {
            return Err(bad(format!(
                "CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x} — archive corrupt"
            )));
        }

        let layout = parse_layout(
            &bytes[..HEADER_LEN],
            &bytes[bytes.len() - FOOTER_LEN..],
            bytes.len() as u64,
        )?;
        let dict_start = layout.dict_start as usize;
        let payload_start = layout.payload_start as usize;
        let index_start = layout.index_start as usize;
        let index_end = (layout.index_start + layout.index_len) as usize;

        let dict = AnyDictionary::read(&bytes[dict_start..payload_start])?;
        if dict.flavor() != layout.flavor {
            return Err(bad(format!(
                "flavor tag says {} but embedded dictionary is {}",
                layout.flavor.name(),
                dict.flavor().name()
            )));
        }
        let payload = bytes[payload_start..index_start].to_vec();
        let index = LineIndex::read_from(&bytes[index_start..index_end])?;
        // The stored index must describe this exact payload — a foreign or
        // buggy writer can produce a CRC-consistent container whose index
        // points past the payload, which would turn get() into a slice
        // panic. Rebuilding is one scan, cheap next to the CRC pass.
        if index != LineIndex::build(&payload) {
            return Err(bad("index does not match payload line structure"));
        }
        Ok(Archive {
            dict,
            payload,
            index,
            stats: None,
        })
    }

    pub fn save(&self, path: &Path) -> Result<(), ZsmilesError> {
        let f = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(f))?;
        Ok(())
    }

    pub fn open(path: &Path) -> Result<Archive, ZsmilesError> {
        let bytes = std::fs::read(path)?;
        Archive::read_from(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::builder::DictBuilder;
    use crate::wide::WideDictBuilder;

    fn deck_lines() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 5] = [
            b"COc1cc(C=O)ccc1O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(100).collect()
    }

    fn deck_bytes() -> Vec<u8> {
        deck_lines()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect()
    }

    fn base_dict() -> AnyDictionary {
        AnyDictionary::Base(Box::new(
            DictBuilder {
                min_count: 2,
                preprocess: false,
                ..Default::default()
            }
            .train(deck_lines())
            .unwrap(),
        ))
    }

    fn wide_dict() -> AnyDictionary {
        AnyDictionary::Wide(Box::new(
            WideDictBuilder {
                base: DictBuilder {
                    min_count: 2,
                    preprocess: false,
                    ..Default::default()
                },
                wide_size: 32,
            }
            .train(deck_lines())
            .unwrap(),
        ))
    }

    #[test]
    fn pack_serialize_open_round_trips_both_flavours() {
        let deck = deck_bytes();
        for dict in [base_dict(), wide_dict()] {
            let flavor = dict.flavor();
            let archive = Archive::pack(dict, &deck, 2);
            assert_eq!(archive.len(), 100, "{flavor:?}");
            assert!(archive.stats().unwrap().ratio() < 1.0);

            let mut blob = Vec::new();
            archive.write_to(&mut blob).unwrap();
            let reopened = Archive::read_from(&blob).unwrap();
            assert_eq!(reopened.len(), archive.len());
            assert_eq!(reopened.flavor(), flavor);
            assert_eq!(reopened.payload(), archive.payload());

            // Random access on the reopened container.
            for i in [0usize, 7, 42, 99] {
                assert_eq!(
                    reopened.get(i).unwrap(),
                    deck_lines()[i],
                    "{flavor:?} line {i}"
                );
            }
            // Full unpack restores the deck byte-for-byte (preprocess off).
            let (back, stats) = reopened.unpack(3).unwrap();
            assert_eq!(back, deck);
            assert_eq!(stats.lines, 100);
        }
    }

    #[test]
    fn payload_stays_readable_inside_the_container() {
        let archive = Archive::pack(base_dict(), &deck_bytes(), 1);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        // Every payload byte within the container remains displayable.
        for &b in archive.payload() {
            assert!(
                b == b'\n' || b == b' ' || (0x21..=0x7E).contains(&b) || b >= 0x80,
                "payload byte {b:#04x} not displayable"
            );
        }
    }

    #[test]
    fn corrupted_bytes_rejected_by_crc() {
        let archive = Archive::pack(base_dict(), &deck_bytes(), 1);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        // Flip one payload bit.
        let mid = blob.len() / 2;
        blob[mid] ^= 0x01;
        let err = Archive::read_from(&blob).unwrap_err();
        assert!(
            matches!(&err, ZsmilesError::ArchiveFormat { reason } if reason.contains("CRC")),
            "expected CRC error, got {err}"
        );
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let archive = Archive::pack(base_dict(), &deck_bytes(), 1);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        assert!(
            Archive::read_from(&blob[..blob.len() - 1]).is_err(),
            "truncated trailer"
        );
        assert!(Archive::read_from(&blob[..40]).is_err(), "truncated body");
        assert!(Archive::read_from(b"ZSAR0001").is_err(), "header only");
        assert!(Archive::read_from(b"not an archive at all, just text").is_err());
        let mut wrong_magic = blob.clone();
        wrong_magic[0] = b'X';
        assert!(Archive::read_from(&wrong_magic).is_err());
    }

    #[test]
    fn crc_consistent_but_lying_index_is_rejected() {
        // A foreign writer can produce a container whose CRC is valid but
        // whose index points past the payload; reading it must error, not
        // arm a later slice panic in get().
        let archive = Archive::pack(base_dict(), &deck_bytes(), 1);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();

        // Locate the index section and bump its `total` field (bytes
        // 16..24 of the section: magic(8) + count(8) + total(8)).
        let footer = blob.len() - FOOTER_LEN;
        let index_len = u64::from_le_bytes(blob[footer..footer + 8].try_into().unwrap()) as usize;
        let index_start = footer - index_len;
        let total_at = index_start + 16;
        let total = u64::from_le_bytes(blob[total_at..total_at + 8].try_into().unwrap());
        blob[total_at..total_at + 8].copy_from_slice(&(total + 50).to_le_bytes());
        // The index carries its own CRC in its last four bytes; an honest
        // writer signs the index it meant to write.
        let index_crc = crc32(&blob[index_start..footer - 4]);
        blob[footer - 4..footer].copy_from_slice(&index_crc.to_le_bytes());
        // Recompute the CRC the way a buggy-but-honest writer would.
        let crc_at = blob.len() - 12;
        let crc = crc32(&blob[..crc_at]);
        blob[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

        let err = Archive::read_from(&blob).unwrap_err();
        assert!(
            matches!(&err, ZsmilesError::ArchiveFormat { reason }
                if reason.contains("index does not match")),
            "got {err}"
        );
    }

    #[test]
    fn get_out_of_range_is_an_error() {
        let archive = Archive::pack(base_dict(), &deck_bytes(), 1);
        let err = archive.get(100).unwrap_err();
        assert!(matches!(
            err,
            ZsmilesError::LineOutOfRange {
                line: 100,
                len: 100
            }
        ));
    }

    #[test]
    fn empty_deck_packs_and_reopens() {
        let archive = Archive::pack(base_dict(), b"", 4);
        assert!(archive.is_empty());
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        let reopened = Archive::read_from(&blob).unwrap();
        assert_eq!(reopened.len(), 0);
        assert!(reopened.get(0).is_err());
    }

    #[test]
    fn file_save_open_round_trip() {
        let deck = deck_bytes();
        let archive = Archive::pack(wide_dict(), &deck, 2);
        let path = std::env::temp_dir().join("zsmiles_test_archive.zsa");
        archive.save(&path).unwrap();
        let reopened = Archive::open(&path).unwrap();
        assert_eq!(reopened.flavor(), DictFlavor::Wide);
        assert_eq!(reopened.get(13).unwrap(), deck_lines()[13]);
        std::fs::remove_file(&path).ok();
    }
}
