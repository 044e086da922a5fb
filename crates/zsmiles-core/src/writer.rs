//! Out-of-core `.zsa` writing: accept raw SMILES incrementally, compress
//! in bounded batches on the persistent worker pool, and finalize the
//! container without ever materializing the payload.
//!
//! [`crate::Archive::pack`] demands the whole deck *and* the whole
//! compressed payload in memory — fine for decks that fit, wrong for the
//! paper's setting of tens-of-terabyte screening libraries.
//! [`ArchiveWriter`] is the write-side mirror of the out-of-core
//! [`crate::reader::ArchiveReader`]:
//!
//! 1. **Create** serializes the dictionary and appends a placeholder
//!    header + the dictionary section to the [`ArchiveSink`]. Nothing
//!    else is ever resident.
//! 2. **`write`** accepts raw deck bytes in arbitrary slices (lines may
//!    straddle calls). Complete lines accumulate in one bounded staging
//!    buffer; whenever it reaches the configured batch size the writer
//!    drains it through [`crate::parallel::compress_parallel_dyn`] — the
//!    persistent [`crate::parallel::WorkerPool`]'s span queue is the ring
//!    of in-flight work — appends the compressed span to the sink, and
//!    extends the [`LineIndex`] in place ([`LineIndex::append_scan`]).
//!    Back-pressure is structural: `write` does not return until the
//!    batch it filled has been compressed and handed to the sink, so peak
//!    buffered payload is one raw batch plus its compressed image,
//!    independent of deck size ([`ArchiveWriter::peak_buffered_bytes`]
//!    meters it; the one exception is a single line longer than the batch
//!    budget, which must be staged whole because the line is the codec
//!    unit).
//! 3. **`finish`** drains the tail, appends the index and footer, and
//!    patches the header's `payload_len` with one positioned write. The
//!    whole-container CRC stays streaming: the writer hashes everything
//!    after the header as it goes and joins the patched header's CRC to
//!    it with [`textcomp::crc32::crc32_combine`] — no second pass, no
//!    re-read.
//!
//! The bytes produced are **identical** to [`crate::Archive::pack`] +
//! [`crate::Archive::write_to`] for the same deck and dictionary (per-line
//! encoding is context-free, so batching cannot change the payload), which
//! the test suite pins down.

use crate::archive::{FOOTER_LEN, HEADER_LEN, MAGIC, TRAILER};
use crate::compress::CompressStats;
use crate::engine::AnyDictionary;
use crate::error::ZsmilesError;
use crate::index::LineIndex;
use crate::sink::ArchiveSink;
use std::io::{BufRead, Read};
use textcomp::crc32::{crc32, crc32_combine, Crc32};

/// Default raw-byte batch a writer stages before compressing — small
/// enough that writer memory is megabytes, large enough that the worker
/// pool sees real spans.
pub const DEFAULT_WRITER_BATCH: usize = 4 << 20;

/// Read `input` to its end and hand `batch` its bytes in runs of whole
/// lines: `batch_bytes` at a time, each run completed to the end of its
/// last line (only the final run may lack a newline). Returns the input
/// bytes read. The one streaming loop over whole decks, so that none is
/// held in memory.
pub fn pump_lines<R: Read>(
    input: R,
    batch_bytes: usize,
    mut batch: impl FnMut(&[u8]) -> Result<(), ZsmilesError>,
) -> Result<u64, ZsmilesError> {
    let mut input = std::io::BufReader::new(input);
    let (mut run, mut total) = (Vec::with_capacity(batch_bytes), 0u64);
    loop {
        run.clear();
        (&mut input)
            .take(batch_bytes as u64)
            .read_to_end(&mut run)?;
        input.read_until(b'\n', &mut run)?;
        if run.is_empty() {
            return Ok(total);
        }
        total += run.len() as u64;
        batch(&run)?;
    }
}

/// Tuning for an [`ArchiveWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Worker threads per compression batch (1 = serial).
    pub threads: usize,
    /// Raw input bytes staged per compression batch.
    pub batch_bytes: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            threads: 1,
            batch_bytes: DEFAULT_WRITER_BATCH,
        }
    }
}

/// What a finished pack reports, alongside the returned sink.
#[derive(Debug, Clone, Copy)]
pub struct PackInfo {
    /// Ligand lines stored (blank input lines are skipped, as everywhere).
    pub lines: usize,
    /// Compressed payload bytes inside the container.
    pub payload_bytes: u64,
    /// Total container bytes written to the sink.
    pub container_bytes: u64,
    /// The container's CRC32 (the value stored in the footer).
    pub crc32: u32,
    /// Compression accounting across every batch.
    pub stats: CompressStats,
    /// High-water mark of payload bytes the writer itself buffered.
    pub peak_buffered_bytes: usize,
}

/// A `.zsa` container being written incrementally through a sink.
#[derive(Debug)]
pub struct ArchiveWriter<K: ArchiveSink> {
    sink: K,
    dict: AnyDictionary,
    opts: WriterOptions,
    /// Raw input staged for the next compression batch (whole lines plus
    /// at most one partial tail line).
    pending: Vec<u8>,
    /// Whether `pending` currently holds at least one newline — tracked
    /// on append so a full-but-mid-line staging buffer (one line longer
    /// than the batch budget) is detected in O(1) instead of rescanning
    /// the buffer per write call.
    pending_has_newline: bool,
    index: LineIndex,
    /// Streaming CRC over everything *after* the fixed-size header.
    crc_tail: Crc32,
    /// Bytes hashed into `crc_tail` so far.
    tail_len: u64,
    dict_len: u64,
    payload_len: u64,
    stats: CompressStats,
    peak_buffered: usize,
}

impl<K: ArchiveSink> ArchiveWriter<K> {
    /// Start a container on `sink` with default options.
    pub fn create(sink: K, dict: AnyDictionary) -> Result<ArchiveWriter<K>, ZsmilesError> {
        ArchiveWriter::with_options(sink, dict, WriterOptions::default())
    }

    /// Start a container on `sink`: writes a placeholder header (patched
    /// at [`ArchiveWriter::finish`]) and the dictionary section.
    pub fn with_options(
        mut sink: K,
        dict: AnyDictionary,
        opts: WriterOptions,
    ) -> Result<ArchiveWriter<K>, ZsmilesError> {
        let mut dict_bytes = Vec::new();
        dict.write(&mut dict_bytes)?;
        sink.append(&[0u8; HEADER_LEN])?;
        sink.append(&dict_bytes)?;
        let mut crc_tail = Crc32::new();
        crc_tail.update(&dict_bytes);
        Ok(ArchiveWriter {
            sink,
            dict,
            opts: WriterOptions {
                threads: opts.threads.max(1),
                batch_bytes: opts.batch_bytes.max(1),
            },
            pending: Vec::new(),
            pending_has_newline: false,
            index: LineIndex::default(),
            crc_tail,
            tail_len: dict_bytes.len() as u64,
            dict_len: dict_bytes.len() as u64,
            payload_len: 0,
            stats: CompressStats::default(),
            peak_buffered: 0,
        })
    }

    /// Which dictionary flavour the container embeds.
    pub fn dictionary(&self) -> &AnyDictionary {
        &self.dict
    }

    /// Compressed payload bytes appended to the sink so far.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_len
    }

    /// High-water mark of payload bytes buffered inside the writer (raw
    /// staging plus the compressed image of the batch in flight) — the
    /// quantity the bounded-memory guarantee is about.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered
    }

    /// The sink being written.
    pub fn sink(&self) -> &K {
        &self.sink
    }

    /// Accept raw deck bytes (newline-separated SMILES). Slices may cut
    /// lines anywhere; the writer reassembles them. Whenever a full batch
    /// of complete lines is staged it is compressed and flushed to the
    /// sink before this call returns.
    pub fn write(&mut self, mut bytes: &[u8]) -> Result<(), ZsmilesError> {
        while !bytes.is_empty() {
            let room = self.opts.batch_bytes.saturating_sub(self.pending.len());
            let take = if room > 0 {
                room.min(bytes.len())
            } else {
                // Staging is full but ends mid-line (one line longer than
                // the batch budget): extend straight through that line's
                // newline so it can complete, rather than byte-by-byte.
                match bytes.iter().position(|&b| b == b'\n') {
                    Some(p) => p + 1,
                    None => bytes.len(),
                }
            };
            self.pending.extend_from_slice(&bytes[..take]);
            self.pending_has_newline = self.pending_has_newline || bytes[..take].contains(&b'\n');
            bytes = &bytes[take..];
            self.peak_buffered = self.peak_buffered.max(self.pending.len());
            if self.pending.len() >= self.opts.batch_bytes {
                self.flush_complete_lines()?;
            }
        }
        Ok(())
    }

    /// Accept one line (no newline). Equivalent to writing the line's
    /// bytes followed by `\n`.
    pub fn write_line(&mut self, line: &[u8]) -> Result<(), ZsmilesError> {
        self.pending.extend_from_slice(line);
        self.pending.push(b'\n');
        self.pending_has_newline = true;
        self.peak_buffered = self.peak_buffered.max(self.pending.len());
        if self.pending.len() >= self.opts.batch_bytes {
            self.flush_complete_lines()?;
        }
        Ok(())
    }

    /// Compress and flush the staged bytes up to (and including) the last
    /// complete line. A no-op while no newline has been staged yet (O(1)
    /// in that case — the flag, not a rescan, says so).
    fn flush_complete_lines(&mut self) -> Result<(), ZsmilesError> {
        if !self.pending_has_newline {
            return Ok(());
        }
        let p = self
            .pending
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("flag says a newline is staged");
        self.flush_batch(p + 1)?;
        // Everything after the last newline was kept; by construction the
        // tail holds no newline.
        self.pending_has_newline = false;
        Ok(())
    }

    /// Compress `self.pending[..upto]` as one batch, append the result to
    /// the sink, and extend index/CRC/stats.
    fn flush_batch(&mut self, upto: usize) -> Result<(), ZsmilesError> {
        if upto == 0 {
            return Ok(());
        }
        let (z, s) = self
            .dict
            .compress_parallel(&self.pending[..upto], self.opts.threads);
        self.peak_buffered = self.peak_buffered.max(self.pending.len() + z.len());
        self.index.append_scan(&z);
        self.crc_tail.update(&z);
        self.tail_len += z.len() as u64;
        self.sink.append(&z)?;
        self.payload_len += z.len() as u64;
        self.stats.merge(&s);
        self.pending.drain(..upto);
        Ok(())
    }

    /// Flush the tail, write index and footer, patch the header, and
    /// return the sink together with the pack accounting.
    pub fn finish(mut self) -> Result<(K, PackInfo), ZsmilesError> {
        // The final staged bytes are a batch whether or not they end with
        // a newline (the encoder terminates the last line itself).
        let upto = self.pending.len();
        self.flush_batch(upto)?;

        let mut index_bytes = Vec::new();
        self.index.write_to(&mut index_bytes)?;
        self.crc_tail.update(&index_bytes);
        self.tail_len += index_bytes.len() as u64;
        self.sink.append(&index_bytes)?;
        let index_len = (index_bytes.len() as u64).to_le_bytes();
        self.crc_tail.update(&index_len);
        self.tail_len += 8;
        self.sink.append(&index_len)?;

        // The header was unknowable until now (payload_len); build it,
        // patch it in place, and join its CRC to the streamed tail's.
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(MAGIC);
        header[8] = self.dict.flavor().tag();
        header[16..24].copy_from_slice(&self.dict_len.to_le_bytes());
        header[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        self.sink.write_at(0, &header)?;
        let crc = crc32_combine(crc32(&header), self.crc_tail.finish(), self.tail_len);
        self.sink.append(&crc.to_le_bytes())?;
        self.sink.append(TRAILER)?;
        self.sink.flush()?;

        debug_assert_eq!(
            self.sink.position(),
            HEADER_LEN as u64 + self.tail_len + (FOOTER_LEN as u64 - 8),
            "container layout accounting"
        );
        let info = PackInfo {
            lines: self.index.len(),
            payload_bytes: self.payload_len,
            container_bytes: self.sink.position(),
            crc32: crc,
            stats: self.stats,
            peak_buffered_bytes: self.peak_buffered,
        };
        Ok((self.sink, info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Archive;
    use crate::dict::builder::DictBuilder;
    use crate::reader::ArchiveReader;
    use crate::sink::{CountingSink, InMemorySink};
    use crate::wide::WideDictBuilder;

    fn deck_lines() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 5] = [
            b"COc1cc(C=O)ccc1O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(200).collect()
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

    #[test]
    fn streaming_writer_is_byte_identical_to_in_memory_pack() {
        let deck = deck_bytes();
        for wide in [false, true] {
            let archive = Archive::pack(dict(wide), &deck, 2);
            let mut expect = Vec::new();
            archive.write_to(&mut expect).unwrap();

            // Arbitrary slicing — including cuts inside lines — and both
            // serial and parallel batches must reproduce the same bytes.
            for (batch, step, threads) in [(7usize, 3usize, 1usize), (64, 11, 3), (1 << 20, 97, 2)]
            {
                let mut w = ArchiveWriter::with_options(
                    InMemorySink::new(),
                    dict(wide),
                    WriterOptions {
                        threads,
                        batch_bytes: batch,
                    },
                )
                .unwrap();
                for chunk in deck.chunks(step) {
                    w.write(chunk).unwrap();
                }
                let (sink, info) = w.finish().unwrap();
                assert_eq!(
                    sink.bytes(),
                    expect.as_slice(),
                    "wide={wide} batch={batch} step={step}"
                );
                assert_eq!(info.lines, 200);
                assert_eq!(info.payload_bytes, archive.payload().len() as u64);
                assert_eq!(info.container_bytes, expect.len() as u64);
                assert_eq!(info.stats.lines, 200);

                // And the standard readers accept it.
                let reopened = Archive::read_from(sink.bytes()).unwrap();
                assert_eq!(reopened.get(123).unwrap(), deck_lines()[123]);
            }
        }
    }

    #[test]
    fn write_line_and_missing_trailing_newline_agree_with_write() {
        let deck = deck_bytes();
        let mut by_line = ArchiveWriter::create(InMemorySink::new(), dict(false)).unwrap();
        for line in deck_lines() {
            by_line.write_line(line).unwrap();
        }
        let (sink_a, _) = by_line.finish().unwrap();

        // Same deck without the final newline: the last line still lands.
        let mut w = ArchiveWriter::create(InMemorySink::new(), dict(false)).unwrap();
        w.write(&deck[..deck.len() - 1]).unwrap();
        let (sink_b, info) = w.finish().unwrap();
        assert_eq!(sink_a.bytes(), sink_b.bytes());
        assert_eq!(info.lines, 200);
    }

    #[test]
    fn interior_blank_lines_are_skipped_like_everywhere_else() {
        let raw = b"CCO\n\n\nCCN(CC)CC\n\nCC(=O)Oc1ccccc1C(=O)O\n";
        let archive = Archive::pack(dict(false), raw, 1);
        let mut expect = Vec::new();
        archive.write_to(&mut expect).unwrap();

        let mut w = ArchiveWriter::with_options(
            InMemorySink::new(),
            dict(false),
            WriterOptions {
                threads: 1,
                batch_bytes: 5,
            },
        )
        .unwrap();
        w.write(raw).unwrap();
        let (sink, info) = w.finish().unwrap();
        assert_eq!(sink.bytes(), expect.as_slice());
        assert_eq!(info.lines, 3);
    }

    #[test]
    fn one_line_longer_than_the_batch_budget_still_packs() {
        // A single line bigger than batch_bytes cannot be cut (the line
        // is the codec unit); the writer must stage it whole — in big
        // strides, not byte-by-byte rescans — and the output must still
        // match the in-memory pack.
        let long: Vec<u8> = b"CCO".iter().copied().cycle().take(30_000).collect();
        let mut raw = long.clone();
        raw.push(b'\n');
        raw.extend_from_slice(b"CCN(CC)CC\n");
        let archive = Archive::pack(dict(false), &raw, 1);
        let mut expect = Vec::new();
        archive.write_to(&mut expect).unwrap();

        let mut w = ArchiveWriter::with_options(
            InMemorySink::new(),
            dict(false),
            WriterOptions {
                threads: 1,
                batch_bytes: 64, // far smaller than the line
            },
        )
        .unwrap();
        // Feed in awkward slices, including ones that leave the staging
        // buffer full mid-line.
        for chunk in raw.chunks(1000) {
            w.write(chunk).unwrap();
        }
        let (sink, info) = w.finish().unwrap();
        assert_eq!(info.lines, 2);
        assert_eq!(sink.bytes(), expect.as_slice());
    }

    #[test]
    fn empty_deck_finalizes_to_a_valid_empty_container() {
        let w = ArchiveWriter::create(InMemorySink::new(), dict(false)).unwrap();
        let (sink, info) = w.finish().unwrap();
        assert_eq!(info.lines, 0);
        assert_eq!(info.payload_bytes, 0);
        let reopened = Archive::read_from(sink.bytes()).unwrap();
        assert!(reopened.is_empty());
    }

    #[test]
    fn buffered_payload_stays_bounded_while_the_container_grows() {
        // A deck far larger than the batch budget, streamed through a
        // metering sink: the writer's high-water mark must stay a small
        // multiple of the batch size even as the sink swallows megabytes.
        let batch = 16 << 10;
        let mut w = ArchiveWriter::with_options(
            CountingSink::new(InMemorySink::new()),
            dict(false),
            WriterOptions {
                threads: 2,
                batch_bytes: batch,
            },
        )
        .unwrap();
        let deck = deck_bytes(); // ~4.6 KB per repetition
        for _ in 0..500 {
            w.write(&deck).unwrap();
        }
        let (sink, info) = w.finish().unwrap();
        assert_eq!(info.lines, 200 * 500);
        assert!(
            info.payload_bytes > 8 * batch as u64,
            "container is much larger than the budget ({} payload bytes)",
            info.payload_bytes
        );
        assert!(
            info.peak_buffered_bytes <= 3 * batch,
            "peak buffered {} exceeds 3x the {} batch budget",
            info.peak_buffered_bytes,
            batch
        );
        assert!(sink.appends() > 50, "payload flowed out in many spans");
        assert_eq!(sink.patches(), 1, "exactly one header patch");

        // The result is still a perfectly ordinary container.
        let bytes = sink.into_inner().into_bytes();
        let reader = ArchiveReader::from_source(bytes.as_slice()).unwrap();
        assert_eq!(reader.len(), 100_000);
        reader.verify().unwrap();
        assert_eq!(reader.get(99_999).unwrap(), deck_lines()[199]);
    }

    /// A reader that answers every other call with `Interrupted` and
    /// returns at most `step` bytes a read.
    struct Trickle<'a> {
        rest: &'a [u8],
        step: usize,
        interrupt: bool,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = self.rest.len().min(buf.len()).min(self.step);
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn pump_hands_on_whole_lines_at_every_batch_size() {
        // Lines longer and shorter than each batch, blank lines, and no
        // final newline.
        let deck: &[u8] = b"CCO\n\nc1ccccc1C(=O)O\nN\n\n\nCC(C)Cc1ccc(cc1)C(C)C(=O)O\nCCN(CC)CC";
        let d = dict(false);
        let (whole, whole_stats) = d.compress_parallel(deck, 1);
        for batch_bytes in [1usize, 7, 64] {
            for step in [1usize, 5, deck.len()] {
                let what = format!("batch {batch_bytes}, reads of {step}");
                let mut batches: Vec<Vec<u8>> = Vec::new();
                let (mut z, mut stats) = (Vec::new(), CompressStats::default());
                let input = Trickle {
                    rest: deck,
                    step,
                    interrupt: false,
                };
                let read = pump_lines(input, batch_bytes, |lines| {
                    batches.push(lines.to_vec());
                    let (part, s) = d.compress_parallel(lines, 2);
                    z.extend_from_slice(&part);
                    stats.merge(&s);
                    Ok(())
                })
                .unwrap();
                assert_eq!(read, deck.len() as u64, "{what}");
                assert_eq!(batches.concat(), deck, "{what}");
                let (last, rest) = batches.split_last().unwrap();
                assert!(rest.iter().all(|b| b.ends_with(b"\n")), "{what}");
                assert!(last.ends_with(b"CCN(CC)CC"), "{what}");
                // Batches of whole lines compress to the whole deck's bytes.
                assert_eq!(z, whole, "{what}");
                assert_eq!(stats.lines, whole_stats.lines, "{what}");
            }
        }
        let mut calls = 0;
        assert_eq!(
            pump_lines(&b""[..], 7, |_| {
                calls += 1;
                Ok(())
            })
            .unwrap(),
            0
        );
        assert_eq!(calls, 0, "an empty input hands on nothing");
    }

    #[test]
    fn file_sink_pack_opens_through_the_file_reader() {
        let path =
            std::env::temp_dir().join(format!("zsmiles_test_writer_{}.zsa", std::process::id()));
        let sink = crate::sink::FileSink::create(&path).unwrap();
        let mut w = ArchiveWriter::with_options(
            sink,
            dict(true),
            WriterOptions {
                threads: 2,
                batch_bytes: 256,
            },
        )
        .unwrap();
        w.write(&deck_bytes()).unwrap();
        let (_, info) = w.finish().unwrap();
        assert_eq!(info.lines, 200);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            info.container_bytes
        );

        let reader = ArchiveReader::open(&path).unwrap();
        assert_eq!(reader.len(), 200);
        reader.verify().unwrap();
        assert_eq!(reader.get(42).unwrap(), deck_lines()[42]);
        std::fs::remove_file(&path).ok();
    }
}
