//! [`AnyDictionary`]: the one codec value, over both ZSMILES code widths.
//!
//! The paper's three design requirements — readable output, per-line
//! random access, one shared dictionary — hold for the one-byte codec
//! ([`crate::dict::Dictionary`]) and for the wide-code extension
//! ([`crate::wide::WideDictionary`]) alike. Everything *around* the
//! per-line encode/decode step (parallel span splitting, the `.zsa`
//! container, the writer, the readers, the CLI) is width-independent, so
//! it takes an [`AnyDictionary`] — either flavour, sniffed from file
//! magic — and the flavour is matched here, once per call:
//!
//! * [`AnyDictionary::encoder`] hands out an [`AnyCompressor`], which owns
//!   its scratch and matches on the flavour once per line, or once per
//!   buffer in [`AnyCompressor::compress_buffer`];
//! * [`AnyDictionary::decompress_line`] and
//!   [`AnyDictionary::decompress_buffer`] decode through the unboxed
//!   per-flavour decoder (decoders hold no scratch);
//! * [`AnyDictionary`] implements [`textcomp::LineCodec`], so the
//!   baseline comparison harness (paper Fig. 4) drives ZSMILES through
//!   the interface the FSST/SHOCO/SMAZ baselines use.
//!
//! The pieces both widths share below that split — the ring-ID
//! [`PreprocessStage`] and the buffer loops — live here too.

use crate::codec::LINE_SEP;
use crate::compress::{CompressStats, Compressor};
use crate::decompress::{DecompressStats, Decompressor};
use crate::dict::Dictionary;
use crate::error::ZsmilesError;
use crate::wide::{WideCompressor, WideDecompressor, WideDictionary};
use smiles::preprocess::Preprocessor;
use std::io::Write;
use std::path::Path;

/// Which dictionary flavour a codec speaks — the tag byte in `.zsa`
/// headers and the discriminator for magic sniffing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictFlavor {
    /// One-byte codes (the paper's format).
    Base,
    /// One- and two-byte codes behind page prefixes ([`crate::wide`]).
    Wide,
}

impl DictFlavor {
    /// Stable one-byte tag used in binary headers.
    pub const fn tag(self) -> u8 {
        match self {
            DictFlavor::Base => 1,
            DictFlavor::Wide => 2,
        }
    }

    pub const fn from_tag(tag: u8) -> Option<DictFlavor> {
        match tag {
            1 => Some(DictFlavor::Base),
            2 => Some(DictFlavor::Wide),
            _ => None,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            DictFlavor::Base => "base",
            DictFlavor::Wide => "wide",
        }
    }
}

// ---------------------------------------------------------------------------
// Shared preprocessing stage
// ---------------------------------------------------------------------------

/// The optional ring-ID preprocessing step both code widths share. Owns
/// the [`Preprocessor`] and its staging buffer, so per-line use is
/// allocation-free.
#[derive(Default)]
pub struct PreprocessStage {
    on: bool,
    pp: Preprocessor,
    buf: Vec<u8>,
}

impl PreprocessStage {
    pub fn new(on: bool) -> Self {
        PreprocessStage {
            on,
            pp: Preprocessor::new(),
            buf: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Apply preprocessing if enabled. Returns the bytes to encode and
    /// whether preprocessing failed (invalid SMILES are encoded verbatim —
    /// failure is a statistic, not an error).
    pub fn apply<'a>(&'a mut self, line: &'a [u8]) -> (&'a [u8], bool) {
        if !self.on {
            return (line, false);
        }
        self.buf.clear();
        match self.pp.preprocess_into(line, &mut self.buf) {
            Ok(()) => (&self.buf, false),
            Err(_) => (line, true),
        }
    }
}

// ---------------------------------------------------------------------------
// Buffer loops (written once for both code widths)
// ---------------------------------------------------------------------------

/// Compress a newline-separated buffer line by line through
/// `encode_line`, preserving line count and order — the random-access
/// property. Blank lines are skipped.
pub(crate) fn encode_buffer(
    input: &[u8],
    out: &mut Vec<u8>,
    mut encode_line: impl FnMut(&[u8], &mut Vec<u8>) -> (usize, bool),
) -> CompressStats {
    let mut stats = CompressStats::default();
    for line in input.split(|&b| b == LINE_SEP) {
        if line.is_empty() {
            continue;
        }
        let (n, failed) = encode_line(line, out);
        out.push(LINE_SEP);
        stats.lines += 1;
        stats.in_bytes += line.len();
        stats.out_bytes += n;
        stats.preprocess_failures += failed as usize;
    }
    stats
}

/// Decompress a newline-separated buffer line by line through
/// `decode_line`. Blank lines are skipped.
pub(crate) fn decode_buffer(
    input: &[u8],
    out: &mut Vec<u8>,
    mut decode_line: impl FnMut(&[u8], &mut Vec<u8>) -> Result<usize, ZsmilesError>,
) -> Result<DecompressStats, ZsmilesError> {
    let mut stats = DecompressStats::default();
    for line in input.split(|&b| b == LINE_SEP) {
        if line.is_empty() {
            continue;
        }
        let n = decode_line(line, out)?;
        out.push(LINE_SEP);
        stats.lines += 1;
        stats.in_bytes += line.len();
        stats.out_bytes += n;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// AnyDictionary
// ---------------------------------------------------------------------------

/// The most bytes [`AnyDictionary::write`] can emit: every one- and
/// two-byte code holding a [`crate::dict::MAX_PATTERN_LEN`]-byte pattern
/// with every byte of code and pattern escaped as a 4-byte `\xNN`, plus a
/// tab and a newline per entry and 4 KiB for the header lines. A `.zsa`
/// whose header claims a longer dictionary is refused before it is read.
pub const MAX_DICT_BYTES: usize = (crate::codec::CODE_SPACE_SIZE + crate::wide::MAX_WIDE_ENTRIES)
    * (4 * (2 + crate::dict::MAX_PATTERN_LEN) + 2)
    + 4096;

/// Either dictionary flavour, for callers that learn the flavour at run
/// time (file magic, `.zsa` header tags). Boxed payloads: the two types
/// differ in size and this enum travels on stack frames.
#[derive(Debug, Clone)]
pub enum AnyDictionary {
    Base(Box<Dictionary>),
    Wide(Box<WideDictionary>),
}

impl AnyDictionary {
    /// Parse a serialized dictionary, sniffing the flavour from the magic
    /// line (`#zsmiles-dict v1` vs `#zsmiles-wide-dict v1`).
    pub fn read(bytes: &[u8]) -> Result<AnyDictionary, ZsmilesError> {
        let first_line = bytes.split(|&b| b == LINE_SEP).next().unwrap_or(b"");
        if first_line.starts_with(b"#zsmiles-wide-dict") {
            Ok(AnyDictionary::Wide(Box::new(crate::wide::read_wide_dict(
                bytes,
            )?)))
        } else {
            Ok(AnyDictionary::Base(Box::new(
                crate::dict::format::read_dict(bytes)?,
            )))
        }
    }

    /// Load from a file, sniffing the flavour.
    pub fn load(path: &Path) -> Result<AnyDictionary, ZsmilesError> {
        let bytes = std::fs::read(path)?;
        AnyDictionary::read(&bytes)
    }

    pub fn flavor(&self) -> DictFlavor {
        match self {
            AnyDictionary::Base(_) => DictFlavor::Base,
            AnyDictionary::Wide(_) => DictFlavor::Wide,
        }
    }

    /// Display name (bench axis labels).
    pub fn name(&self) -> &'static str {
        match self {
            AnyDictionary::Base(_) => "ZSMILES",
            AnyDictionary::Wide(_) => "ZSMILES-wide",
        }
    }

    /// Whether encoding applies ring-ID preprocessing by default.
    pub fn preprocessed(&self) -> bool {
        match self {
            AnyDictionary::Base(d) => d.preprocessed(),
            AnyDictionary::Wide(d) => d.preprocessed(),
        }
    }

    /// Serialize in the readable text format of the underlying flavour.
    pub fn write(&self, w: &mut dyn Write) -> std::io::Result<()> {
        match self {
            AnyDictionary::Base(d) => crate::dict::format::write_dict(d, w),
            AnyDictionary::Wide(d) => crate::wide::write_wide_dict(d, w),
        }
    }

    /// Save to a `.dct` file in the magic-tagged text format of the
    /// underlying flavour — the inverse of [`AnyDictionary::load`], so
    /// trained and loaded dictionaries share one save/load surface.
    pub fn save(&self, path: &Path) -> Result<(), ZsmilesError> {
        let f = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(f);
        self.write(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// A fresh compressor (one per thread), preprocessing as the
    /// dictionary was trained.
    pub fn encoder(&self) -> AnyCompressor<'_> {
        match self {
            AnyDictionary::Base(d) => AnyCompressor::Base(Compressor::new(d)),
            AnyDictionary::Wide(d) => AnyCompressor::Wide(WideCompressor::new(d)),
        }
    }

    /// Compress a newline-separated buffer on `threads` workers of the
    /// persistent process-wide [`crate::parallel::WorkerPool`].
    pub fn compress_parallel(&self, input: &[u8], threads: usize) -> (Vec<u8>, CompressStats) {
        crate::parallel::compress_parallel_dyn(self, input, threads)
    }

    /// Decompress a newline-separated buffer on `threads` workers.
    pub fn decompress_parallel(
        &self,
        input: &[u8],
        threads: usize,
    ) -> Result<(Vec<u8>, DecompressStats), ZsmilesError> {
        crate::parallel::decompress_parallel_dyn(self, input, threads)
    }

    /// Decompress a single line (no newline), appending to `out` — the
    /// random-access decode step. Dispatches on the flavour to an unboxed
    /// decoder, so the call allocates nothing beyond growing `out` once.
    /// A bad line is an error that leaves `out` as it was.
    pub fn decompress_line(&self, line: &[u8], out: &mut Vec<u8>) -> Result<usize, ZsmilesError> {
        match self {
            AnyDictionary::Base(d) => Decompressor::new(d).decompress_line(line, out),
            AnyDictionary::Wide(d) => WideDecompressor::new(d).decompress_line(line, out),
        }
    }

    /// Decompress a newline-separated buffer serially, matching on the
    /// flavour once for the whole buffer.
    pub fn decompress_buffer(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<DecompressStats, ZsmilesError> {
        match self {
            AnyDictionary::Base(d) => Decompressor::new(d).decompress_buffer(input, out),
            AnyDictionary::Wide(d) => WideDecompressor::new(d).decompress_buffer(input, out),
        }
    }
}

/// Either flavour's compressor, as [`AnyDictionary::encoder`] hands it
/// out. It owns the per-line scratch, so steady-state compression is
/// allocation-free.
pub enum AnyCompressor<'d> {
    Base(Compressor<'d>),
    Wide(WideCompressor<'d>),
}

impl AnyCompressor<'_> {
    /// Compress one line (no newline), appending code bytes to `out`.
    /// Returns `(bytes_written, preprocess_failed)`.
    pub fn compress_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> (usize, bool) {
        match self {
            AnyCompressor::Base(c) => c.compress_line(line, out),
            AnyCompressor::Wide(c) => c.compress_line(line, out),
        }
    }

    /// Compress a newline-separated buffer, matching on the flavour once
    /// for the whole buffer.
    pub fn compress_buffer(&mut self, input: &[u8], out: &mut Vec<u8>) -> CompressStats {
        match self {
            AnyCompressor::Base(c) => c.compress_buffer(input, out),
            AnyCompressor::Wide(c) => c.compress_buffer(input, out),
        }
    }
}

/// The per-line interface of the baseline comparison harness. `LineCodec`
/// takes `&self`, so each `compress_line` mints a fresh encoder; the
/// harness measures ratios, not speed. The dictionary's serialized size
/// is the side-band overhead a fair comparison charges to the codec.
impl textcomp::LineCodec for AnyDictionary {
    fn name(&self) -> &'static str {
        AnyDictionary::name(self)
    }

    fn compress_line(&self, line: &[u8], out: &mut Vec<u8>) {
        self.encoder().compress_line(line, out);
    }

    fn decompress_line(&self, line: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        AnyDictionary::decompress_line(self, line, out)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn overhead_bytes(&self) -> usize {
        let mut buf = Vec::new();
        self.write(&mut buf).expect("Vec write cannot fail");
        buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::builder::DictBuilder;
    use crate::wide::WideDictBuilder;
    use textcomp::LineCodec;

    fn corpus() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 4] = [
            b"COc1cc(C=O)ccc1O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
        ];
        lines.iter().copied().cycle().take(60).collect()
    }

    fn base_dict() -> AnyDictionary {
        AnyDictionary::Base(Box::new(
            DictBuilder {
                min_count: 2,
                preprocess: false,
                ..Default::default()
            }
            .train(corpus())
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
            .train(corpus())
            .unwrap(),
        ))
    }

    #[test]
    fn both_flavours_round_trip_line_by_line() {
        for any in [base_dict(), wide_dict()] {
            let mut enc = any.encoder();
            for line in corpus() {
                let mut z = Vec::new();
                let (n, failed) = enc.compress_line(line, &mut z);
                assert_eq!(n, z.len());
                assert!(!failed);
                let mut back = Vec::new();
                any.decompress_line(&z, &mut back).unwrap();
                assert_eq!(back, line, "{}", any.name());
            }
        }
    }

    #[test]
    fn buffer_loop_is_width_independent() {
        let input: Vec<u8> = corpus()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        for any in [base_dict(), wide_dict()] {
            let flavor = any.flavor();
            let mut z = Vec::new();
            let stats = any.encoder().compress_buffer(&input, &mut z);
            assert_eq!(stats.lines, 60, "{flavor:?}");
            assert!(stats.ratio() < 1.0, "{flavor:?}");
            let mut back = Vec::new();
            let ds = any.decompress_buffer(&z, &mut back).unwrap();
            assert_eq!(back, input, "{flavor:?}");
            assert_eq!(ds.lines, stats.lines);
        }
    }

    #[test]
    fn flavor_tags_round_trip() {
        for f in [DictFlavor::Base, DictFlavor::Wide] {
            assert_eq!(DictFlavor::from_tag(f.tag()), Some(f));
        }
        assert_eq!(DictFlavor::from_tag(0), None);
        assert_eq!(DictFlavor::from_tag(3), None);
    }

    #[test]
    fn any_dictionary_sniffs_both_flavours() {
        let mut buf = Vec::new();
        base_dict().write(&mut buf).unwrap();
        assert!(matches!(
            AnyDictionary::read(&buf).unwrap(),
            AnyDictionary::Base(_)
        ));

        let mut buf = Vec::new();
        wide_dict().write(&mut buf).unwrap();
        let any = AnyDictionary::read(&buf).unwrap();
        assert!(matches!(any, AnyDictionary::Wide(_)));
        assert_eq!(any.flavor(), DictFlavor::Wide);

        assert!(AnyDictionary::read(b"not a dictionary").is_err());
    }

    #[test]
    fn any_dictionary_compresses_and_decompresses() {
        let input: Vec<u8> = corpus()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let any = wide_dict();
        let (z, cs) = any.compress_parallel(&input, 3);
        assert_eq!(cs.lines, 60);
        let (back, ds) = any.decompress_parallel(&z, 2).unwrap();
        assert_eq!(back, input);
        assert_eq!(ds.lines, 60);
        // Single-line access too.
        let first = z.split(|&b| b == b'\n').next().unwrap();
        let mut one = Vec::new();
        any.decompress_line(first, &mut one).unwrap();
        assert_eq!(one, corpus()[0]);
    }

    #[test]
    fn line_codec_matches_baseline_interface() {
        let any = base_dict();
        assert_eq!(LineCodec::name(&any), "ZSMILES");
        assert_eq!(LineCodec::name(&wide_dict()), "ZSMILES-wide");
        assert!(any.overhead_bytes() > 0, "dictionary bytes are charged");
        let input: Vec<u8> = corpus()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let (out, inp) = textcomp::line_codec_ratio(&any, &input);
        assert!(out < inp + any.overhead_bytes());
        // Round trip through the dyn interface.
        let codec: &dyn LineCodec = &any;
        let mut z = Vec::new();
        codec.compress_line(b"COc1cc(C=O)ccc1O", &mut z);
        let mut back = Vec::new();
        codec.decompress_line(&z, &mut back).unwrap();
        assert_eq!(back, b"COc1cc(C=O)ccc1O");
    }

    #[test]
    fn the_largest_dictionaries_fit_max_dict_bytes() {
        use crate::codec::{Prepopulation, CODE_SPACE_SIZE};
        use crate::dict::MAX_PATTERN_LEN;
        use crate::wide::{MAX_WIDE_ENTRIES, PAGE_BYTES};
        // Distinct full-length patterns of bytes that all escape to
        // `\xNN`, enough for every code of either flavour.
        let patterns: Vec<Vec<u8>> = (0..CODE_SPACE_SIZE + MAX_WIDE_ENTRIES)
            .map(|k| {
                let mut p = vec![0x01u8; MAX_PATTERN_LEN];
                p[..2].copy_from_slice(&(k as u16 | 0x8080).to_be_bytes());
                p
            })
            .collect();
        let base = Dictionary::from_patterns(
            Prepopulation::None,
            &patterns[..CODE_SPACE_SIZE],
            1,
            MAX_PATTERN_LEN,
            true,
        )
        .unwrap();
        // The page bytes are not one-byte codes in the wide flavour.
        let wide = WideDictionary::from_patterns(
            Prepopulation::None,
            &patterns[..CODE_SPACE_SIZE - PAGE_BYTES.len() + MAX_WIDE_ENTRIES],
            1,
            MAX_PATTERN_LEN,
            true,
            MAX_WIDE_ENTRIES,
        )
        .unwrap();
        for dict in [
            AnyDictionary::Base(Box::new(base)),
            AnyDictionary::Wide(Box::new(wide)),
        ] {
            let mut bytes = Vec::new();
            dict.write(&mut bytes).unwrap();
            assert!(
                bytes.len() > MAX_DICT_BYTES / 2 || dict.flavor() == DictFlavor::Base,
                "{} bytes: the wide dictionary fills most of the bound",
                bytes.len()
            );
            assert!(bytes.len() <= MAX_DICT_BYTES, "{} bytes", bytes.len());
            assert_eq!(AnyDictionary::read(&bytes).unwrap().flavor(), dict.flavor());
        }
    }
}
