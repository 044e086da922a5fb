//! The [`Engine`] abstraction: one interface over both ZSMILES code
//! widths.
//!
//! The paper's three design requirements — readable output, per-line
//! random access, one shared dictionary — hold for the one-byte codec
//! ([`crate::dict::Dictionary`]) and for the wide-code extension
//! ([`crate::wide::WideDictionary`]) alike. Everything *around* the
//! per-line encode/decode step (buffer loops, parallel span splitting,
//! streaming chunk I/O, the `.zsa` container, the CLI) is
//! width-independent, so it is written once against this trait instead of
//! twice against the concrete types:
//!
//! * [`LineEncoder`] / [`LineDecoder`] — the stateful per-line workers
//!   (scratch buffers, preprocessing);
//! * [`Engine`] — a dictionary bound to a codec width; it mints fresh
//!   encoder/decoder workers (one per thread) and serializes its
//!   dictionary;
//! * [`BaseEngine`] / [`WideEngine`] — the two implementations;
//! * [`DynEngine`] — the object-safe facade over [`Engine`]: boxed worker
//!   minting (`Box<dyn LineEncoder>` / `Box<dyn LineDecoder>`) for every
//!   layer that learns the flavour at run time, so those layers drive one
//!   `&dyn DynEngine` instead of matching on [`DictFlavor`] per call site;
//! * [`AnyDictionary`] — either dictionary flavour, sniffed from file
//!   magic; it implements [`DynEngine`] directly, which makes it the
//!   run-time dispatch point (CLI, `.zsa` container, out-of-core reader);
//! * [`EngineCodec`] / [`DynCodec`] — [`textcomp::LineCodec`] adapters so
//!   the baseline comparison harness (paper Fig. 4) drives ZSMILES
//!   engines through the exact interface the FSST/SHOCO/SMAZ baselines
//!   use, statically or via the dyn facade.

use crate::compress::{CompressStats, Compressor};
use crate::decompress::{DecompressStats, Decompressor};
use crate::dict::Dictionary;
use crate::error::ZsmilesError;
use crate::sp::SpAlgorithm;
use crate::wide::{WideCompressor, WideDecompressor, WideDictionary};
use smiles::preprocess::Preprocessor;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;

pub use crate::codec::LINE_SEP;

// ---------------------------------------------------------------------------
// Per-line worker traits
// ---------------------------------------------------------------------------

/// A stateful per-line compressor: owns whatever scratch the encode step
/// needs, so steady-state compression is allocation-free.
pub trait LineEncoder {
    /// Compress one line (no newline), appending code bytes to `out`.
    /// Returns `(bytes_written, preprocess_failed)`.
    fn encode_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> (usize, bool);
}

/// A stateful per-line decompressor.
pub trait LineDecoder {
    /// Decompress one line (no newline), appending to `out`. Returns the
    /// number of bytes appended.
    fn decode_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> Result<usize, ZsmilesError>;
}

// ---------------------------------------------------------------------------
// The Engine trait
// ---------------------------------------------------------------------------

/// Which dictionary flavour an engine speaks — the tag byte in `.zsa`
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

/// A dictionary bound to a codec width. One engine serves any number of
/// concurrent workers: [`Engine::encoder`] / [`Engine::decoder`] mint a
/// fresh stateful worker per thread, all sharing the engine's dictionary.
pub trait Engine: Sync {
    /// Per-thread compressor worker.
    type Encoder<'e>: LineEncoder
    where
        Self: 'e;
    /// Per-thread decompressor worker.
    type Decoder<'e>: LineDecoder
    where
        Self: 'e;

    /// Display name (bench axis labels).
    fn name(&self) -> &'static str;

    /// Which dictionary flavour this engine speaks.
    fn flavor(&self) -> DictFlavor;

    /// Whether encoding applies ring-ID preprocessing.
    fn preprocessed(&self) -> bool;

    /// A fresh compressor worker.
    fn encoder(&self) -> Self::Encoder<'_>;

    /// A fresh decompressor worker.
    fn decoder(&self) -> Self::Decoder<'_>;

    /// Serialize the dictionary in its readable text format (the bytes a
    /// `.dct` file or a `.zsa` dictionary section holds).
    fn write_dict(&self, w: &mut dyn Write) -> std::io::Result<()>;

    /// Serialized dictionary size in bytes — the side-band overhead a fair
    /// ratio comparison charges to the codec.
    fn dict_overhead_bytes(&self) -> usize {
        let mut buf = Vec::new();
        self.write_dict(&mut buf).expect("Vec write cannot fail");
        buf.len()
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
// Buffer loops (written once for every engine)
// ---------------------------------------------------------------------------

/// Compress a newline-separated buffer line by line, preserving line count
/// and order — the random-access property. Shared by both code widths.
/// Blank lines are skipped.
pub fn encode_buffer<E: LineEncoder + ?Sized>(
    enc: &mut E,
    input: &[u8],
    out: &mut Vec<u8>,
) -> CompressStats {
    let mut stats = CompressStats::default();
    for line in input.split(|&b| b == LINE_SEP) {
        if line.is_empty() {
            continue;
        }
        let (n, failed) = enc.encode_line(line, out);
        out.push(LINE_SEP);
        stats.lines += 1;
        stats.in_bytes += line.len();
        stats.out_bytes += n;
        stats.preprocess_failures += failed as usize;
    }
    stats
}

/// Decompress a newline-separated buffer line by line. Shared by both
/// code widths.
pub fn decode_buffer<D: LineDecoder + ?Sized>(
    dec: &mut D,
    input: &[u8],
    out: &mut Vec<u8>,
) -> Result<DecompressStats, ZsmilesError> {
    let mut stats = DecompressStats::default();
    for line in input.split(|&b| b == LINE_SEP) {
        if line.is_empty() {
            continue;
        }
        let n = dec.decode_line(line, out)?;
        out.push(LINE_SEP);
        stats.lines += 1;
        stats.in_bytes += line.len();
        stats.out_bytes += n;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// BaseEngine
// ---------------------------------------------------------------------------

/// The paper's one-byte codec as an [`Engine`].
#[derive(Clone, Copy)]
pub struct BaseEngine<'d> {
    dict: &'d Dictionary,
    algo: SpAlgorithm,
    preprocess: bool,
}

impl<'d> BaseEngine<'d> {
    pub fn new(dict: &'d Dictionary) -> Self {
        BaseEngine {
            dict,
            algo: SpAlgorithm::default(),
            preprocess: dict.preprocessed(),
        }
    }

    pub fn with_algorithm(mut self, algo: SpAlgorithm) -> Self {
        self.algo = algo;
        self
    }

    pub fn with_preprocess(mut self, on: bool) -> Self {
        self.preprocess = on;
        self
    }

    pub fn dictionary(&self) -> &'d Dictionary {
        self.dict
    }
}

impl Engine for BaseEngine<'_> {
    type Encoder<'e>
        = Compressor<'e>
    where
        Self: 'e;
    type Decoder<'e>
        = Decompressor<'e>
    where
        Self: 'e;

    fn name(&self) -> &'static str {
        "ZSMILES"
    }

    fn flavor(&self) -> DictFlavor {
        DictFlavor::Base
    }

    fn preprocessed(&self) -> bool {
        self.preprocess
    }

    fn encoder(&self) -> Compressor<'_> {
        Compressor::new(self.dict)
            .with_algorithm(self.algo)
            .with_preprocess(self.preprocess)
    }

    fn decoder(&self) -> Decompressor<'_> {
        Decompressor::new(self.dict)
    }

    fn write_dict(&self, w: &mut dyn Write) -> std::io::Result<()> {
        crate::dict::format::write_dict(self.dict, w)
    }
}

// ---------------------------------------------------------------------------
// WideEngine
// ---------------------------------------------------------------------------

/// The wide-code extension as an [`Engine`].
#[derive(Clone, Copy)]
pub struct WideEngine<'d> {
    dict: &'d WideDictionary,
    preprocess: bool,
}

impl<'d> WideEngine<'d> {
    pub fn new(dict: &'d WideDictionary) -> Self {
        WideEngine {
            dict,
            preprocess: dict.preprocessed(),
        }
    }

    pub fn with_preprocess(mut self, on: bool) -> Self {
        self.preprocess = on;
        self
    }

    pub fn dictionary(&self) -> &'d WideDictionary {
        self.dict
    }
}

impl Engine for WideEngine<'_> {
    type Encoder<'e>
        = WideCompressor<'e>
    where
        Self: 'e;
    type Decoder<'e>
        = WideDecompressor<'e>
    where
        Self: 'e;

    fn name(&self) -> &'static str {
        "ZSMILES-wide"
    }

    fn flavor(&self) -> DictFlavor {
        DictFlavor::Wide
    }

    fn preprocessed(&self) -> bool {
        self.preprocess
    }

    fn encoder(&self) -> WideCompressor<'_> {
        WideCompressor::new(self.dict).with_preprocess(self.preprocess)
    }

    fn decoder(&self) -> WideDecompressor<'_> {
        WideDecompressor::new(self.dict)
    }

    fn write_dict(&self, w: &mut dyn Write) -> std::io::Result<()> {
        crate::wide::write_wide_dict(self.dict, w)
    }
}

// ---------------------------------------------------------------------------
// DynEngine: the object-safe facade
// ---------------------------------------------------------------------------

/// The dyn-safe facade over [`Engine`].
///
/// [`Engine`] uses generic associated types for zero-cost worker minting,
/// which makes it impossible to name as `dyn Engine`. Every layer that
/// decides the code width at *run time* — the CLI, the `.zsa` container,
/// the out-of-core [`crate::reader::ArchiveReader`], GPU dictionary
/// staging, the baseline-comparison harness — used to re-match on
/// [`DictFlavor`] at each call site instead. `DynEngine` erases the GATs
/// behind boxed workers so those layers drive one object:
///
/// * every [`Engine`] is a `DynEngine` (blanket impl; workers get boxed);
/// * [`AnyDictionary`] is a `DynEngine` *directly*, minting workers that
///   borrow the dictionary itself — no intermediate engine value, which
///   is what lets long-lived holders (readers, iterators) keep a boxed
///   worker without self-referential lifetimes.
///
/// The boxed workers cost one vtable call per line; every per-line scratch
/// buffer is still reused, so steady-state throughput is unchanged. The
/// parallel entry points ([`crate::parallel::compress_parallel_dyn`] /
/// [`crate::parallel::decompress_parallel_dyn`]) mint one boxed worker per
/// [`crate::parallel::WorkerPool`] job and reuse it across every span that
/// job claims — worker minting is a per-call cost, never a per-span one.
pub trait DynEngine: Sync {
    /// Display name (bench axis labels).
    fn name(&self) -> &'static str;

    /// Which dictionary flavour this engine speaks.
    fn flavor(&self) -> DictFlavor;

    /// Whether encoding applies ring-ID preprocessing.
    fn preprocessed(&self) -> bool;

    /// A fresh boxed compressor worker (one per thread).
    fn boxed_encoder(&self) -> Box<dyn LineEncoder + '_>;

    /// A fresh boxed decompressor worker (one per thread).
    fn boxed_decoder(&self) -> Box<dyn LineDecoder + '_>;

    /// Serialize the dictionary in its readable text format.
    fn write_dict_dyn(&self, w: &mut dyn Write) -> std::io::Result<()>;

    /// Serialized dictionary size in bytes.
    fn dict_overhead(&self) -> usize {
        let mut buf = Vec::new();
        self.write_dict_dyn(&mut buf)
            .expect("Vec write cannot fail");
        buf.len()
    }
}

/// Every statically-typed engine is also a dynamic one.
impl<E: Engine> DynEngine for E {
    fn name(&self) -> &'static str {
        Engine::name(self)
    }

    fn flavor(&self) -> DictFlavor {
        Engine::flavor(self)
    }

    fn preprocessed(&self) -> bool {
        Engine::preprocessed(self)
    }

    fn boxed_encoder(&self) -> Box<dyn LineEncoder + '_> {
        Box::new(self.encoder())
    }

    fn boxed_decoder(&self) -> Box<dyn LineDecoder + '_> {
        Box::new(self.decoder())
    }

    fn write_dict_dyn(&self, w: &mut dyn Write) -> std::io::Result<()> {
        Engine::write_dict(self, w)
    }
}

/// Drives any [`DynEngine`] through [`textcomp::LineCodec`], the uniform
/// per-line interface of the baseline comparison harness — the fully
/// dynamic sibling of [`EngineCodec`] for callers that learn the flavour
/// at run time.
pub struct DynCodec<'e> {
    name: &'static str,
    enc: RefCell<Box<dyn LineEncoder + 'e>>,
    dec: RefCell<Box<dyn LineDecoder + 'e>>,
    overhead: usize,
}

impl<'e> DynCodec<'e> {
    pub fn new(engine: &'e dyn DynEngine) -> Self {
        DynCodec {
            name: engine.name(),
            enc: RefCell::new(engine.boxed_encoder()),
            dec: RefCell::new(engine.boxed_decoder()),
            overhead: engine.dict_overhead(),
        }
    }
}

impl textcomp::LineCodec for DynCodec<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn compress_line(&self, line: &[u8], out: &mut Vec<u8>) {
        self.enc.borrow_mut().encode_line(line, out);
    }

    fn decompress_line(&self, line: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        self.dec
            .borrow_mut()
            .decode_line(line, out)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn overhead_bytes(&self) -> usize {
        self.overhead
    }
}

// ---------------------------------------------------------------------------
// AnyDictionary: run-time flavour dispatch
// ---------------------------------------------------------------------------

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
        use std::io::Write as _;
        w.flush()?;
        Ok(())
    }

    /// View as the object-safe engine facade.
    pub fn as_dyn(&self) -> &dyn DynEngine {
        self
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
    pub fn decompress_line(&self, line: &[u8], out: &mut Vec<u8>) -> Result<usize, ZsmilesError> {
        match self {
            AnyDictionary::Base(d) => Decompressor::new(d).decompress_line(line, out),
            AnyDictionary::Wide(d) => WideDecompressor::new(d).decompress_line(line, out),
        }
    }
}

/// The run-time-flavoured dictionary *is* an engine: workers borrow the
/// dictionary directly (not an intermediate engine value), so a reader or
/// iterator can hold a boxed worker for as long as it holds the
/// dictionary. This impl is the one place in the crate that matches on
/// the flavour to mint workers.
impl DynEngine for AnyDictionary {
    fn name(&self) -> &'static str {
        match self {
            AnyDictionary::Base(_) => "ZSMILES",
            AnyDictionary::Wide(_) => "ZSMILES-wide",
        }
    }

    fn flavor(&self) -> DictFlavor {
        AnyDictionary::flavor(self)
    }

    fn preprocessed(&self) -> bool {
        AnyDictionary::preprocessed(self)
    }

    fn boxed_encoder(&self) -> Box<dyn LineEncoder + '_> {
        match self {
            // Worker defaults mirror BaseEngine::new / WideEngine::new:
            // preprocessing follows the dictionary's training setting.
            AnyDictionary::Base(d) => Box::new(Compressor::new(d)),
            AnyDictionary::Wide(d) => Box::new(WideCompressor::new(d)),
        }
    }

    fn boxed_decoder(&self) -> Box<dyn LineDecoder + '_> {
        match self {
            AnyDictionary::Base(d) => Box::new(Decompressor::new(d)),
            AnyDictionary::Wide(d) => Box::new(WideDecompressor::new(d)),
        }
    }

    fn write_dict_dyn(&self, w: &mut dyn Write) -> std::io::Result<()> {
        self.write(w)
    }
}

// ---------------------------------------------------------------------------
// textcomp::LineCodec adapter
// ---------------------------------------------------------------------------

/// Drives any [`Engine`] through [`textcomp::LineCodec`], the uniform
/// per-line interface of the baseline comparison harness. Interior
/// mutability because `LineCodec` methods take `&self` while engine
/// workers keep scratch state.
pub struct EngineCodec<'e, E: Engine + 'e> {
    name: &'static str,
    enc: RefCell<E::Encoder<'e>>,
    dec: RefCell<E::Decoder<'e>>,
    overhead: usize,
}

impl<'e, E: Engine> EngineCodec<'e, E> {
    pub fn new(engine: &'e E) -> Self {
        EngineCodec {
            name: engine.name(),
            enc: RefCell::new(engine.encoder()),
            dec: RefCell::new(engine.decoder()),
            overhead: engine.dict_overhead_bytes(),
        }
    }
}

impl<E: Engine> textcomp::LineCodec for EngineCodec<'_, E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn compress_line(&self, line: &[u8], out: &mut Vec<u8>) {
        self.enc.borrow_mut().encode_line(line, out);
    }

    fn decompress_line(&self, line: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        self.dec
            .borrow_mut()
            .decode_line(line, out)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn overhead_bytes(&self) -> usize {
        self.overhead
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

    fn base_dict() -> Dictionary {
        DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(corpus())
        .unwrap()
    }

    fn wide_dict() -> WideDictionary {
        WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                preprocess: false,
                ..Default::default()
            },
            wide_size: 32,
        }
        .train(corpus())
        .unwrap()
    }

    /// A width-independent round trip, written once against the trait —
    /// the property the whole refactor exists to make expressible.
    fn roundtrip_via_trait<E: Engine>(engine: &E) {
        let mut enc = engine.encoder();
        let mut dec = engine.decoder();
        for line in corpus() {
            let mut z = Vec::new();
            let (n, failed) = enc.encode_line(line, &mut z);
            assert_eq!(n, z.len());
            assert!(!failed);
            let mut back = Vec::new();
            dec.decode_line(&z, &mut back).unwrap();
            assert_eq!(back, line, "{}", engine.name());
        }
    }

    #[test]
    fn both_engines_round_trip_through_the_trait() {
        let bd = base_dict();
        roundtrip_via_trait(&BaseEngine::new(&bd));
        let wd = wide_dict();
        roundtrip_via_trait(&WideEngine::new(&wd));
    }

    #[test]
    fn buffer_loop_is_width_independent() {
        let input: Vec<u8> = corpus()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let bd = base_dict();
        let wd = wide_dict();
        for (flavor, z, stats) in [
            {
                let e = BaseEngine::new(&bd);
                let mut z = Vec::new();
                let s = encode_buffer(&mut e.encoder(), &input, &mut z);
                (DictFlavor::Base, z, s)
            },
            {
                let e = WideEngine::new(&wd);
                let mut z = Vec::new();
                let s = encode_buffer(&mut e.encoder(), &input, &mut z);
                (DictFlavor::Wide, z, s)
            },
        ] {
            assert_eq!(stats.lines, 60, "{flavor:?}");
            assert!(stats.ratio() < 1.0, "{flavor:?}");
            let mut back = Vec::new();
            let ds = match flavor {
                DictFlavor::Base => {
                    decode_buffer(&mut BaseEngine::new(&bd).decoder(), &z, &mut back).unwrap()
                }
                DictFlavor::Wide => {
                    decode_buffer(&mut WideEngine::new(&wd).decoder(), &z, &mut back).unwrap()
                }
            };
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
        let bd = base_dict();
        let mut buf = Vec::new();
        BaseEngine::new(&bd).write_dict(&mut buf).unwrap();
        assert!(matches!(
            AnyDictionary::read(&buf).unwrap(),
            AnyDictionary::Base(_)
        ));

        let wd = wide_dict();
        let mut buf = Vec::new();
        WideEngine::new(&wd).write_dict(&mut buf).unwrap();
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
        let wd = wide_dict();
        let any = AnyDictionary::Wide(Box::new(wd));
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
    fn line_codec_adapter_matches_baseline_interface() {
        let bd = base_dict();
        let engine = BaseEngine::new(&bd);
        let codec = EngineCodec::new(&engine);
        assert_eq!(codec.name(), "ZSMILES");
        assert!(codec.overhead_bytes() > 0, "dictionary bytes are charged");
        let input: Vec<u8> = corpus()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let (out, inp) = textcomp::line_codec_ratio(&codec, &input);
        assert!(out < inp + codec.overhead_bytes());
        // Round trip through the dyn interface.
        let dyn_codec: &dyn LineCodec = &codec;
        let mut z = Vec::new();
        dyn_codec.compress_line(b"COc1cc(C=O)ccc1O", &mut z);
        let mut back = Vec::new();
        dyn_codec.decompress_line(&z, &mut back).unwrap();
        assert_eq!(back, b"COc1cc(C=O)ccc1O");
    }
}
