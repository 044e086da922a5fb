//! Wide-code extension: two-byte codes that lift the 222-pattern ceiling.
//!
//! The paper confines the dictionary to one-byte codes — 222 displayable
//! bytes after reserving newline and the escape marker — and never asks
//! whether that ceiling binds. This module answers the question (see the
//! `ablation_wide` harness): it reserves the top eight extended bytes
//! ([`PAGE_BYTES`], `0xF8..=0xFF`) as *page prefixes*, each opening a full
//! second byte of code space, for up to `8 × 222 = 1776` extra patterns on
//! top of the remaining 214 one-byte codes.
//!
//! Costs change accordingly: a wide code spends **two** output bytes, the
//! same as an escape, so it only ever pays for patterns of length ≥ 3 —
//! shorter candidates are rejected at installation. The per-line encoder is
//! the same backward shortest-path DP as [`crate::sp`], generalized to
//! per-edge costs, so the emitted stream is still optimal for the
//! dictionary.
//!
//! Every design requirement of the paper survives:
//!
//! * output bytes remain displayable (page bytes are extended bytes like
//!   any other code), so archives stay readable and grep-able;
//! * `\n` and the space escape are untouched — lines stay separable, random
//!   access works, and a [`WideDictionary`] with zero wide entries encodes
//!   exactly like a base [`crate::dict::Dictionary`] shorn of eight codes.

use crate::codec::{code_space, is_code_byte, Prepopulation, LINE_SEP};
use crate::compress::CompressStats;
use crate::decompress::{decode_slots, DecodeTable, DecompressStats};
use crate::dict::builder::DictBuilder;
use crate::dict::MAX_PATTERN_LEN;
use crate::engine::PreprocessStage;
use crate::error::ZsmilesError;
use crate::sp::{self, SpScratch};
use crate::trie::{DenseAutomaton, Matcher, ReverseAutomaton, Trie};
use std::io::{Read, Write};

/// The eight extended bytes reserved as wide-code page prefixes.
pub const PAGE_BYTES: [u8; 8] = [0xF8, 0xF9, 0xFA, 0xFB, 0xFC, 0xFD, 0xFE, 0xFF];

/// Wide slots available per page (any code byte may follow a page byte).
pub const SUBS_PER_PAGE: usize = crate::codec::CODE_SPACE_SIZE;

/// Maximum wide entries: 8 pages × 222 sub-codes.
pub const MAX_WIDE_ENTRIES: usize = PAGE_BYTES.len() * SUBS_PER_PAGE;

/// Index of a page byte within [`PAGE_BYTES`], if it is one.
#[inline]
pub const fn page_index(b: u8) -> Option<usize> {
    if b >= PAGE_BYTES[0] {
        Some((b - PAGE_BYTES[0]) as usize)
    } else {
        None
    }
}

/// Shortest wide pattern worth a two-byte code (an escape also costs 2, so
/// length-2 wide patterns would be dead weight).
pub const MIN_WIDE_PATTERN_LEN: usize = 3;

// ---------------------------------------------------------------------------
// Code identifiers
// ---------------------------------------------------------------------------

/// Dense identifier for either code width, as stored in the matcher:
/// `id < 256` is the base code byte itself; otherwise
/// `id - 256 = page_index × 256 + sub_byte`.
pub type CodeId = u16;

#[inline]
fn base_id(code: u8) -> CodeId {
    code as CodeId
}

#[inline]
fn wide_id(page: usize, sub: u8) -> CodeId {
    256 + (page as CodeId) * 256 + sub as CodeId
}

/// Emitted bytes and their count for a [`CodeId`].
#[inline]
fn emit_bytes(id: CodeId) -> ([u8; 2], usize) {
    if id < 256 {
        ([id as u8, 0], 1)
    } else {
        let x = id - 256;
        ([PAGE_BYTES[(x >> 8) as usize], (x & 0xFF) as u8], 2)
    }
}

// ---------------------------------------------------------------------------
// WideDictionary
// ---------------------------------------------------------------------------

/// A dictionary over the widened code space: up to 214 one-byte codes plus
/// up to [`MAX_WIDE_ENTRIES`] two-byte codes behind page prefixes.
#[derive(Debug, Clone)]
pub struct WideDictionary {
    /// One-byte codes as a fixed-slot decode table (page bytes always
    /// vacant here).
    base: DecodeTable,
    /// Identity provenance for base codes (pre-population entries).
    identity: Vec<bool>,
    /// `pages[p]` expands the two-byte codes `PAGE_BYTES[p] sub`, indexed
    /// by `sub`. With `base`, the tables the wide decoder copies slots
    /// from, built once here — and the dictionary's only copy of its
    /// entries.
    pages: Box<[DecodeTable; PAGE_BYTES.len()]>,
    prepopulation: Prepopulation,
    lmin: usize,
    lmax: usize,
    preprocessed: bool,
    /// Pattern → [`CodeId`] matcher — the shared [`crate::trie::Trie`] at
    /// the 16-bit payload width (base and wide ids overflow a `u8`).
    trie: Trie<CodeId>,
    /// The flat reference matcher, compiled from `trie` on first use.
    /// Lazy (and shared across clones) for the same reason as
    /// [`crate::dict::Dictionary`]: the tables run to megabytes and
    /// decode-only paths never walk them.
    automaton: std::sync::Arc<std::sync::OnceLock<DenseAutomaton<CodeId>>>,
    /// The matcher the wide encoder runs; lazy and shared across clones
    /// like `automaton`.
    reverse: std::sync::Arc<std::sync::OnceLock<ReverseAutomaton<CodeId>>>,
}

impl WideDictionary {
    /// Install `patterns` (ordered by rank) into the widened code space:
    /// identity entries first, then one-byte codes until they run out, then
    /// two-byte codes (patterns shorter than [`MIN_WIDE_PATTERN_LEN`] are
    /// skipped in the wide region — a 2-byte code for a 2-byte pattern
    /// saves nothing). At most `wide_capacity` wide entries are installed;
    /// further patterns error with [`ZsmilesError::CodeSpaceExhausted`].
    pub fn from_patterns<I, P>(
        prepopulation: Prepopulation,
        patterns: I,
        lmin: usize,
        lmax: usize,
        preprocessed: bool,
        wide_capacity: usize,
    ) -> Result<WideDictionary, ZsmilesError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        if lmin < 1 || lmax < lmin || lmax > MAX_PATTERN_LEN {
            return Err(ZsmilesError::BadLengthBounds { lmin, lmax });
        }
        let wide_capacity = wide_capacity.min(MAX_WIDE_ENTRIES);
        let mut base: Vec<Option<Box<[u8]>>> = vec![None; 256];
        let mut identity = vec![false; 256];
        for &b in &prepopulation.identity_bytes() {
            base[b as usize] = Some(vec![b].into_boxed_slice());
            identity[b as usize] = true;
        }
        let mut free_base: Vec<u8> = code_space()
            .filter(|&c| page_index(c).is_none() && base[c as usize].is_none())
            .collect();
        free_base.reverse();
        // Wide slots in (page, sub) order.
        let mut wide_next = 0usize;
        let mut pages: Vec<Vec<Option<Box<[u8]>>>> = vec![vec![None; 256]; PAGE_BYTES.len()];
        let subs: Vec<u8> = code_space().collect();

        let mut installed = 0usize;
        for (seen, pat) in patterns.into_iter().enumerate() {
            let pat = pat.as_ref();
            let requested = seen + 1;
            // Deserialized dictionaries can carry corrupted patterns —
            // refuse typed, don't assert.
            if pat.is_empty() || pat.len() > MAX_PATTERN_LEN {
                return Err(ZsmilesError::DictFormat {
                    line: requested,
                    reason: format!("pattern has length {} (1..={MAX_PATTERN_LEN})", pat.len()),
                });
            }
            if pat.len() == 1 && base[pat[0] as usize].is_some() {
                continue; // identity duplicate
            }
            if let Some(code) = free_base.pop() {
                base[code as usize] = Some(pat.to_vec().into_boxed_slice());
                installed += 1;
                continue;
            }
            if pat.len() < MIN_WIDE_PATTERN_LEN {
                continue; // not worth two bytes
            }
            if wide_next >= wide_capacity {
                return Err(ZsmilesError::CodeSpaceExhausted {
                    requested,
                    available: installed + prepopulation.identity_bytes().len(),
                });
            }
            let page = wide_next / SUBS_PER_PAGE;
            let sub = subs[wide_next % SUBS_PER_PAGE];
            pages[page][sub as usize] = Some(pat.to_vec().into_boxed_slice());
            wide_next += 1;
            installed += 1;
        }

        let mut trie: Trie<CodeId> = Trie::new();
        for (code, entry) in base.iter().enumerate() {
            if let Some(pat) = entry {
                trie.insert(pat, base_id(code as u8));
            }
        }
        for (p, page) in pages.iter().enumerate() {
            for (sub, entry) in page.iter().enumerate() {
                if let Some(pat) = entry {
                    trie.insert(pat, wide_id(p, sub as u8));
                }
            }
        }
        Ok(WideDictionary {
            base: DecodeTable::from_entries(&base),
            identity,
            pages: Box::new(std::array::from_fn(|p| {
                DecodeTable::from_entries(&pages[p])
            })),
            prepopulation,
            lmin,
            lmax,
            preprocessed,
            trie,
            automaton: std::sync::Arc::new(std::sync::OnceLock::new()),
            reverse: std::sync::Arc::new(std::sync::OnceLock::new()),
        })
    }

    /// The pattern behind a one-byte code.
    #[inline]
    pub fn base_entry(&self, code: u8) -> Option<&[u8]> {
        self.base.expansion(code)
    }

    /// The pattern behind the two-byte code `PAGE_BYTES[page] sub`.
    #[inline]
    pub fn wide_entry(&self, page: usize, sub: u8) -> Option<&[u8]> {
        self.pages.get(page)?.expansion(sub)
    }

    /// One-byte entries (identity included).
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Two-byte entries.
    pub fn wide_len(&self) -> usize {
        self.pages.iter().map(DecodeTable::len).sum()
    }

    /// Total entries across both widths.
    pub fn len(&self) -> usize {
        self.base_len() + self.wide_len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn prepopulation(&self) -> Prepopulation {
        self.prepopulation
    }

    pub fn lmin(&self) -> usize {
        self.lmin
    }

    pub fn lmax(&self) -> usize {
        self.lmax
    }

    pub fn preprocessed(&self) -> bool {
        self.preprocessed
    }

    /// Longest installed pattern.
    pub fn max_pattern_len(&self) -> usize {
        self.trie.max_depth()
    }

    /// The matching trie (the build-time / reference structure), at the
    /// 16-bit payload width.
    pub fn trie(&self) -> &Trie<CodeId> {
        &self.trie
    }

    /// The flat reference matcher — compiled from [`WideDictionary::trie`]
    /// on first call (then cached, shared by clones), byte-identical
    /// matches (see [`DenseAutomaton`] for the layout trade-off).
    pub fn automaton(&self) -> &DenseAutomaton<CodeId> {
        self.automaton
            .get_or_init(|| DenseAutomaton::compile(&self.trie))
    }

    /// The matcher the wide encoder runs — compiled from
    /// [`WideDictionary::trie`] on first call (then cached, shared by
    /// clones); see [`ReverseAutomaton`].
    pub fn reverse_automaton(&self) -> &ReverseAutomaton<CodeId> {
        self.reverse
            .get_or_init(|| ReverseAutomaton::compile(&self.trie))
    }

    /// All entries in code-assignment order: base codes (code-space order),
    /// then wide codes (page-major). Yields `(emitted bytes, pattern)`.
    pub fn all_entries(&self) -> impl Iterator<Item = (Vec<u8>, &[u8])> + '_ {
        let base = code_space().filter_map(move |c| self.base.expansion(c).map(|p| (vec![c], p)));
        let wide = (0..PAGE_BYTES.len()).flat_map(move |pi| {
            code_space().filter_map(move |sub| {
                self.pages[pi]
                    .expansion(sub)
                    .map(|p| (vec![PAGE_BYTES[pi], sub], p))
            })
        });
        base.chain(wide)
    }

    /// Trained (non-identity) entries in assignment order.
    pub fn pattern_entries(&self) -> impl Iterator<Item = (Vec<u8>, &[u8])> + '_ {
        self.all_entries()
            .filter(move |(code, _)| !(code.len() == 1 && self.identity[code[0] as usize]))
    }

    /// Sanity invariants (used by tests and after deserialization).
    pub fn validate(&self) -> Result<(), ZsmilesError> {
        for c in 0..=u8::MAX {
            let Some(pat) = self.base.expansion(c) else {
                continue;
            };
            if !is_code_byte(c) || page_index(c).is_some() {
                return Err(ZsmilesError::DictFormat {
                    line: 0,
                    reason: format!("base code 0x{c:02x} is reserved"),
                });
            }
            check_pattern(pat)?;
        }
        for page in self.pages.iter() {
            for s in 0..=u8::MAX {
                let Some(pat) = page.expansion(s) else {
                    continue;
                };
                if !is_code_byte(s) {
                    return Err(ZsmilesError::DictFormat {
                        line: 0,
                        reason: format!("wide sub-code 0x{s:02x} is reserved"),
                    });
                }
                if pat.len() < MIN_WIDE_PATTERN_LEN {
                    return Err(ZsmilesError::DictFormat {
                        line: 0,
                        reason: format!(
                            "wide pattern of length {} never pays for its 2-byte code",
                            pat.len()
                        ),
                    });
                }
                check_pattern(pat)?;
            }
        }
        Ok(())
    }
}

/// Patterns must be newline-free; their length is bounded by
/// construction (every entry fills one decode slot).
fn check_pattern(pat: &[u8]) -> Result<(), ZsmilesError> {
    if pat.contains(&LINE_SEP) {
        return Err(ZsmilesError::DictFormat {
            line: 0,
            reason: "pattern contains newline".into(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

/// Trains a [`WideDictionary`]: the base [`DictBuilder`] machinery asked
/// for `214 − identity + wide_size` ranked patterns, installed across both
/// code widths.
#[derive(Debug, Clone)]
pub struct WideDictBuilder {
    /// Counting/selection configuration (its `dict_size` is overridden).
    pub base: DictBuilder,
    /// Two-byte pattern slots to fill (0 = one-byte behaviour minus the
    /// eight page codes).
    pub wide_size: usize,
}

impl Default for WideDictBuilder {
    fn default() -> Self {
        WideDictBuilder {
            base: DictBuilder::default(),
            wide_size: 512,
        }
    }
}

impl WideDictBuilder {
    /// Train on an iterator of SMILES lines (no newlines).
    pub fn train<'a, I>(&self, lines: I) -> Result<WideDictionary, ZsmilesError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let wide_size = self.wide_size.min(MAX_WIDE_ENTRIES);
        let base_free = self
            .base
            .prepopulation
            .free_code_count()
            .saturating_sub(PAGE_BYTES.len());
        let mut cfg = self.base.clone();
        cfg.dict_size = Some(base_free + wide_size);
        // Selection may hand back short patterns that the wide region will
        // reject; ask for a margin so the wide slots still fill.
        let selected = cfg.train_patterns(lines)?;
        WideDictionary::from_patterns(
            self.base.prepopulation,
            selected,
            self.base.lmin,
            self.base.lmax,
            self.base.preprocess,
            wide_size,
        )
    }
}

// ---------------------------------------------------------------------------
// Compression: shortest path with per-edge costs
// ---------------------------------------------------------------------------

/// Append the bytes of wide code `id`.
#[inline]
fn push_code(id: CodeId, out: &mut Vec<u8>) {
    let (bytes, width) = emit_bytes(id);
    out.extend_from_slice(&bytes[..width]);
}

/// Encode one line against a wide reference matcher (the node trie or the
/// dense automaton) — the wide counterpart of [`crate::sp::encode_line`],
/// a test and bench oracle for [`WideCompressor`]. It runs the shared
/// reference DP of [`crate::sp`], whose edges cost each code's output
/// width (1 for base codes, 2 for wide codes and escapes), so the stream
/// stays optimal and the tie rule is the base codec's. Returns the number
/// of appended bytes.
pub fn encode_line<M: Matcher<Code = CodeId>>(
    matcher: &M,
    line: &[u8],
    scratch: &mut SpScratch,
    out: &mut Vec<u8>,
) -> usize {
    sp::oracle_dp(matcher, line, scratch);
    sp::emit(line, scratch, out, push_code)
}

/// A reusable compressor bound to one wide dictionary (mirrors
/// [`crate::Compressor`]). The buffer loop and preprocessing stage are the
/// shared [`crate::engine`] machinery; only the per-line DP is wide-specific.
pub struct WideCompressor<'d> {
    dict: &'d WideDictionary,
    preprocess: PreprocessStage,
    scratch: SpScratch,
}

impl<'d> WideCompressor<'d> {
    pub fn new(dict: &'d WideDictionary) -> Self {
        WideCompressor {
            dict,
            preprocess: PreprocessStage::new(dict.preprocessed()),
            scratch: SpScratch::new(),
        }
    }

    pub fn with_preprocess(mut self, on: bool) -> Self {
        self.preprocess.set_enabled(on);
        self
    }

    pub fn dictionary(&self) -> &WideDictionary {
        self.dict
    }

    /// Compress one line (no newline), appending to `out`, through the
    /// dictionary's [`ReverseAutomaton`] kernel. Returns
    /// `(bytes_written, preprocess_failed)`.
    pub fn compress_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> (usize, bool) {
        let (src, failed) = self.preprocess.apply(line);
        sp::reverse_dp(self.dict.reverse_automaton(), src, &mut self.scratch);
        (sp::emit(src, &self.scratch, out, push_code), failed)
    }

    /// Compress a newline-separated buffer, preserving line count and order.
    pub fn compress_buffer(&mut self, input: &[u8], out: &mut Vec<u8>) -> CompressStats {
        crate::engine::encode_buffer(input, out, |line, out| self.compress_line(line, out))
    }
}

/// Decompressor for wide-code streams (mirrors [`crate::Decompressor`]).
/// Only the page-prefix dispatch is wide-specific: the per-line kernel is
/// the base codec's slot copier and the buffer loop is the shared
/// [`crate::engine`] machinery.
pub struct WideDecompressor<'d> {
    dict: &'d WideDictionary,
}

impl<'d> WideDecompressor<'d> {
    pub fn new(dict: &'d WideDictionary) -> Self {
        WideDecompressor { dict }
    }

    /// Decompress one line, appending to `out`. Returns the number of
    /// bytes appended. Same contract as [`crate::Decompressor`]: the whole
    /// line is validated first, so a bad line appends nothing.
    pub fn decompress_line(&self, line: &[u8], out: &mut Vec<u8>) -> Result<usize, ZsmilesError> {
        let d = self.dict;
        decode_slots(&d.base, |b| page_index(b).map(|p| &d.pages[p]), line, out)
    }

    /// Decompress a newline-separated buffer.
    pub fn decompress_buffer(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<DecompressStats, ZsmilesError> {
        crate::engine::decode_buffer(input, out, |line, out| self.decompress_line(line, out))
    }
}

// ---------------------------------------------------------------------------
// Serialization (readable, like `.dct`)
// ---------------------------------------------------------------------------

pub(crate) const WIDE_MAGIC: &str = "#zsmiles-wide-dict v1";

/// Serialize a wide dictionary to the readable text format: the `.dct`
/// layout with a wide magic, a `#wide-size` header, and one- or two-byte
/// codes in the code column. Header block and entry escaping are the
/// shared [`crate::dict::format`] machinery — the two formats differ only
/// in magic and code width.
pub fn write_wide_dict<W: Write>(dict: &WideDictionary, mut w: W) -> std::io::Result<()> {
    super::dict::format::write_header(
        &mut w,
        WIDE_MAGIC,
        dict.prepopulation(),
        dict.preprocessed(),
        dict.lmin(),
        dict.lmax(),
        Some(dict.wide_len()),
    )?;
    for (code, pat) in dict.pattern_entries() {
        super::dict::format::write_entry(&mut w, &code, pat)?;
    }
    Ok(())
}

/// Parse the wide text format through the shared dictionary-text parser.
/// Codes are re-derived from pattern order (which [`write_wide_dict`]
/// preserves), exactly like the base format.
pub fn read_wide_dict<R: Read>(r: R) -> Result<WideDictionary, ZsmilesError> {
    let (h, patterns) = super::dict::format::parse_dict_text(r, WIDE_MAGIC, true)?;
    let dict = WideDictionary::from_patterns(
        h.prepopulation,
        patterns,
        h.lmin,
        h.lmax,
        h.preprocess,
        h.wide_size,
    )?;
    dict.validate()?;
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ESCAPE;

    fn deck() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 6] = [
            b"COc1cc(C=O)ccc1O",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
            b"OC(=O)c1ccccc1Nc1ccnc2cc(Cl)ccc12",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(120).collect()
    }

    fn trained(wide_size: usize) -> WideDictionary {
        WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                ..Default::default()
            },
            wide_size,
        }
        .train(deck())
        .unwrap()
    }

    /// 729 distinct valid SMILES from a fragment product — diverse enough
    /// that training overflows the one-byte code space.
    fn diverse_deck() -> Vec<Vec<u8>> {
        let a = [
            "CC", "CCO", "c1ccccc1", "N(C)C", "C(=O)O", "CN", "OC", "CS", "Cl",
        ];
        let b = [
            "C(=O)N",
            "c1ccncc1",
            "CC(C)",
            "OCC",
            "N1CCOCC1",
            "C#N",
            "CCCC",
            "C(F)(F)F",
            "S(=O)(=O)C",
        ];
        let c = [
            "O",
            "N",
            "CO",
            "c1ccc(Cl)cc1",
            "C(=O)OC",
            "CCN",
            "Br",
            "CCC",
            "F",
        ];
        let mut v = Vec::new();
        for x in a {
            for y in b {
                for z in c {
                    v.push(format!("{x}{y}{z}").into_bytes());
                }
            }
        }
        v
    }

    fn trained_diverse(wide_size: usize) -> WideDictionary {
        let deck = diverse_deck();
        WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                ..Default::default()
            },
            wide_size,
        }
        .train(deck.iter().map(|l| l.as_slice()))
        .unwrap()
    }

    #[test]
    fn page_bytes_are_top_extended_bytes() {
        assert_eq!(PAGE_BYTES[0], 0xF8);
        assert_eq!(*PAGE_BYTES.last().unwrap(), 0xFF);
        for (i, &b) in PAGE_BYTES.iter().enumerate() {
            assert_eq!(page_index(b), Some(i));
            assert!(is_code_byte(b));
        }
        assert_eq!(page_index(0xF7), None);
        assert_eq!(page_index(b'A'), None);
    }

    #[test]
    fn code_id_packing_round_trips() {
        let (b, w) = emit_bytes(base_id(b'!'));
        assert_eq!((b[0], w), (b'!', 1));
        let (b, w) = emit_bytes(wide_id(3, 0x42));
        assert_eq!(w, 2);
        assert_eq!(b, [PAGE_BYTES[3], 0x42]);
        let (b, w) = emit_bytes(wide_id(7, 0xFF));
        assert_eq!(w, 2);
        assert_eq!(b, [0xFF, 0xFF]);
    }

    #[test]
    fn base_codes_never_use_page_bytes() {
        let d = trained(64);
        for &pb in &PAGE_BYTES {
            assert!(
                d.base_entry(pb).is_none(),
                "page byte 0x{pb:02x} must stay free"
            );
        }
        d.validate().unwrap();
    }

    #[test]
    fn round_trip_on_training_deck() {
        let deck = diverse_deck();
        let d = trained_diverse(128);
        assert!(d.wide_len() > 0, "training should spill into wide codes");
        let mut c = WideCompressor::new(&d);
        let dec = WideDecompressor::new(&d);
        for line in &deck {
            let mut z = Vec::new();
            c.compress_line(line, &mut z);
            let mut back = Vec::new();
            dec.decompress_line(&z, &mut back).unwrap();
            // Preprocessing renumbers ring IDs; molecules must match.
            assert_eq!(
                smiles::parser::parse(line).unwrap().signature(),
                smiles::parser::parse(&back).unwrap().signature(),
                "line {:?}",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn exact_round_trip_without_preprocess() {
        let d = WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                preprocess: false,
                ..Default::default()
            },
            wide_size: 128,
        }
        .train(deck())
        .unwrap();
        let mut c = WideCompressor::new(&d);
        let dec = WideDecompressor::new(&d);
        for line in deck() {
            let mut z = Vec::new();
            c.compress_line(line, &mut z);
            let mut back = Vec::new();
            dec.decompress_line(&z, &mut back).unwrap();
            assert_eq!(back, line);
        }
    }

    #[test]
    fn no_expansion_with_alphabet_prepopulation() {
        let d = trained(64);
        let mut c = WideCompressor::new(&d).with_preprocess(false);
        for line in deck() {
            let mut z = Vec::new();
            let (n, _) = c.compress_line(line, &mut z);
            assert!(n <= line.len(), "{:?}", String::from_utf8_lossy(line));
        }
    }

    #[test]
    fn wide_codes_improve_ratio_on_diverse_deck() {
        let narrow = trained(0);
        let wide = trained(512);
        let input: Vec<u8> = deck()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let mut zn = Vec::new();
        let sn = WideCompressor::new(&narrow).compress_buffer(&input, &mut zn);
        let mut zw = Vec::new();
        let sw = WideCompressor::new(&wide).compress_buffer(&input, &mut zw);
        assert!(
            sw.ratio() <= sn.ratio(),
            "wide {} should not lose to narrow {}",
            sw.ratio(),
            sn.ratio()
        );
    }

    #[test]
    fn output_bytes_stay_displayable() {
        let d = trained(128);
        let input: Vec<u8> = deck()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let mut z = Vec::new();
        WideCompressor::new(&d).compress_buffer(&input, &mut z);
        for &b in &z {
            assert!(
                b == LINE_SEP || b == ESCAPE || is_code_byte(b),
                "byte 0x{b:02x} is not displayable"
            );
        }
        // Line separability: one output line per input line.
        let in_lines = input.iter().filter(|&&b| b == b'\n').count();
        let out_lines = z.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(in_lines, out_lines);
    }

    #[test]
    fn zero_wide_capacity_matches_base_behaviour() {
        // A wide dictionary with no wide entries is a base dictionary minus
        // the eight page codes: same decompression semantics.
        let d = trained(0);
        assert_eq!(d.wide_len(), 0);
        let mut c = WideCompressor::new(&d).with_preprocess(false);
        let dec = WideDecompressor::new(&d);
        let mut z = Vec::new();
        c.compress_line(b"COc1cc(C=O)ccc1O", &mut z);
        let mut back = Vec::new();
        dec.decompress_line(&z, &mut back).unwrap();
        assert_eq!(back, b"COc1cc(C=O)ccc1O");
    }

    #[test]
    fn short_patterns_rejected_from_wide_region() {
        // Fill the base region, then offer a 2-byte pattern: it must be
        // skipped, not installed wide.
        let fill: Vec<Vec<u8>> = (0..214u32)
            .map(|i| vec![b'a', b'0' + (i % 10) as u8, b'A' + (i / 10 % 26) as u8])
            .collect();
        let mut pats = fill;
        pats.push(b"XY".to_vec()); // short: skipped
        pats.push(b"XYZ".to_vec()); // long enough: installed wide
        let d = WideDictionary::from_patterns(Prepopulation::None, &pats, 2, 8, false, 16).unwrap();
        assert_eq!(d.wide_len(), 1);
        assert_eq!(d.wide_entry(0, 0x21), Some(&b"XYZ"[..]));
        d.validate().unwrap();
    }

    #[test]
    fn capacity_exhaustion_detected() {
        let fill: Vec<Vec<u8>> = (0..220u32)
            .map(|i| {
                vec![
                    b'a' + (i % 26) as u8,
                    b'a' + (i / 26 % 26) as u8,
                    b'0' + (i % 10) as u8,
                ]
            })
            .collect();
        let r = WideDictionary::from_patterns(Prepopulation::None, &fill, 2, 8, false, 2);
        assert!(matches!(r, Err(ZsmilesError::CodeSpaceExhausted { .. })));
    }

    #[test]
    fn decompressor_reports_truncation_and_unknown_codes() {
        let d = trained(16);
        let dec = WideDecompressor::new(&d);
        let mut out = Vec::new();
        assert!(matches!(
            dec.decompress_line(&[ESCAPE], &mut out),
            Err(ZsmilesError::TruncatedEscape { at: 0 })
        ));
        assert!(matches!(
            dec.decompress_line(&[PAGE_BYTES[0]], &mut out),
            Err(ZsmilesError::TruncatedWideCode { at: 0 })
        ));
        // Page 7 is empty in a 16-entry dictionary.
        assert!(matches!(
            dec.decompress_line(&[PAGE_BYTES[7], b'!'], &mut out),
            Err(ZsmilesError::UnknownCode { .. })
        ));
    }

    #[test]
    fn bad_line_after_a_valid_prefix_appends_nothing() {
        // The base decoder's contract: a line is validated whole before
        // any byte is produced, so an error deep in the line leaves `out`
        // exactly as it was.
        let d = trained(16);
        let mut z = Vec::new();
        WideCompressor::new(&d)
            .with_preprocess(false)
            .compress_line(b"COc1cc(C=O)ccc1O", &mut z);
        let dec = WideDecompressor::new(&d);
        let prefix = b"kept\n".to_vec();
        for (tail, want) in [
            // Page 7 is empty in a 16-entry dictionary.
            (
                vec![PAGE_BYTES[7], b'!'],
                ZsmilesError::UnknownCode {
                    code: b'!',
                    at: z.len() + 1,
                },
            ),
            (
                vec![PAGE_BYTES[0]],
                ZsmilesError::TruncatedWideCode { at: z.len() },
            ),
            (vec![ESCAPE], ZsmilesError::TruncatedEscape { at: z.len() }),
        ] {
            let line = [z.as_slice(), &tail].concat();
            let mut out = prefix.clone();
            assert_eq!(dec.decompress_line(&line, &mut out), Err(want));
            assert_eq!(out, prefix, "no partial output");
        }
    }

    #[test]
    fn wide_code_beats_escapes_for_unmatched_text() {
        // Fill all 214 one-byte codes (no pre-population) with 4-byte
        // q-patterns so the next pattern lands in the wide region, then
        // check the DP emits the 2-byte wide code instead of 3 escapes.
        let mut pats: Vec<Vec<u8>> = (0..214u32)
            .map(|i| {
                vec![
                    b'q',
                    b'a' + (i % 26) as u8,
                    b'a' + (i / 26 % 26) as u8,
                    b'0' + (i % 10) as u8,
                ]
            })
            .collect();
        pats.push(b"XYZ".to_vec());
        let d = WideDictionary::from_patterns(Prepopulation::None, &pats, 2, 8, false, 8).unwrap();
        assert_eq!(d.wide_len(), 1);
        let mut c = WideCompressor::new(&d).with_preprocess(false);
        let mut z = Vec::new();
        let (n, _) = c.compress_line(b"XYZ", &mut z);
        assert_eq!(n, 2, "wide code used: {z:?}");
        assert_eq!(page_index(z[0]), Some(0));
        // And a base code still wins where one applies (cost 1 < cost 2).
        let mut z2 = Vec::new();
        let (n2, _) = c.compress_line(b"qaa0", &mut z2);
        assert_eq!(n2, 1);
    }

    #[test]
    fn kernel_matches_dense_automaton_and_node_trie_byte_for_byte() {
        // The wide encoder runs the reverse automaton; the dense automaton
        // and the node trie are the references. All must emit identical
        // streams — same pin the base codec carries, here across one- and
        // two-byte codes.
        let deck = diverse_deck();
        let d = trained_diverse(256);
        assert!(d.wide_len() > 0, "training should spill into wide codes");
        let auto = d.automaton();
        assert_eq!(auto.len(), d.trie().len());
        assert_eq!(auto.max_depth(), d.trie().max_depth());
        let mut kernel = WideCompressor::new(&d).with_preprocess(false);
        let mut scratch = SpScratch::new();
        for line in deck.iter().take(200) {
            let mut zk = Vec::new();
            let mut za = Vec::new();
            let mut zt = Vec::new();
            kernel.compress_line(line, &mut zk);
            encode_line(auto, line, &mut scratch, &mut za);
            encode_line(d.trie(), line, &mut scratch, &mut zt);
            assert_eq!(zk, za, "line {:?}", String::from_utf8_lossy(line));
            assert_eq!(zk, zt, "line {:?}", String::from_utf8_lossy(line));
        }
        // The automaton is compiled once and shared across clones.
        let clone = d.clone();
        assert!(std::ptr::eq(clone.automaton(), d.automaton()));
    }

    #[test]
    fn serialization_round_trips() {
        let d = trained(64);
        let mut buf = Vec::new();
        write_wide_dict(&d, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(WIDE_MAGIC));
        assert!(text.is_ascii());
        let back = read_wide_dict(&buf[..]).unwrap();
        assert_eq!(back.base_len(), d.base_len());
        assert_eq!(back.wide_len(), d.wide_len());
        let a: Vec<_> = d.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        let b: Vec<_> = back.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        assert_eq!(a, b);
        // Cross-decode: the reloaded dictionary decodes the original's
        // stream (preprocess off so bytes round-trip exactly).
        let mut z = Vec::new();
        WideCompressor::new(&d)
            .with_preprocess(false)
            .compress_line(b"COc1cc(C=O)ccc1O", &mut z);
        let mut out = Vec::new();
        WideDecompressor::new(&back)
            .decompress_line(&z, &mut out)
            .unwrap();
        assert_eq!(out, b"COc1cc(C=O)ccc1O");
    }

    #[test]
    fn bad_wide_files_rejected() {
        let r = read_wide_dict("#zsmiles-dict v1\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 1, .. })));
        let r = read_wide_dict("#zsmiles-wide-dict v1\nnotab\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        let r = read_wide_dict("#zsmiles-wide-dict v1\n!\t\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        let r = read_wide_dict("#zsmiles-wide-dict v1\n#wide-size banana\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
    }

    #[test]
    fn buffer_round_trip_with_stats() {
        let d = trained(128);
        let input: Vec<u8> = deck()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let mut z = Vec::new();
        let cs = WideCompressor::new(&d)
            .with_preprocess(false)
            .compress_buffer(&input, &mut z);
        let mut back = Vec::new();
        let ds = WideDecompressor::new(&d)
            .decompress_buffer(&z, &mut back)
            .unwrap();
        assert_eq!(back, input);
        assert_eq!(cs.lines, ds.lines);
        assert_eq!(cs.in_bytes, ds.out_bytes);
        assert_eq!(cs.out_bytes, ds.in_bytes);
        assert!(cs.ratio() < 1.0);
    }
}
