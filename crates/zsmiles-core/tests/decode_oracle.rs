//! The fixed-slot decode kernels against the decoders they replaced.
//!
//! Two oracles keep the earlier implementations alive as test code only:
//!
//! * the base codec's arena decoder — every pattern concatenated into one
//!   buffer, a packed `(offset << 8) | len` word per code, a validating
//!   sizing sweep, then one `extend_from_slice` per code;
//! * the wide codec's one-pass decoder, which walks the line and appends
//!   each expansion as it goes (so, unlike the kernel, it can leave a
//!   partial line in `out` before an error).
//!
//! Over random dictionaries (16-byte patterns, identity entries, wide
//! pages) and random lines (escapes, unknown codes, a trailing lone
//! escape, a page byte missing its sub-code), decoding appended to a
//! non-empty `out` must give the oracle's bytes, or the oracle's error
//! variant and offset with `out` left exactly as it was.

use proptest::prelude::*;
use smiles::preprocess::Preprocessor;
use zsmiles_core::wide::{page_index, WideDecompressor, WideDictionary, MAX_WIDE_ENTRIES};
use zsmiles_core::{Compressor, Decompressor, Dictionary, Prepopulation, ZsmilesError, ESCAPE};

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Packed-span sentinel for "code has no entry".
const ABSENT: u32 = u32::MAX;

/// The arena decode table: every pattern back to back, one packed
/// `(offset << 8) | len` word per code.
struct ArenaTable {
    arena: Vec<u8>,
    spans: [u32; 256],
}

impl ArenaTable {
    fn new(dict: &Dictionary) -> ArenaTable {
        let mut arena = Vec::new();
        let mut spans = [ABSENT; 256];
        for (code, pat) in dict.all_entries() {
            spans[code as usize] = ((arena.len() as u32) << 8) | pat.len() as u32;
            arena.extend_from_slice(pat);
        }
        ArenaTable { arena, spans }
    }

    /// Validate and size, then expand with one `extend_from_slice` per
    /// code; with `postprocess`, stage the line and renumber ring IDs,
    /// returning lines that are not SMILES as archived.
    fn decode(
        &self,
        line: &[u8],
        postprocess: Option<&mut Preprocessor>,
        out: &mut Vec<u8>,
    ) -> Result<usize, ZsmilesError> {
        let mut total = 0usize;
        let mut i = 0;
        while i < line.len() {
            let b = line[i];
            if b == ESCAPE {
                if i + 1 >= line.len() {
                    return Err(ZsmilesError::TruncatedEscape { at: i });
                }
                total += 1;
                i += 2;
            } else {
                let packed = self.spans[b as usize];
                if packed == ABSENT {
                    return Err(ZsmilesError::UnknownCode { code: b, at: i });
                }
                total += (packed & 0xFF) as usize;
                i += 1;
            }
        }
        let mut staged = Vec::new();
        let start = out.len();
        let target = if postprocess.is_some() {
            &mut staged
        } else {
            &mut *out
        };
        target.reserve(total);
        let mut i = 0;
        while i < line.len() {
            let b = line[i];
            if b == ESCAPE {
                target.push(line[i + 1]);
                i += 2;
            } else {
                let packed = self.spans[b as usize];
                let off = (packed >> 8) as usize;
                target.extend_from_slice(&self.arena[off..off + (packed & 0xFF) as usize]);
                i += 1;
            }
        }
        if let Some(pp) = postprocess {
            if pp.postprocess_into(&staged, out).is_err() {
                out.extend_from_slice(&staged);
            }
        }
        Ok(out.len() - start)
    }
}

/// The one-pass wide decoder: appends as it walks.
fn wide_oracle(
    dict: &WideDictionary,
    line: &[u8],
    out: &mut Vec<u8>,
) -> Result<usize, ZsmilesError> {
    let start = out.len();
    let mut i = 0usize;
    while i < line.len() {
        let b = line[i];
        if b == ESCAPE {
            let lit = *line
                .get(i + 1)
                .ok_or(ZsmilesError::TruncatedEscape { at: i })?;
            out.push(lit);
            i += 2;
        } else if let Some(page) = page_index(b) {
            let sub = *line
                .get(i + 1)
                .ok_or(ZsmilesError::TruncatedWideCode { at: i })?;
            let pat = dict
                .wide_entry(page, sub)
                .ok_or(ZsmilesError::UnknownCode {
                    code: sub,
                    at: i + 1,
                })?;
            out.extend_from_slice(pat);
            i += 2;
        } else {
            let pat = dict
                .base_entry(b)
                .ok_or(ZsmilesError::UnknownCode { code: b, at: i })?;
            out.extend_from_slice(pat);
            i += 1;
        }
    }
    Ok(out.len() - start)
}

/// The kernel's result must equal the oracle's: same bytes on success;
/// same error (variant and offset) with `out` untouched on failure.
fn assert_agrees(
    got: Result<usize, ZsmilesError>,
    got_out: &[u8],
    want: Result<usize, ZsmilesError>,
    want_out: &[u8],
    prefix: &[u8],
) {
    match (got, want) {
        (Ok(n), Ok(m)) => {
            assert_eq!(n, m);
            assert_eq!(got_out, want_out);
        }
        (Err(e), Err(f)) => {
            assert_eq!(e, f);
            assert_eq!(got_out, prefix, "a bad line must append nothing");
        }
        (got, want) => panic!("kernel says {got:?}, oracle says {want:?}"),
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const PREPOPULATIONS: [Prepopulation; 3] = [
    Prepopulation::None,
    Prepopulation::SmilesAlphabet,
    Prepopulation::PrintableAscii,
];

/// Pattern bytes: a SMILES-ish alphabet so valid lines exist, plus any
/// byte but the newline.
fn arb_pattern_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        prop_oneof![
            Just(b'C'),
            Just(b'c'),
            Just(b'1'),
            Just(b'('),
            Just(b')'),
            Just(b'='),
            Just(b'O'),
            Just(b'N')
        ],
        (0u8..=255).prop_filter("no newline", |&b| b != b'\n'),
    ]
}

/// Short patterns, longest-allowed (16-byte) ones, and single bytes that
/// may duplicate an identity entry.
fn arb_pattern() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(arb_pattern_byte(), 1..6),
        proptest::collection::vec(arb_pattern_byte(), 16),
        proptest::collection::vec(arb_pattern_byte(), 1..=16),
    ]
}

/// Line steps: `(kind, pick)` — kind 0 escapes the low byte of `pick`,
/// any other kind emits installed code `pick % codes.len()`.
fn arb_steps() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((0u8..4, any::<u16>()), 0..40)
}

/// A fault `(kind, offset, a, b)` for [`line_bytes`]; half the kinds
/// leave the line as built.
fn arb_fault() -> impl Strategy<Value = (u8, usize, u8, u8)> {
    (0u8..8, any::<usize>(), any::<u8>(), any::<u8>())
}

/// Build a compressed line from installed codes (`codes` holds each
/// code's bytes — one byte, or page + sub) and escapes, then apply the
/// fault: 4 appends a lone escape, 5 a lone page byte, 6 inserts the raw
/// byte `a` at `offset`, 7 inserts a page byte and sub-code `b` there.
/// Inserted bytes may name no entry or split a two-byte unit; the
/// oracle decides what the line means.
fn line_bytes(codes: &[Vec<u8>], steps: &[(u8, u16)], fault: (u8, usize, u8, u8)) -> Vec<u8> {
    let mut line = Vec::new();
    for &(kind, pick) in steps {
        if kind == 0 {
            line.extend_from_slice(&[ESCAPE, pick as u8]);
        } else {
            line.extend_from_slice(&codes[pick as usize % codes.len()]);
        }
    }
    let (kind, offset, a, b) = fault;
    let at = offset % (line.len() + 1);
    let page = 0xF8 | (a & 7);
    match kind {
        4 => line.push(ESCAPE),
        5 => line.push(page),
        6 => line.insert(at, a),
        7 => drop(line.splice(at..at, [page, b])),
        _ => {}
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The base kernel against the arena decoder, postprocess on and
    /// off, random lines and compressed SMILES alike.
    #[test]
    fn base_kernel_matches_arena_oracle(
        prepop in 0usize..3,
        patterns in proptest::collection::vec(arb_pattern(), 0..120),
        lines in proptest::collection::vec((arb_steps(), arb_fault()), 1..12),
        prefix in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let dict = Dictionary::from_patterns(
            PREPOPULATIONS[prepop], &patterns, 1, 16, false,
        ).unwrap();
        let oracle = ArenaTable::new(&dict);
        let codes: Vec<Vec<u8>> = dict.all_entries().map(|(c, _)| vec![c]).collect();
        let mut inputs: Vec<Vec<u8>> = lines
            .iter()
            .map(|(steps, fault)| line_bytes(&codes, steps, *fault))
            .collect();
        // Real compressed SMILES, so the postprocess path renumbers too.
        let mut c = Compressor::new(&dict).with_preprocess(false);
        for smi in [b"C1CC2CCC2CC1".as_slice(), b"c1ccccc1C(=O)N", b"C1CC"] {
            let mut z = Vec::new();
            c.compress_line(smi, &mut z);
            inputs.push(z);
        }
        for postprocess in [false, true] {
            let mut dec = Decompressor::new(&dict).with_postprocess(postprocess);
            let mut pp = Preprocessor::new();
            for line in &inputs {
                let mut got = prefix.clone();
                let r = dec.decompress_line(line, &mut got);
                let mut want = prefix.clone();
                let w = oracle.decode(line, postprocess.then_some(&mut pp), &mut want);
                assert_agrees(r, &got, w, &want, &prefix);
            }
        }
    }

    /// The wide kernel against the one-pass wide decoder, across one- and
    /// two-byte codes.
    #[test]
    fn wide_kernel_matches_one_pass_oracle(
        prepop in 0usize..2,
        patterns in proptest::collection::vec(arb_pattern(), 150..450),
        lines in proptest::collection::vec((arb_steps(), arb_fault()), 1..12),
        prefix in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let dict = WideDictionary::from_patterns(
            PREPOPULATIONS[prepop], &patterns, 1, 16, false, MAX_WIDE_ENTRIES,
        ).unwrap();
        let codes: Vec<Vec<u8>> = dict.all_entries().map(|(c, _)| c).collect();
        let dec = WideDecompressor::new(&dict);
        for (steps, fault) in &lines {
            let line = line_bytes(&codes, steps, *fault);
            let mut got = prefix.clone();
            let r = dec.decompress_line(&line, &mut got);
            let mut want = prefix.clone();
            let w = wide_oracle(&dict, &line, &mut want);
            assert_agrees(r, &got, w, &want, &prefix);
        }
    }
}

/// The line builder reaches every branch the properties rely on: wide
/// codes in use, clean lines that decode, and each fault's error.
#[test]
fn line_builder_reaches_every_branch() {
    let patterns: Vec<Vec<u8>> = (0..400u32)
        .map(|i| format!("C{i:03}c1").into_bytes())
        .collect();
    let dict = WideDictionary::from_patterns(
        Prepopulation::None,
        &patterns,
        1,
        16,
        false,
        MAX_WIDE_ENTRIES,
    )
    .unwrap();
    let codes: Vec<Vec<u8>> = dict.all_entries().map(|(c, _)| c).collect();
    assert_eq!(codes[300].len(), 2, "pick 300 is a wide code");
    let dec = WideDecompressor::new(&dict);
    let steps = [(1, 3), (0, u16::from(b'x')), (1, 300)];
    let mut out = Vec::new();
    assert_eq!(
        dec.decompress_line(&line_bytes(&codes, &steps, (0, 0, 0, 0)), &mut out),
        Ok(13)
    );
    assert_eq!(out, b"C003c1xC300c1");
    // Page 7 holds nothing in a 186-entry wide region.
    for (fault, want) in [
        ((4, 0, 0, 0), ZsmilesError::TruncatedEscape { at: 5 }),
        ((5, 0, 0, 0), ZsmilesError::TruncatedWideCode { at: 5 }),
        (
            (6, 0, 0x01, 0),
            ZsmilesError::UnknownCode { code: 0x01, at: 0 },
        ),
        (
            (7, 1, 7, b'!'),
            ZsmilesError::UnknownCode { code: b'!', at: 2 },
        ),
    ] {
        let line = line_bytes(&codes, &steps, fault);
        assert_eq!(dec.decompress_line(&line, &mut out), Err(want), "{fault:?}");
    }
}
