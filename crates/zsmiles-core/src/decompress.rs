//! Decompression (paper §IV-D2 and Fig. 3, lower path: read → decompress →
//! optional post-process).
//!
//! Per compressed byte: a space is the escape marker (emit the next byte
//! literally); anything else is a dictionary code (emit its expansion).
//! Straight table lookups — the asymmetry with the compressor's
//! shortest-path search is the design: archives are written once and read
//! many times.

use crate::codec::ESCAPE;
use crate::dict::{Dictionary, MAX_PATTERN_LEN};
use crate::error::ZsmilesError;
use smiles::preprocess::Preprocessor;

/// Accounting for one decompression run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecompressStats {
    pub lines: usize,
    pub in_bytes: usize,
    pub out_bytes: usize,
}

/// One expansion slot: a pattern left-aligned and zero-padded to the
/// longest pattern the format allows.
type Slot = [u8; MAX_PATTERN_LEN];

/// The fixed-slot expansion table the decode hot loop reads.
///
/// Every code owns one [`MAX_PATTERN_LEN`]-byte slot holding its pattern,
/// zero-padded, plus a one-byte length (0 = the code has no entry). The
/// copy loop moves a whole slot per code and advances by the length — one
/// fixed-size copy instead of a variable-length one, FSST's symbol-table
/// trick. 256 slots and 256 lengths make 4.25 KiB; built once per
/// [`Dictionary`] and shared by every [`Decompressor`] worker.
#[derive(Debug, Clone)]
pub struct DecodeTable {
    slots: Box<[Slot; 256]>,
    lens: [u8; 256],
}

impl DecodeTable {
    /// Build from `(code, pattern)` entries.
    ///
    /// # Panics
    ///
    /// If a pattern is empty or longer than [`MAX_PATTERN_LEN`] — both
    /// rejected by every dictionary constructor, and a pattern that does
    /// not fit its slot must never be built silently.
    pub fn build<'a, I: IntoIterator<Item = (u8, &'a [u8])>>(entries: I) -> DecodeTable {
        let mut slots = Box::new([[0u8; MAX_PATTERN_LEN]; 256]);
        let mut lens = [0u8; 256];
        for (code, pat) in entries {
            assert!(
                (1..=MAX_PATTERN_LEN).contains(&pat.len()),
                "pattern of length {} does not fit a decode slot",
                pat.len()
            );
            slots[code as usize][..pat.len()].copy_from_slice(pat);
            lens[code as usize] = pat.len() as u8;
        }
        DecodeTable { slots, lens }
    }

    /// Build from a code-indexed entry list (`entries[code]`), as the
    /// dictionary constructors hold it while assigning codes.
    pub(crate) fn from_entries(entries: &[Option<Box<[u8]>>]) -> DecodeTable {
        DecodeTable::build(
            entries
                .iter()
                .enumerate()
                .filter_map(|(c, e)| e.as_deref().map(|p| (c as u8, p))),
        )
    }

    /// The pattern `code` expands to, if any.
    #[inline]
    pub fn expansion(&self, code: u8) -> Option<&[u8]> {
        match self.lens[code as usize] as usize {
            0 => None,
            n => Some(&self.slots[code as usize][..n]),
        }
    }

    /// Codes with an entry.
    pub(crate) fn len(&self) -> usize {
        self.lens.iter().filter(|&&n| n != 0).count()
    }

    /// Copy `code`'s whole slot to `dst[pos..]` and return the position
    /// after its pattern. The caller guarantees a slot of room.
    #[inline(always)]
    fn put(&self, code: u8, dst: &mut [u8], pos: usize) -> usize {
        dst[pos..pos + MAX_PATTERN_LEN].copy_from_slice(&self.slots[code as usize]);
        pos + self.lens[code as usize] as usize
    }
}

/// Expansions up to this size (a slot of slack included) are staged on
/// the stack, so the line lands in `out` with one exact-size append.
/// SMILES lines run to tens of bytes; a longer line expands in place.
const STAGE_BYTES: usize = 256;

/// The decode kernel both code widths share: expand one line (no
/// newline), appending to `out`, and return the bytes appended.
///
/// `page(b)` names the table a two-byte code starting with `b` indexes
/// by its second byte — always `None` for the one-byte codec, so that
/// branch compiles away there. Two sweeps: the first validates the whole
/// line and sums the expanded size, so a bad line returns its error with
/// `out` untouched; the second copies one whole slot per code into a
/// buffer with a slot of slack — a stack stage appended to `out` in one
/// exact-size copy, or, for a line too long to stage, `out` itself, grown
/// once and truncated. A fresh `out` therefore ends sized to the line,
/// never with more than [`MAX_PATTERN_LEN`] bytes of spare capacity, and
/// appends of many lines to one buffer grow it amortised.
#[inline]
pub(crate) fn decode_slots<'t>(
    base: &'t DecodeTable,
    page: impl Fn(u8) -> Option<&'t DecodeTable>,
    line: &[u8],
    out: &mut Vec<u8>,
) -> Result<usize, ZsmilesError> {
    // Sweep 1: validate + size.
    let mut total = 0usize;
    let mut i = 0;
    while i < line.len() {
        let b = line[i];
        let (n, step) = if b == ESCAPE {
            if i + 1 >= line.len() {
                return Err(ZsmilesError::TruncatedEscape { at: i });
            }
            (1, 2)
        } else if let Some(table) = page(b) {
            let Some(&sub) = line.get(i + 1) else {
                return Err(ZsmilesError::TruncatedWideCode { at: i });
            };
            match table.lens[sub as usize] {
                0 => {
                    return Err(ZsmilesError::UnknownCode {
                        code: sub,
                        at: i + 1,
                    })
                }
                n => (n as usize, 2),
            }
        } else {
            match base.lens[b as usize] {
                0 => return Err(ZsmilesError::UnknownCode { code: b, at: i }),
                n => (n as usize, 1),
            }
        };
        total += n;
        i += step;
    }
    // Sweep 2.
    if total + MAX_PATTERN_LEN <= STAGE_BYTES {
        let mut stage = [0u8; STAGE_BYTES];
        expand_slots(base, &page, line, &mut stage);
        out.extend_from_slice(&stage[..total]);
    } else {
        let start = out.len();
        out.resize(start + total + MAX_PATTERN_LEN, 0);
        expand_slots(base, &page, line, &mut out[start..]);
        out.truncate(start + total);
    }
    Ok(total)
}

/// Sweep 2 of [`decode_slots`] on a validated line: copy one whole slot
/// per code into `dst`, which holds the expansion plus a slot of slack.
/// No error paths.
#[inline(always)]
fn expand_slots<'t>(
    base: &'t DecodeTable,
    page: &impl Fn(u8) -> Option<&'t DecodeTable>,
    line: &[u8],
    dst: &mut [u8],
) {
    let (mut i, mut pos) = (0, 0);
    while i < line.len() {
        let b = line[i];
        if b == ESCAPE {
            dst[pos] = line[i + 1];
            pos += 1;
            i += 2;
        } else if let Some(table) = page(b) {
            pos = table.put(line[i + 1], dst, pos);
            i += 2;
        } else {
            pos = base.put(b, dst, pos);
            i += 1;
        }
    }
}

/// A reusable decompressor bound to one dictionary.
pub struct Decompressor<'d> {
    /// The dictionary's shared fixed-slot expansion table.
    table: &'d DecodeTable,
    /// Re-numbers ring IDs to the conventional exporter style after
    /// expansion (Fig. 3's optional post-process), reused across lines.
    /// `None` by default: the archived pre-processed form is already
    /// valid SMILES. Boxed so the default decompressor stays small.
    postprocess: Option<Box<Preprocessor>>,
    ppbuf: Vec<u8>,
}

impl<'d> Decompressor<'d> {
    pub fn new(dict: &'d Dictionary) -> Self {
        Decompressor {
            table: dict.decode_table(),
            postprocess: None,
            ppbuf: Vec::new(),
        }
    }

    pub fn with_postprocess(mut self, on: bool) -> Self {
        self.postprocess = on.then(Box::default);
        self
    }

    /// Decompress one line (no newline), appending to `out`.
    ///
    /// Runs the shared slot kernel: a bad line is rejected before any
    /// output bytes are produced, and a line decoded into an empty `out`
    /// is sized exactly (at most [`MAX_PATTERN_LEN`] bytes of spare
    /// capacity). With post-processing on, the expansion is staged in a
    /// reused buffer first.
    pub fn decompress_line(
        &mut self,
        line: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, ZsmilesError> {
        let Some(pp) = self.postprocess.as_mut() else {
            return decode_slots(self.table, |_| None, line, out);
        };
        self.ppbuf.clear();
        decode_slots(self.table, |_| None, line, &mut self.ppbuf)?;
        let start = out.len();
        // A line that is not valid SMILES (it was archived raw) is
        // returned as-is.
        if pp.postprocess_into(&self.ppbuf, out).is_err() {
            out.extend_from_slice(&self.ppbuf);
        }
        Ok(out.len() - start)
    }

    /// Decompress a newline-separated buffer.
    pub fn decompress_buffer(
        &mut self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<DecompressStats, ZsmilesError> {
        crate::engine::decode_buffer(input, out, |line, out| self.decompress_line(line, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Prepopulation;
    use crate::compress::Compressor;
    use crate::dict::builder::DictBuilder;
    use crate::dict::Dictionary;

    fn trained(corpus: &[&[u8]]) -> Dictionary {
        DictBuilder {
            min_count: 2,
            ..Default::default()
        }
        .train(corpus.iter().copied())
        .unwrap()
    }

    #[test]
    fn decode_table_packs_all_entries() {
        let d = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let t = d.decode_table();
        for (code, pat) in d.all_entries() {
            assert_eq!(t.expansion(code), Some(pat));
        }
        assert_eq!(t.expansion(0x80), None);
        // Standalone build from arbitrary entries, including the longest
        // allowed pattern.
        let long = [b'x'; 16];
        let t = DecodeTable::build([(0x21u8, b"CC".as_slice()), (0xF0, &long)]);
        assert_eq!(t.expansion(0x21), Some(b"CC".as_slice()));
        assert_eq!(t.expansion(0xF0), Some(&long[..]));
        assert_eq!(t.expansion(0x22), None);
    }

    #[test]
    fn round_trip_without_preprocess() {
        let corpus: Vec<&[u8]> = vec![b"COc1cc(C=O)ccc1O"; 10];
        let d = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(corpus.iter().copied())
        .unwrap();
        let mut c = Compressor::new(&d);
        let mut dc = Decompressor::new(&d);
        for line in [
            b"COc1cc(C=O)ccc1O".as_slice(),
            b"CC(C)(C)c1ccc(O)cc1",
            b"[NH4+].[Cl-]",
            b"weird but compressible !!",
        ] {
            let mut z = Vec::new();
            c.compress_line(line, &mut z);
            let mut back = Vec::new();
            dc.decompress_line(&z, &mut back).unwrap();
            assert_eq!(
                back,
                line,
                "round trip of {}",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn round_trip_with_preprocess_yields_preprocessed_form() {
        let corpus: Vec<&[u8]> = vec![b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2"; 10];
        let d = trained(&corpus);
        assert!(d.preprocessed());
        let mut c = Compressor::new(&d);
        let mut dc = Decompressor::new(&d);
        let mut z = Vec::new();
        c.compress_line(b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2", &mut z);
        let mut back = Vec::new();
        dc.decompress_line(&z, &mut back).unwrap();
        assert_eq!(back, b"C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0");
    }

    #[test]
    fn postprocess_restores_conventional_ids() {
        let corpus: Vec<&[u8]> = vec![b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2"; 10];
        let d = trained(&corpus);
        let mut c = Compressor::new(&d);
        let mut dc = Decompressor::new(&d).with_postprocess(true);
        let mut z = Vec::new();
        c.compress_line(b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2", &mut z);
        let mut back = Vec::new();
        dc.decompress_line(&z, &mut back).unwrap();
        // Outermost-from-1 numbering; both rings disjoint → both get 1.
        assert_eq!(back, b"C1=CC=C(C=C1)C(=O)CC(=O)C1=CC=CC=C1");

        // A multi-line buffer through one decompressor: every line gets
        // the one-shot postprocess numbering, and lines that are not
        // SMILES (an unclosed ring, a stray byte) come back as archived.
        let lines: [&[u8]; 5] = [
            b"C1CC2CCC2CC1",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"C1CC",
            b"c1ccc2ccccc2c1",
            b"C!C",
        ];
        let input: Vec<u8> = lines.iter().flat_map(|l| [*l, b"\n"].concat()).collect();
        let mut z = Vec::new();
        c.compress_buffer(&input, &mut z);
        let mut back = Vec::new();
        let stats = dc.decompress_buffer(&z, &mut back).unwrap();
        assert_eq!(stats.lines, lines.len());
        let mut want = Vec::new();
        for line in lines {
            let archived = smiles::preprocess(line).unwrap_or_else(|_| line.to_vec());
            want.extend(smiles::postprocess(&archived).unwrap_or(archived));
            want.push(b'\n');
        }
        assert_eq!(back, want);
        assert!(back.starts_with(b"C1CC2CCC2CC1\nC1=CC=C(C=C1)C(=O)CC(=O)C1=CC=CC=C1\nC1CC\n"));
    }

    #[test]
    fn buffer_round_trip_preserves_line_order() {
        let corpus: Vec<&[u8]> = [
            b"CCOC(=O)c1ccccc1".as_slice(),
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
        ]
        .repeat(5);
        let d = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(corpus.iter().copied())
        .unwrap();
        let input: Vec<u8> = corpus
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let mut z = Vec::new();
        let cs = Compressor::new(&d).compress_buffer(&input, &mut z);
        let mut back = Vec::new();
        let ds = Decompressor::new(&d)
            .decompress_buffer(&z, &mut back)
            .unwrap();
        assert_eq!(back, input);
        assert_eq!(cs.lines, ds.lines);
        assert_eq!(cs.in_bytes, ds.out_bytes);
        assert_eq!(cs.out_bytes, ds.in_bytes);
    }

    #[test]
    fn unknown_code_is_an_error() {
        let d = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let mut dc = Decompressor::new(&d);
        let mut out = Vec::new();
        // 0x80 has no entry in an identity-only alphabet dictionary.
        let r = dc.decompress_line(&[b'C', 0x80], &mut out);
        assert!(matches!(
            r,
            Err(ZsmilesError::UnknownCode { code: 0x80, at: 1 })
        ));
    }

    #[test]
    fn truncated_escape_is_an_error() {
        let d = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let mut dc = Decompressor::new(&d);
        let mut out = Vec::new();
        let r = dc.decompress_line(b"CC ", &mut out);
        assert!(matches!(r, Err(ZsmilesError::TruncatedEscape { at: 2 })));
    }

    #[test]
    fn escaped_bytes_pass_through() {
        let d = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let mut dc = Decompressor::new(&d);
        let mut out = Vec::new();
        dc.decompress_line(b" ! C \x07", &mut out).unwrap();
        assert_eq!(out, b"!C\x07");
    }

    #[test]
    fn random_access_per_line() {
        // Decompressing line k alone must work without touching other
        // lines — the property Bzip2 lacks.
        let corpus: Vec<&[u8]> = [b"CCOC(=O)c1ccccc1".as_slice(), b"CCN(CC)CC"].repeat(10);
        let d = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(corpus.iter().copied())
        .unwrap();
        let mut z = Vec::new();
        let mut c = Compressor::new(&d);
        for line in &corpus {
            c.compress_line(line, &mut z);
            z.push(b'\n');
        }
        let lines: Vec<&[u8]> = z.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let mut dc = Decompressor::new(&d);
        let mut out = Vec::new();
        dc.decompress_line(lines[7], &mut out).unwrap();
        assert_eq!(out, corpus[7]);
    }
}
