//! Decompression (paper §IV-D2 and Fig. 3, lower path: read → decompress →
//! optional post-process).
//!
//! Per compressed byte: a space is the escape marker (emit the next byte
//! literally); anything else is a dictionary code (emit its expansion).
//! Straight table lookups — the asymmetry with the compressor's
//! shortest-path search is the design: archives are written once and read
//! many times.

use crate::codec::ESCAPE;
use crate::dict::Dictionary;
use crate::engine::LineDecoder;
use crate::error::ZsmilesError;
use smiles::preprocess::Preprocessor;

/// Accounting for one decompression run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecompressStats {
    pub lines: usize,
    pub in_bytes: usize,
    pub out_bytes: usize,
}

/// Packed-span sentinel for "code has no entry".
const ABSENT: u32 = u32::MAX;

/// The flat expansion table the decode hot loop reads.
///
/// All pattern bytes live back-to-back in one arena; per code a single
/// packed word `(offset << 8) | len` locates the expansion. Compared to
/// the previous `[Option<&[u8]>; 256]` this removes the per-lookup
/// `Option` discriminant test and the pointer chase into 222 separately
/// boxed patterns — every expansion is a slice of one contiguous,
/// cache-resident buffer (≤ 222 × 16 bytes, under 4 KiB). Built once per
/// [`Dictionary`] and shared by every [`Decompressor`] worker.
#[derive(Debug, Clone)]
pub struct DecodeTable {
    /// Every pattern's bytes, concatenated in code order.
    arena: Box<[u8]>,
    /// `spans[code]` = `(arena offset << 8) | pattern length`, or
    /// [`ABSENT`]. Offsets fit 24 bits (the arena is ≤ 3 552 bytes) and
    /// lengths fit 8 ([`crate::dict::MAX_PATTERN_LEN`] is 16).
    spans: [u32; 256],
}

impl DecodeTable {
    /// Build from `(code, pattern)` entries.
    ///
    /// # Panics
    ///
    /// If a pattern is longer than 255 bytes or the arena would exceed
    /// the 24-bit offset field — impossible for dictionary-shaped input
    /// (≤ 256 patterns of ≤ [`crate::dict::MAX_PATTERN_LEN`] bytes), and
    /// a corrupt packed word must never be built silently.
    pub fn build<'a, I: IntoIterator<Item = (u8, &'a [u8])>>(entries: I) -> DecodeTable {
        let mut arena = Vec::new();
        let mut spans = [ABSENT; 256];
        for (code, pat) in entries {
            assert!(pat.len() <= 0xFF, "pattern length fits the packed word");
            assert!(arena.len() < (1 << 24), "arena offset fits the packed word");
            let packed = ((arena.len() as u32) << 8) | pat.len() as u32;
            assert!(packed != ABSENT, "packed word collides with the sentinel");
            spans[code as usize] = packed;
            arena.extend_from_slice(pat);
        }
        DecodeTable {
            arena: arena.into_boxed_slice(),
            spans,
        }
    }

    /// The pattern `code` expands to, if any.
    #[inline]
    pub fn expansion(&self, code: u8) -> Option<&[u8]> {
        let packed = self.spans[code as usize];
        if packed == ABSENT {
            None
        } else {
            let off = (packed >> 8) as usize;
            Some(&self.arena[off..off + (packed & 0xFF) as usize])
        }
    }
}

/// A reusable decompressor bound to one dictionary.
pub struct Decompressor<'d> {
    /// The dictionary's shared arena-backed expansion table.
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
    /// Bulk expansion in two sweeps: the first validates the whole line
    /// and sums the expanded size, the second reserves once and copies
    /// with no error paths — so the copy loop carries no bounds/realloc
    /// bookkeeping and a bad line is rejected before any output bytes are
    /// produced.
    pub fn decompress_line(
        &mut self,
        line: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, ZsmilesError> {
        let start = out.len();
        if self.postprocess.is_some() {
            self.ppbuf.clear();
        }
        // Sweep 1: validate + size.
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
                let packed = self.table.spans[b as usize];
                if packed == ABSENT {
                    return Err(ZsmilesError::UnknownCode { code: b, at: i });
                }
                total += (packed & 0xFF) as usize;
                i += 1;
            }
        }
        // Sweep 2: expand into `out` directly unless post-processing
        // needs a staging buffer.
        let target_is_out = self.postprocess.is_none();
        {
            let target: &mut Vec<u8> = if target_is_out { out } else { &mut self.ppbuf };
            target.reserve(total);
            let mut i = 0;
            while i < line.len() {
                let b = line[i];
                if b == ESCAPE {
                    target.push(line[i + 1]);
                    i += 2;
                } else {
                    let packed = self.table.spans[b as usize];
                    let off = (packed >> 8) as usize;
                    target
                        .extend_from_slice(&self.table.arena[off..off + (packed & 0xFF) as usize]);
                    i += 1;
                }
            }
        }
        if let Some(pp) = self.postprocess.as_mut() {
            // A line that is not valid SMILES (it was archived raw) is
            // returned as-is.
            if pp.postprocess_into(&self.ppbuf, out).is_err() {
                out.extend_from_slice(&self.ppbuf);
            }
        }
        Ok(out.len() - start)
    }

    /// Decompress a newline-separated buffer.
    pub fn decompress_buffer(
        &mut self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<DecompressStats, ZsmilesError> {
        crate::engine::decode_buffer(self, input, out)
    }
}

impl LineDecoder for Decompressor<'_> {
    fn decode_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> Result<usize, ZsmilesError> {
        self.decompress_line(line, out)
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
