//! Code-space management.
//!
//! ZSMILES output must stay line-separable and readable, which reserves two
//! bytes globally:
//!
//! * `\n` (0x0A) — line separator: SMILES *i* of the input is line *i* of
//!   the output, the property that makes random access work;
//! * space (0x20) — the escape marker: `0x20 b` in the output decodes to the
//!   literal byte `b` (SMILES never contain spaces, so this is free).
//!
//! Every remaining *displayable* byte is a potential dictionary code:
//! printable ASCII `0x21..=0x7E` (94 bytes) plus the extended range
//! `0x80..=0xFF` (128 bytes) — 222 codes total. Control bytes (0x00–0x1F,
//! 0x7F) are never emitted, which is what keeps the archives grep-able.
//!
//! Pre-population (paper §IV-B) claims some of those codes as *identity*
//! entries — code `c` maps to the one-byte pattern `c` — so that compliant
//! input can never expand. The trade-off measured in Table I: more identity
//! codes mean fewer multi-byte pattern codes.

use smiles::alphabet::{printable_ascii, SMILES_ALPHABET};

/// The escape marker byte (space).
pub const ESCAPE: u8 = 0x20;

/// The line separator (newline).
pub const LINE_SEP: u8 = b'\n';

/// Position of the first [`LINE_SEP`] in `hay` — SWAR, eight bytes per
/// probe (the classic zero-byte trick on `word ^ LINE_SEP…`), so the
/// pack path's line splitting runs at memory speed instead of a byte at
/// a time.
#[inline]
pub(crate) fn find_newline(hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NL: u64 = u64::from_le_bytes([LINE_SEP; 8]);
    let mut words = hay.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte probe")) ^ NL;
        let found = x.wrapping_sub(LO) & !x & HI;
        if found != 0 {
            return Some(8 * k + (found.trailing_zeros() >> 3) as usize);
        }
    }
    let tail = hay.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == LINE_SEP)
        .map(|p| tail + p)
}

/// The pieces of `buf` between separators, exactly as
/// `buf.split(|&b| b == LINE_SEP)` yields them, found by
/// [`find_newline`].
pub(crate) fn split_lines(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = Some(buf);
    std::iter::from_fn(move || {
        let r = rest?;
        Some(match find_newline(r) {
            Some(p) => {
                rest = Some(&r[p + 1..]);
                &r[..p]
            }
            None => {
                rest = None;
                r
            }
        })
    })
}

/// Is `b` usable as a dictionary code?
pub const fn is_code_byte(b: u8) -> bool {
    matches!(b, 0x21..=0x7E) || b >= 0x80
}

/// All 222 usable code bytes, printable ASCII first (so dictionaries stay
/// as readable as possible), then the extended range.
pub fn code_space() -> impl Iterator<Item = u8> {
    (0x21u8..=0x7E).chain(0x80u8..=0xFF)
}

/// Number of usable code bytes.
pub const CODE_SPACE_SIZE: usize = 94 + 128;

/// Dictionary pre-population modes (paper §IV-B, Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prepopulation {
    /// No identity codes: every byte of a non-matching input must be
    /// escaped (2 bytes), so pathological inputs can double in size.
    None,
    /// Identity codes for the SMILES alphabet (78 bytes) — the paper's best
    /// row: compliant SMILES never expand, and 144 codes stay free for
    /// patterns.
    #[default]
    SmilesAlphabet,
    /// Identity codes for all printable ASCII (94 bytes): patterns are
    /// confined to the 128 extended codes.
    PrintableAscii,
}

impl Prepopulation {
    /// The identity bytes this mode claims.
    pub fn identity_bytes(&self) -> Vec<u8> {
        match self {
            Prepopulation::None => Vec::new(),
            Prepopulation::SmilesAlphabet => SMILES_ALPHABET.to_vec(),
            Prepopulation::PrintableAscii => printable_ascii().collect(),
        }
    }

    /// Codes left for multi-byte patterns.
    pub fn free_code_count(&self) -> usize {
        CODE_SPACE_SIZE - self.identity_bytes().len()
    }

    /// Stable name used in `.dct` headers.
    pub fn name(&self) -> &'static str {
        match self {
            Prepopulation::None => "none",
            Prepopulation::SmilesAlphabet => "smiles-alphabet",
            Prepopulation::PrintableAscii => "printable-ascii",
        }
    }

    /// Parse a `.dct` header value.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "none" => Prepopulation::None,
            "smiles-alphabet" => Prepopulation::SmilesAlphabet,
            "printable-ascii" => Prepopulation::PrintableAscii,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SWAR finder and the splitter built on it agree with a plain
    /// byte search and `split`, for every length up to three probes and
    /// every separator position, next to bytes one bit away from it.
    #[test]
    fn find_newline_and_split_lines_match_a_byte_search() {
        for len in 0..=24 {
            for fill in [b'C', 0x0B, 0x08, 0x8A, 0xFF] {
                for nl in (0..len).map(Some).chain([None]) {
                    for second in (0..len).map(Some).chain([None]) {
                        let mut buf = vec![fill; len];
                        for at in [nl, second].into_iter().flatten() {
                            buf[at] = LINE_SEP;
                        }
                        let want = buf.iter().position(|&b| b == LINE_SEP);
                        assert_eq!(find_newline(&buf), want, "{buf:?}");
                        let pieces: Vec<&[u8]> = split_lines(&buf).collect();
                        let split: Vec<&[u8]> = buf.split(|&b| b == LINE_SEP).collect();
                        assert_eq!(pieces, split, "{buf:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn code_space_is_222_displayable_bytes() {
        let codes: Vec<u8> = code_space().collect();
        assert_eq!(codes.len(), CODE_SPACE_SIZE);
        assert!(!codes.contains(&ESCAPE));
        assert!(!codes.contains(&LINE_SEP));
        assert!(!codes.contains(&0x7F), "DEL is not displayable");
        for b in 0x00..=0x1Fu8 {
            assert!(!codes.contains(&b), "control byte {b:#x}");
        }
        for &c in &codes {
            assert!(is_code_byte(c));
        }
    }

    #[test]
    fn is_code_byte_rejects_reserved() {
        assert!(!is_code_byte(ESCAPE));
        assert!(!is_code_byte(LINE_SEP));
        assert!(!is_code_byte(0x00));
        assert!(!is_code_byte(0x7F));
        assert!(is_code_byte(b'A'));
        assert!(is_code_byte(0x80));
        assert!(is_code_byte(0xFF));
    }

    #[test]
    fn prepopulation_counts_match_paper_arithmetic() {
        assert_eq!(Prepopulation::None.free_code_count(), 222);
        assert_eq!(Prepopulation::SmilesAlphabet.free_code_count(), 222 - 78);
        assert_eq!(Prepopulation::PrintableAscii.free_code_count(), 128);
    }

    #[test]
    fn identity_bytes_are_code_bytes() {
        for mode in [
            Prepopulation::None,
            Prepopulation::SmilesAlphabet,
            Prepopulation::PrintableAscii,
        ] {
            for b in mode.identity_bytes() {
                assert!(is_code_byte(b), "{b:#x} in {mode:?}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for mode in [
            Prepopulation::None,
            Prepopulation::SmilesAlphabet,
            Prepopulation::PrintableAscii,
        ] {
            assert_eq!(Prepopulation::from_name(mode.name()), Some(mode));
        }
        assert_eq!(Prepopulation::from_name("bogus"), None);
    }
}
