//! Byte-level SMILES tokenizer.
//!
//! The lexer is strict about *lexical* structure (bracket syntax, `%nn`
//! digits, known element symbols) and silent about *grammatical* structure
//! (ring pairing, branch balance) — that is the parser's job. Every token is
//! returned with the byte [`Span`] it came from, which the preprocessor uses
//! to rewrite ring IDs in place without touching any other byte.
//!
//! Most bytes of a SMILES line are whole tokens by themselves. The
//! crate-private byte-class table says which: a bare organic atom, a bond
//! symbol, `(`, `)`, `.` or a ring digit. Two scanners read it instead of
//! building a token per byte:
//!
//! * the grammar loop in [`crate::parser`] dispatches on it and lexes
//!   only the other bytes (bracket atoms, `%nn`, the `se`/`as` traps, bad
//!   bytes) with [`Lexer::next_token`];
//! * the ring scan, the one loop behind [`Lexer::next_ring`] and the
//!   preprocessor's single pass, classifies up to 64 bytes at a time
//!   into a bit mask of the bytes it must look at: ring digits and the
//!   bytes only `next_token` can read. On a typical line that is a
//!   handful of the ~50 bytes. The mask is made by a 16-byte SSSE3 nibble
//!   lookup where the CPU has it, or else by one table probe per byte,
//!   the portable path and the oracle the vector path is tested against.

use crate::element::{parse_bracket_symbol, Element};
use crate::error::{SmilesError, Span};
use crate::token::{BareAtom, BondSym, BracketAtom, Chirality, RingForm, Token};
use std::ops::ControlFlow;

/// A token plus its origin in the input line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned {
    pub token: Token,
    pub span: Span,
}

/// What a byte starts, as far as it can tell alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ByteClass {
    /// A bare organic atom: `*`, `B C N O P S F I` or aromatic
    /// `b c n o p`. A `C` followed by `l` is [`CHLORINE`] and a `B`
    /// followed by `r` is [`BROMINE`] instead: neither `C` nor `B` is
    /// ever the second byte of a token, so the pair decides.
    Atom(BareAtom),
    Bond(BondSym),
    /// `(`
    Open,
    /// `)`
    Close,
    /// `.`
    Dot,
    /// A one-digit ring bond, `0`–`9`.
    Digit,
    /// A byte only [`Lexer::next_token`] can read: `[`, `%`, `s` (a
    /// following `e` makes it an error), `a`, any other letter and every
    /// byte that starts no token.
    Lex,
}

/// The bare two-letter atoms.
pub(crate) const CHLORINE: BareAtom = organic(17, false);
pub(crate) const BROMINE: BareAtom = organic(35, false);

/// A bare atom of atomic number `z`.
const fn organic(z: u8, aromatic: bool) -> BareAtom {
    BareAtom {
        element: Element::Z(z),
        aromatic,
    }
}

/// The byte-class table.
pub(crate) const BYTE_CLASS: [ByteClass; 256] = {
    let mut table = [ByteClass::Lex; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'*' => ByteClass::Atom(BareAtom {
                element: Element::Wildcard,
                aromatic: false,
            }),
            b'B' => ByteClass::Atom(organic(5, false)),
            b'C' => ByteClass::Atom(organic(6, false)),
            b'N' => ByteClass::Atom(organic(7, false)),
            b'O' => ByteClass::Atom(organic(8, false)),
            b'F' => ByteClass::Atom(organic(9, false)),
            b'P' => ByteClass::Atom(organic(15, false)),
            b'S' => ByteClass::Atom(organic(16, false)),
            b'I' => ByteClass::Atom(organic(53, false)),
            b'b' => ByteClass::Atom(organic(5, true)),
            b'c' => ByteClass::Atom(organic(6, true)),
            b'n' => ByteClass::Atom(organic(7, true)),
            b'o' => ByteClass::Atom(organic(8, true)),
            b'p' => ByteClass::Atom(organic(15, true)),
            b'-' => ByteClass::Bond(BondSym::Single),
            b'=' => ByteClass::Bond(BondSym::Double),
            b'#' => ByteClass::Bond(BondSym::Triple),
            b'$' => ByteClass::Bond(BondSym::Quadruple),
            b':' => ByteClass::Bond(BondSym::Aromatic),
            b'/' => ByteClass::Bond(BondSym::Up),
            b'\\' => ByteClass::Bond(BondSym::Down),
            b'(' => ByteClass::Open,
            b')' => ByteClass::Close,
            b'.' => ByteClass::Dot,
            b'0'..=b'9' => ByteClass::Digit,
            _ => ByteClass::Lex,
        };
        b += 1;
    }
    table
};

/// Bytes the ring scan must look at one at a time: the ring digits and
/// every `Lex` byte. Every other byte is a one-byte token that holds no
/// ring bond, or the `l` of `Cl` or `r` of `Br`, which are `Lex` bytes
/// the scan tells apart by the byte before.
const LOOK: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = matches!(BYTE_CLASS[b], ByteClass::Digit | ByteClass::Lex);
        b += 1;
    }
    table
};

/// The bytes [`LOOK`] skips as two 16-entry nibble tables, high then
/// low: `b` is skipped when `high[b >> 4] & low[b & 15] != 0`. Each high
/// nibble that holds a skipped byte owns one bit of its own, so the test
/// is exact; six of them do.
const SKIP_NIBBLES: ([u8; 16], [u8; 16]) = {
    let (mut high, mut low) = ([0u8; 16], [0u8; 16]);
    let mut next_bit = 0;
    let mut h = 0;
    while h < 16 {
        let mut l = 0;
        while l < 16 {
            if !LOOK[h << 4 | l] {
                if high[h] == 0 {
                    high[h] = 1 << next_bit;
                    next_bit += 1;
                }
                low[l] |= high[h];
            }
            l += 1;
        }
        h += 1;
    }
    (high, low)
};

/// Bytes the ring scan classifies per step.
const SCAN_BLOCK: usize = 64;

/// How the ring scan classifies bytes: chosen once per
/// [`crate::Preprocessor`] (tests force each path, as they do the
/// encoder's relax paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ByteScan {
    /// One byte-class table probe per byte: the portable path, and the
    /// oracle the vector path is tested against.
    Scalar,
    /// A `pshufb` nibble lookup, sixteen bytes per step.
    #[cfg(target_arch = "x86_64")]
    Ssse3(cpu::Ssse3),
}

#[cfg(target_arch = "x86_64")]
mod cpu {
    /// Proof that this CPU runs SSSE3: its field is private to this
    /// module, so only [`Ssse3::detect`] can make one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Ssse3(());

    impl Ssse3 {
        pub(super) fn detect() -> Option<Ssse3> {
            std::arch::is_x86_feature_detected!("ssse3").then_some(Ssse3(()))
        }
    }
}

impl ByteScan {
    /// The fastest path this CPU runs.
    pub(crate) fn detect() -> ByteScan {
        #[cfg(target_arch = "x86_64")]
        if let Some(proof) = cpu::Ssse3::detect() {
            return ByteScan::Ssse3(proof);
        }
        ByteScan::Scalar
    }

    /// Every path this CPU runs, the scalar one first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<ByteScan> {
        let mut paths = vec![ByteScan::Scalar];
        #[cfg(target_arch = "x86_64")]
        paths.extend(cpu::Ssse3::detect().map(ByteScan::Ssse3));
        paths
    }

    /// Bit `i` set when `block[i]` is a byte the ring scan must look at;
    /// `block` holds 1 to [`SCAN_BLOCK`] bytes.
    fn look_mask(self, block: &[u8]) -> u64 {
        debug_assert!((1..=SCAN_BLOCK).contains(&block.len()));
        match self {
            // SAFETY: a `cpu::Ssse3` exists only once
            // `is_x86_feature_detected!("ssse3")` returned true, so the CPU
            // has the feature the function enables.
            #[cfg(target_arch = "x86_64")]
            ByteScan::Ssse3(_) => unsafe { look_mask_ssse3(block) },
            ByteScan::Scalar => block
                .iter()
                .enumerate()
                .fold(0, |mask, (i, &b)| mask | u64::from(LOOK[b as usize]) << i),
        }
    }
}

/// [`ByteScan::look_mask`] sixteen bytes per step, each step loaded
/// straight from `block`: the last step of a block whose length is not
/// a multiple of 16 overlaps the one before (the bits agree), and only a
/// block shorter than 16 bytes is copied.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
fn look_mask_ssse3(block: &[u8]) -> u64 {
    let len = block.len();
    if len < 16 {
        let mut padded = [0u8; 16];
        padded[..len].copy_from_slice(block);
        return look_mask_16(&padded) & !(u64::MAX << len);
    }
    let mut mask = 0;
    let mut steps = block.chunks_exact(16);
    for (k, step) in steps.by_ref().enumerate() {
        mask |= look_mask_16(step.try_into().expect("16-byte step")) << (16 * k);
    }
    if !steps.remainder().is_empty() {
        let at = len - 16;
        mask |= look_mask_16(block[at..].try_into().expect("16-byte step")) << at;
    }
    mask
}

/// The look bits of sixteen bytes: each byte's two nibbles index the
/// [`SKIP_NIBBLES`] tables, and a byte whose two entries share no bit is
/// one to look at.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
#[inline]
fn look_mask_16(bytes: &[u8; 16]) -> u64 {
    use std::arch::x86_64::*;
    let (high, low) = &SKIP_NIBBLES;
    // SAFETY: each load reads the 16 bytes of a 16-byte array, and
    // `_mm_loadu_si128` has no alignment requirement.
    let (v, high, low) = unsafe {
        (
            _mm_loadu_si128(bytes.as_ptr().cast()),
            _mm_loadu_si128(high.as_ptr().cast()),
            _mm_loadu_si128(low.as_ptr().cast()),
        )
    };
    let nibble = _mm_set1_epi8(0x0F);
    let skip = _mm_and_si128(
        _mm_shuffle_epi8(high, _mm_and_si128(_mm_srli_epi16::<4>(v), nibble)),
        _mm_shuffle_epi8(low, _mm_and_si128(v, nibble)),
    );
    u64::from(_mm_movemask_epi8(_mm_cmpeq_epi8(skip, _mm_setzero_si128())) as u16)
}

/// Iterator-style lexer over one SMILES line.
pub struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        Lexer { input, pos: 0 }
    }

    /// A lexer over `input` whose next token starts at byte `pos`.
    pub(crate) fn resume(input: &'a [u8], pos: usize) -> Self {
        Lexer { input, pos }
    }

    /// Current byte offset (start of the next token).
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    /// Lex the next token, or `Ok(None)` at end of line.
    pub fn next_token(&mut self) -> Result<Option<Spanned>, SmilesError> {
        let start = self.pos;
        let b = match self.peek() {
            None => return Ok(None),
            Some(b) => b,
        };
        let token = match b {
            b'(' => {
                self.pos += 1;
                Token::BranchOpen
            }
            b')' => {
                self.pos += 1;
                Token::BranchClose
            }
            b'.' => {
                self.pos += 1;
                Token::Dot
            }
            b'0'..=b'9' => {
                self.pos += 1;
                Token::Ring {
                    id: (b - b'0') as u16,
                    form: RingForm::Digit,
                }
            }
            b'%' => {
                let d1 = self.input.get(self.pos + 1).copied();
                let d2 = self.input.get(self.pos + 2).copied();
                match (d1, d2) {
                    (Some(d1 @ b'0'..=b'9'), Some(d2 @ b'0'..=b'9')) => {
                        self.pos += 3;
                        Token::Ring {
                            id: ((d1 - b'0') as u16) * 10 + (d2 - b'0') as u16,
                            form: RingForm::Percent,
                        }
                    }
                    _ => return Err(SmilesError::MalformedPercentRing { at: start }),
                }
            }
            b'[' => self.lex_bracket()?,
            b'-' | b'=' | b'#' | b'$' | b':' | b'/' | b'\\' => {
                self.pos += 1;
                Token::Bond(BondSym::from_byte(b).expect("byte checked above"))
            }
            b'*' => {
                self.pos += 1;
                Token::Atom(BareAtom {
                    element: Element::Wildcard,
                    aromatic: false,
                })
            }
            b'A'..=b'Z' => self.lex_bare_upper()?,
            b'b' | b'c' | b'n' | b'o' | b'p' | b's' => {
                // Bare aromatic atoms. Note: "se"/"as" are NOT allowed bare;
                // a following lowercase letter that would form them is an
                // error caught here for a clearer message.
                if b == b's' && self.input.get(self.pos + 1) == Some(&b'e') {
                    return Err(SmilesError::BareAromaticNotAllowed {
                        span: Span::new(start, start + 2),
                    });
                }
                self.pos += 1;
                let elem = Element::from_symbol(&[b.to_ascii_uppercase()]).expect("bcnops");
                Token::Atom(BareAtom {
                    element: elem,
                    aromatic: true,
                })
            }
            b'a' => {
                if self.input.get(self.pos + 1) == Some(&b's') {
                    return Err(SmilesError::BareAromaticNotAllowed {
                        span: Span::new(start, start + 2),
                    });
                }
                return Err(SmilesError::UnexpectedByte { byte: b, at: start });
            }
            _ => return Err(SmilesError::UnexpectedByte { byte: b, at: start }),
        };
        Ok(Some(Spanned {
            token,
            span: Span::new(start, self.pos),
        }))
    }

    /// Lex forward to the next ring-bond token, or `Ok(None)` at end of
    /// line. Yields exactly the `Ring` tokens, spans and first error that
    /// filtering [`Lexer::next_token`] would, through the ring scan.
    pub fn next_ring(&mut self) -> Result<Option<Spanned>, SmilesError> {
        self.next_ring_via(ByteScan::detect())
    }

    /// [`Lexer::next_ring`] through a chosen [`ByteScan`] path.
    pub(crate) fn next_ring_via(&mut self, scan: ByteScan) -> Result<Option<Spanned>, SmilesError> {
        let found = self.scan_rings(scan, |span, id| {
            let form = if span.len() == 1 {
                RingForm::Digit
            } else {
                RingForm::Percent
            };
            ControlFlow::Break(Spanned {
                token: Token::Ring { id, form },
                span,
            })
        })?;
        Ok(found.break_value())
    }

    /// The ring scan: lex from the current position to the end of the
    /// line, handing `ring` the span and ID of every ring-bond token in
    /// line order, until it breaks. Fails with the first lexical error,
    /// as filtering [`Lexer::next_token`] would. A block of up to 64
    /// bytes is classified at once; of the bytes [`LOOK`] marks, digits
    /// are ring bonds, the `l` of `Cl` and the `r` of `Br` are stepped
    /// over, and the rest go through `next_token`. Neither `C` nor `B` is
    /// ever the second byte of a token, so the byte before decides the
    /// pairs; a scan never starts right after a `C` or `B`. Bits of bytes
    /// inside a token already lexed (a bracket atom, `%nn`) are dropped.
    #[inline]
    pub(crate) fn scan_rings<T>(
        &mut self,
        scan: ByteScan,
        mut ring: impl FnMut(Span, u16) -> ControlFlow<T>,
    ) -> Result<ControlFlow<T>, SmilesError> {
        let input = self.input;
        let mut block = self.pos;
        while block < input.len() {
            let end = (block + SCAN_BLOCK).min(input.len());
            let mut look = scan.look_mask(&input[block..end]);
            while look != 0 {
                let at = block + look.trailing_zeros() as usize;
                look &= look - 1;
                if at < self.pos {
                    continue;
                }
                let b = input[at];
                let (span, id) = if b.is_ascii_digit() {
                    self.pos = at + 1;
                    (Span::new(at, at + 1), u16::from(b - b'0'))
                } else if at > 0 && matches!((input[at - 1], b), (b'C', b'l') | (b'B', b'r')) {
                    continue;
                } else {
                    self.pos = at;
                    match self.next_token()? {
                        Some(Spanned {
                            token: Token::Ring { id, .. },
                            span,
                        }) => (span, id),
                        _ => continue,
                    }
                };
                if let ControlFlow::Break(found) = ring(span, id) {
                    return Ok(ControlFlow::Break(found));
                }
            }
            block = end;
        }
        self.pos = input.len();
        Ok(ControlFlow::Continue(()))
    }

    /// Bare upper-case atom: one of the organic subset, honouring two-letter
    /// symbols (`Cl`, `Br`).
    fn lex_bare_upper(&mut self) -> Result<Token, SmilesError> {
        let start = self.pos;
        let b0 = self.input[self.pos];
        // Per OpenSMILES, the *only* two-letter bare symbols are Cl and Br;
        // everything else is one letter. This is what makes "Sc" parse as
        // sulfur + aromatic carbon rather than scandium.
        let two = match (b0, self.input.get(self.pos + 1)) {
            (b'C', Some(b'l')) => Some(CHLORINE),
            (b'B', Some(b'r')) => Some(BROMINE),
            _ => None,
        };
        if let Some(atom) = two {
            self.pos += 2;
            return Ok(Token::Atom(atom));
        }
        match Element::from_symbol(&[b0]) {
            Some(e) if e.in_organic_subset() => {
                self.pos += 1;
                Ok(Token::Atom(BareAtom {
                    element: e,
                    aromatic: false,
                }))
            }
            Some(_) | None => Err(SmilesError::UnknownElement {
                span: Span::new(start, start + 1),
            }),
        }
    }

    /// `[` isotope? symbol chirality? hcount? charge? class? `]`
    fn lex_bracket(&mut self) -> Result<Token, SmilesError> {
        let open = self.pos;
        self.pos += 1; // consume '['

        // Find the closing bracket up front so all errors can carry a span.
        let close_rel = self.input[self.pos..]
            .iter()
            .position(|&b| b == b']')
            .ok_or(SmilesError::UnterminatedBracket { at: open })?;
        let close = self.pos + close_rel;
        let body_span = Span::new(open, close + 1);

        let mut atom = BracketAtom {
            isotope: None,
            element: Element::Wildcard,
            aromatic: false,
            chirality: Chirality::None,
            hcount: 0,
            charge: 0,
            class: None,
        };

        // isotope
        if self.peek().is_some_and(|b| b.is_ascii_digit()) {
            let (v, used) = self.read_number(3)?;
            atom.isotope = Some(v);
            debug_assert!(used > 0);
        }

        // element symbol (mandatory)
        if self.pos >= close {
            return Err(SmilesError::EmptyBracket { span: body_span });
        }
        // 'H' alone is hydrogen-the-element inside brackets ([H+], [2H]);
        // parse_bracket_symbol handles it because H is in the symbol table.
        let (elem, used, aromatic) = parse_bracket_symbol(&self.input[self.pos..close]).ok_or(
            SmilesError::UnknownElement {
                span: Span::new(self.pos, (self.pos + 2).min(close)),
            },
        )?;
        atom.element = elem;
        atom.aromatic = aromatic;
        self.pos += used;

        // chirality
        if self.peek() == Some(b'@') {
            self.pos += 1;
            if self.peek() == Some(b'@') {
                self.pos += 1;
                atom.chirality = Chirality::Cw;
            } else {
                atom.chirality = Chirality::Ccw;
            }
        }

        // hcount — but NOT if the element itself is H and we're at ']'
        if self.peek() == Some(b'H') && self.pos < close {
            self.pos += 1;
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                let (v, _) = self.read_number(2)?;
                if v > 9 {
                    return Err(SmilesError::NumberOverflow {
                        span: Span::new(self.pos - 2, self.pos),
                    });
                }
                atom.hcount = v as u8;
            } else {
                atom.hcount = 1;
            }
        }

        // charge: '+'/'-' optionally followed by digits, or doubled (++/--)
        if let Some(sign @ (b'+' | b'-')) = self.peek() {
            self.pos += 1;
            let unit: i16 = if sign == b'+' { 1 } else { -1 };
            if self.peek() == Some(sign) {
                // archaic "++" / "--"
                self.pos += 1;
                atom.charge = (2 * unit) as i8;
            } else if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                let numspan = Span::new(self.pos, self.pos + 2);
                let (v, _) = self.read_number(2)?;
                if v > 15 {
                    return Err(SmilesError::NumberOverflow { span: numspan });
                }
                atom.charge = (v as i16 * unit) as i8;
            } else {
                atom.charge = unit as i8;
            }
        }

        // atom class
        if self.peek() == Some(b':') {
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(SmilesError::UnexpectedByte {
                    byte: self.peek().unwrap_or(b']'),
                    at: self.pos,
                });
            }
            let (v, _) = self.read_number(4)?;
            atom.class = Some(v);
        }

        if self.pos != close {
            return Err(SmilesError::UnexpectedByte {
                byte: self.input[self.pos],
                at: self.pos,
            });
        }
        self.pos = close + 1;
        Ok(Token::Bracket(atom))
    }

    /// Read up to `max_digits` ASCII digits as a u16.
    fn read_number(&mut self, max_digits: usize) -> Result<(u16, usize), SmilesError> {
        let start = self.pos;
        let mut v: u32 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            if self.pos - start >= max_digits {
                return Err(SmilesError::NumberOverflow {
                    span: Span::new(start, self.pos + 1),
                });
            }
            v = v * 10 + (b - b'0') as u32;
            self.pos += 1;
        }
        if v > u16::MAX as u32 {
            return Err(SmilesError::NumberOverflow {
                span: Span::new(start, self.pos),
            });
        }
        Ok((v as u16, self.pos - start))
    }
}

/// Tokenize a whole line. Fails on the first lexical error.
pub fn tokenize(line: &[u8]) -> Result<Vec<Spanned>, SmilesError> {
    let mut lx = Lexer::new(line);
    let mut out = Vec::with_capacity(line.len());
    while let Some(t) = lx.next_token()? {
        out.push(t);
    }
    Ok(out)
}

/// Re-serialize a token stream. For any stream produced by [`tokenize`]
/// this reproduces the input bytes exactly (the lexer is lossless modulo
/// nothing: every byte belongs to exactly one token).
pub fn detokenize(tokens: &[Spanned]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    for t in tokens {
        t.token.write_to(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(line: &str) -> Vec<Token> {
        tokenize(line.as_bytes())
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    fn roundtrip(line: &str) -> String {
        let toks = tokenize(line.as_bytes()).unwrap();
        String::from_utf8(detokenize(&toks)).unwrap()
    }

    #[test]
    fn vanillin_tokens() {
        // The paper's worked example (Fig. 1).
        let toks = kinds("COc1cc(C=O)ccc1O");
        assert_eq!(toks.len(), 16);
        assert!(matches!(toks[0], Token::Atom(a) if !a.aromatic && a.element.symbol() == "C"));
        assert!(matches!(toks[2], Token::Atom(a) if a.aromatic && a.element.symbol() == "C"));
        assert!(matches!(
            toks[3],
            Token::Ring {
                id: 1,
                form: RingForm::Digit
            }
        ));
        assert!(matches!(toks[6], Token::BranchOpen));
        assert!(matches!(toks[8], Token::Bond(BondSym::Double)));
        assert!(matches!(toks[10], Token::BranchClose));
    }

    #[test]
    fn exact_roundtrip_on_corpus() {
        for s in [
            "COc1cc(C=O)ccc1O",
            "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            "[13CH4]",
            "[NH4+].[Cl-]",
            "C/C=C\\C",
            "N#Cc1ccccc1",
            "C%12CCCCC%12",
            "[C@@H](N)(C)C(=O)O",
            "[Fe+2]",
            "[se]1cccc1",
            "[CH3:42]C",
            "*C*",
            "C$C",
        ] {
            assert_eq!(roundtrip(s), s, "roundtrip {s}");
        }
    }

    #[test]
    fn two_letter_bare_atoms() {
        let toks = kinds("ClCCBr");
        assert_eq!(toks.len(), 4);
        assert!(matches!(toks[0], Token::Atom(a) if a.element.symbol() == "Cl"));
        assert!(matches!(toks[3], Token::Atom(a) if a.element.symbol() == "Br"));
    }

    #[test]
    fn percent_ring_ids() {
        let toks = kinds("C%10CC%10");
        assert!(matches!(
            toks[1],
            Token::Ring {
                id: 10,
                form: RingForm::Percent
            }
        ));
        assert!(matches!(
            toks[4],
            Token::Ring {
                id: 10,
                form: RingForm::Percent
            }
        ));
    }

    #[test]
    fn archaic_double_minus_normalizes() {
        // "[O--]" lexes to charge -2 and re-serializes in the modern form.
        assert_eq!(roundtrip("[O--]"), "[O-2]");
        assert_eq!(roundtrip("[Ca++]"), "[Ca+2]");
    }

    #[test]
    fn percent_requires_two_digits() {
        assert!(matches!(
            tokenize(b"C%1CC"),
            Err(SmilesError::MalformedPercentRing { at: 1 })
        ));
        assert!(matches!(
            tokenize(b"C%"),
            Err(SmilesError::MalformedPercentRing { at: 1 })
        ));
    }

    #[test]
    fn bracket_full_fields() {
        let toks = kinds("[13C@H2+2:7]");
        let Token::Bracket(b) = toks[0] else {
            panic!("want bracket")
        };
        assert_eq!(b.isotope, Some(13));
        assert_eq!(b.element.symbol(), "C");
        assert_eq!(b.chirality, Chirality::Ccw);
        assert_eq!(b.hcount, 2);
        assert_eq!(b.charge, 2);
        assert_eq!(b.class, Some(7));
    }

    #[test]
    fn bracket_hydrogen_element() {
        let toks = kinds("[H+]");
        let Token::Bracket(b) = toks[0] else { panic!() };
        assert_eq!(b.element.symbol(), "H");
        assert_eq!(b.charge, 1);
        assert_eq!(b.hcount, 0);

        let toks = kinds("[2H]");
        let Token::Bracket(b) = toks[0] else { panic!() };
        assert_eq!(b.isotope, Some(2));
        assert_eq!(b.element.symbol(), "H");
    }

    #[test]
    fn bracket_double_negative_charge() {
        let toks = kinds("[O--]");
        let Token::Bracket(b) = toks[0] else { panic!() };
        assert_eq!(b.charge, -2);
        let toks = kinds("[O-2]");
        let Token::Bracket(b) = toks[0] else { panic!() };
        assert_eq!(b.charge, -2);
    }

    #[test]
    fn bracket_chirality_double_at() {
        let toks = kinds("[C@@H]");
        let Token::Bracket(b) = toks[0] else { panic!() };
        assert_eq!(b.chirality, Chirality::Cw);
        assert_eq!(b.hcount, 1);
    }

    #[test]
    fn bracket_errors() {
        assert!(matches!(
            tokenize(b"[CH4"),
            Err(SmilesError::UnterminatedBracket { at: 0 })
        ));
        assert!(matches!(
            tokenize(b"[]"),
            Err(SmilesError::EmptyBracket { .. })
        ));
        assert!(matches!(
            tokenize(b"[Xx]"),
            Err(SmilesError::UnknownElement { .. })
        ));
        assert!(matches!(
            tokenize(b"[C+16]"),
            Err(SmilesError::NumberOverflow { .. })
        ));
        assert!(matches!(
            tokenize(b"[CH99]"),
            Err(SmilesError::NumberOverflow { .. })
        ));
    }

    #[test]
    fn bare_errors() {
        // Fe must be bracketed: F lexes, then 'e' cannot start a token.
        assert!(matches!(
            tokenize(b"FeC"),
            Err(SmilesError::UnexpectedByte { byte: b'e', .. })
        ));
        // se / as must be bracketed.
        assert!(matches!(
            tokenize(b"se1ccc1"),
            Err(SmilesError::BareAromaticNotAllowed { .. })
        ));
        assert!(matches!(
            tokenize(b"asC"),
            Err(SmilesError::BareAromaticNotAllowed { .. })
        ));
        // random junk
        assert!(matches!(
            tokenize(b"C!C"),
            Err(SmilesError::UnexpectedByte { byte: b'!', at: 1 })
        ));
        // 'E' is not an element
        assert!(matches!(
            tokenize(b"E"),
            Err(SmilesError::UnknownElement { .. })
        ));
    }

    #[test]
    fn bare_f_is_fluorine_not_prefix() {
        // "Fl" is NOT flerovium outside brackets: F lexes, 'l' errors.
        assert!(matches!(
            tokenize(b"FlC"),
            Err(SmilesError::UnexpectedByte { byte: b'l', .. })
        ));
        // Plain F is fine.
        let toks = kinds("FC");
        assert!(matches!(toks[0], Token::Atom(a) if a.element.symbol() == "F"));
    }

    #[test]
    fn bare_sc_is_sulfur_then_aromatic_carbon() {
        // The classic trap: outside brackets only Cl/Br are two-letter.
        let toks = kinds("CSc1ccccc1");
        assert!(matches!(toks[1], Token::Atom(a) if a.element.symbol() == "S" && !a.aromatic));
        assert!(matches!(toks[2], Token::Atom(a) if a.element.symbol() == "C" && a.aromatic));
    }

    #[test]
    fn spans_cover_input_exactly() {
        let line = b"C%10[CH3:4]=Cc1(Br)1.%10"; // grammatical nonsense, lexically fine
        let toks = tokenize(line).unwrap();
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.span.start, pos, "tokens must tile the input");
            pos = t.span.end;
        }
        assert_eq!(pos, line.len());
    }

    #[test]
    fn empty_line_tokenizes_to_nothing() {
        assert!(tokenize(b"").unwrap().is_empty());
    }

    /// Every byte the table calls a one-byte token lexes as that token
    /// whatever follows it, but for the `Cl`/`Br` pairs; the ring scan
    /// skips the same bytes as before the table existed.
    #[test]
    fn byte_class_table_agrees_with_next_token() {
        for b in 0..=255u8 {
            let class = BYTE_CLASS[b as usize];
            for next in [
                None,
                Some(b'l'),
                Some(b'r'),
                Some(b'e'),
                Some(b'C'),
                Some(b'1'),
            ] {
                let line: Vec<u8> = std::iter::once(b).chain(next).collect();
                let got = Lexer::new(&line).next_token();
                let want = match class {
                    ByteClass::Atom(_) if (b, next) == (b'C', Some(b'l')) => Token::Atom(CHLORINE),
                    ByteClass::Atom(_) if (b, next) == (b'B', Some(b'r')) => Token::Atom(BROMINE),
                    ByteClass::Atom(a) => Token::Atom(a),
                    ByteClass::Bond(sym) => Token::Bond(sym),
                    ByteClass::Open => Token::BranchOpen,
                    ByteClass::Close => Token::BranchClose,
                    ByteClass::Dot => Token::Dot,
                    ByteClass::Digit => Token::Ring {
                        id: (b - b'0') as u16,
                        form: RingForm::Digit,
                    },
                    ByteClass::Lex => continue,
                };
                let st = got.unwrap().unwrap();
                assert_eq!(st.token, want, "{:?}", String::from_utf8_lossy(&line));
                let len = if matches!(want, Token::Atom(a) if a == CHLORINE || a == BROMINE) {
                    2
                } else {
                    1
                };
                assert_eq!(st.span, Span::new(0, len));
            }
        }
        let stepped: Vec<u8> = (0..=255u8).filter(|&b| !LOOK[b as usize]).collect();
        let mut before = b"()./-=#$:\\*BCNOPSFIbcnop".to_vec();
        before.sort();
        assert_eq!(stepped, before);
    }

    /// Every path's mask matches the table, for every byte in every
    /// lane and for blocks of every length.
    #[test]
    fn every_byte_scan_path_marks_what_the_table_marks() {
        let want = |block: &[u8]| {
            block
                .iter()
                .enumerate()
                .fold(0u64, |m, (i, &b)| m | u64::from(LOOK[b as usize]) << i)
        };
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for scan in ByteScan::available() {
            for lane in 0..SCAN_BLOCK {
                for b in 0..=255u8 {
                    let mut block = [b'C'; SCAN_BLOCK];
                    block[lane] = b;
                    assert_eq!(
                        scan.look_mask(&block),
                        want(&block),
                        "{scan:?} {b} at {lane}"
                    );
                }
            }
            for len in 1..=SCAN_BLOCK {
                for _ in 0..64 {
                    let block: Vec<u8> = (0..len)
                        .map(|_| {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng as u8
                        })
                        .collect();
                    assert_eq!(scan.look_mask(&block), want(&block), "{scan:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn wildcard_atom() {
        let toks = kinds("*");
        assert!(matches!(toks[0], Token::Atom(a) if a.element == Element::Wildcard));
    }
}
