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
//! building a token per byte: the grammar loop in [`crate::parser`]
//! dispatches on it and lexes only the other bytes (bracket atoms, `%nn`,
//! the `se`/`as` traps, bad bytes) with [`Lexer::next_token`], and
//! [`Lexer::next_ring`] steps over every one-byte token but the digits.

use crate::element::{parse_bracket_symbol, Element};
use crate::error::{SmilesError, Span};
use crate::token::{BareAtom, BondSym, BracketAtom, Chirality, RingForm, Token};

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

/// Bytes [`Lexer::next_ring`] steps over without lexing: every one-byte
/// token of the byte-class table but the ring digits.
const STEP_OVER: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = !matches!(BYTE_CLASS[b], ByteClass::Digit | ByteClass::Lex);
        b += 1;
    }
    table
};

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
    /// filtering [`Lexer::next_token`] would, without building the tokens
    /// in between: bytes that can only start a one- or two-byte non-ring
    /// token are stepped over, and everything else (digits,
    /// `%nn`, bracket atoms, `s`, bad bytes) goes through `next_token`.
    pub fn next_ring(&mut self) -> Result<Option<Spanned>, SmilesError> {
        let input = self.input;
        loop {
            // Whether a byte may be stepped over depends only on it and
            // the byte before, so the loop carries no dependency but
            // `pos`. Neither `C` nor `B` is ever the second byte of a
            // token, so an `l` after a stepped-over `C` (an `r` after a
            // `B`) always completes `Cl` (`Br`). A scan resumes after a
            // digit, `]` or `s`, or where the grammar finishes lexing a
            // line past its first error: after a bond, branch, dot or
            // ring bond. Never after a `C` or `B`. The two bytes
            // are compared as one `u16`: testing them one at a time made
            // preprocessing about 10% slower (80 000-line deck, 2-vCPU
            // Xeon).
            const CL: u16 = u16::from_be_bytes(*b"Cl");
            const BR: u16 = u16::from_be_bytes(*b"Br");
            let mut pos = self.pos;
            let mut prev = pos.checked_sub(1).map_or(0, |p| input[p]);
            while let Some(&b) = input.get(pos) {
                let pair = u16::from_be_bytes([prev, b]);
                if !(STEP_OVER[b as usize] || pair == CL || pair == BR) {
                    break;
                }
                prev = b;
                pos += 1;
            }
            self.pos = pos;
            match self.next_token()? {
                Some(st) if matches!(st.token, Token::Ring { .. }) => return Ok(Some(st)),
                Some(_) => {}
                None => return Ok(None),
            }
        }
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
    /// whatever follows it, but for the `Cl`/`Br` pairs; `next_ring`
    /// steps over the same bytes as before the table existed.
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
        let stepped: Vec<u8> = (0..=255u8).filter(|&b| STEP_OVER[b as usize]).collect();
        let mut before = b"()./-=#$:\\*BCNOPSFIbcnop".to_vec();
        before.sort();
        assert_eq!(stepped, before);
    }

    #[test]
    fn wildcard_atom() {
        let toks = kinds("*");
        assert!(matches!(toks[0], Token::Atom(a) if a.element == Element::Wildcard));
    }
}
