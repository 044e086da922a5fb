//! SMILES grammar: one loop that pulls tokens from the [`Lexer`] and
//! reports each atom and bond it accepts to a builder.
//!
//! The parser enforces the structural rules the lexer cannot see:
//! branch balance, ring-bond pairing (first occurrence opens, second
//! closes, IDs reusable after closing), bond-symbol agreement between the
//! two halves of a ring closure, no ring closure onto an existing bond,
//! and sane placement of dots and bonds. What is built from the accepted
//! atoms and bonds is the builder's business: [`parse`] builds a
//! [`Molecule`], and [`crate::features::FeatureCounter`] only counts.
//!
//! A grammar error is reported only once the rest of the line has lexed:
//! a lexical error anywhere in the line wins over it, so every builder
//! gets the same `Result` a tokenize-first parse would give.

use crate::error::{SmilesError, Span};
use crate::graph::{AtomKind, Molecule};
use crate::lexer::{Lexer, Spanned};
use crate::token::{BondSym, Token};

/// Receives what the grammar accepts, in line order. Atoms are numbered
/// from 0 in the order they are added; a bond names two added atoms.
pub(crate) trait Builder {
    fn add_atom(&mut self, atom: AtomKind);
    /// A bond between atoms `a` and `b`; `sym` is `None` when implicit,
    /// `ring` marks a ring closure.
    fn add_bond(&mut self, a: u32, b: u32, sym: Option<BondSym>, ring: bool);
}

impl Builder for Molecule {
    fn add_atom(&mut self, atom: AtomKind) {
        Molecule::add_atom(self, atom);
    }

    fn add_bond(&mut self, a: u32, b: u32, sym: Option<BondSym>, ring: bool) {
        Molecule::add_bond(self, a, b, sym, ring);
    }
}

/// Chain parent of the first atom of each dot-separated fragment.
const NO_ATOM: u32 = u32::MAX;

/// An open ring-bond half waiting for its partner digit.
#[derive(Debug, Clone, Copy)]
struct OpenRing {
    atom: u32,
    bond: Option<BondSym>,
}

/// The grammar's state. Its buffers are kept between lines, so a warmed
/// parser driving an allocation-free builder does not allocate.
#[derive(Debug)]
pub struct Parser {
    /// Attachment point to restore at each `)`, with its `(` byte position.
    branches: Vec<(u32, usize)>,
    /// Open ring-bond halves by ID. `%nn` and single digits share the
    /// 100 IDs: the value is what matters, not the spelling.
    rings: [Option<OpenRing>; 100],
    open_rings: usize,
    /// For each atom, the atom its chain bond came from, or [`NO_ATOM`].
    chain_parent: Vec<u32>,
    /// Atom pairs joined by ring closures so far, smaller index first.
    ring_bonds: Vec<(u32, u32)>,
    atoms: u32,
    /// The attachment point for the next atom or ring digit.
    prev: Option<u32>,
    /// A bond symbol waiting for its next atom or ring digit, with its
    /// byte position.
    pending_bond: Option<(BondSym, usize)>,
    /// Set right after `(`, to detect `()`.
    branch_just_opened: bool,
    /// Byte position of the last token, when that token was a dot.
    trailing_dot: Option<usize>,
}

impl Default for Parser {
    fn default() -> Self {
        Parser::new()
    }
}

impl Parser {
    pub fn new() -> Parser {
        Parser {
            branches: Vec::new(),
            rings: [None; 100],
            open_rings: 0,
            chain_parent: Vec::new(),
            ring_bonds: Vec::new(),
            atoms: 0,
            prev: None,
            pending_bond: None,
            branch_just_opened: false,
            trailing_dot: None,
        }
    }

    /// Parse one SMILES line into a molecule.
    pub fn parse(&mut self, line: &[u8]) -> Result<Molecule, SmilesError> {
        let mut mol = Molecule::new();
        self.build(line, &mut mol)?;
        Ok(mol)
    }

    /// Run the grammar over `line`, reporting every accepted atom and
    /// bond to `out`. On error `out` may hold part of the line.
    pub(crate) fn build<B: Builder>(
        &mut self,
        line: &[u8],
        out: &mut B,
    ) -> Result<(), SmilesError> {
        self.reset();
        let mut lexer = Lexer::new(line);
        while let Some(st) = lexer.next_token()? {
            if let Err(grammar) = self.accept(st, out) {
                // Finish lexing: a lexical error later in the line wins.
                while lexer.next_token()?.is_some() {}
                return Err(grammar);
            }
        }
        self.finish()
    }

    fn reset(&mut self) {
        self.branches.clear();
        if self.open_rings > 0 {
            self.rings = [None; 100];
            self.open_rings = 0;
        }
        self.chain_parent.clear();
        self.ring_bonds.clear();
        self.atoms = 0;
        self.prev = None;
        self.pending_bond = None;
        self.branch_just_opened = false;
        self.trailing_dot = None;
    }

    /// One grammar step: the token `st` extends the line or is an error.
    #[inline]
    fn accept<B: Builder>(&mut self, st: Spanned, out: &mut B) -> Result<(), SmilesError> {
        let at = st.span.start;
        self.trailing_dot = None;
        match st.token {
            Token::Atom(a) => self.atom(AtomKind::Bare(a), out),
            Token::Bracket(b) => self.atom(AtomKind::Bracket(b), out),
            Token::Bond(sym) => {
                if self.pending_bond.is_some() || self.prev.is_none() {
                    return Err(SmilesError::DanglingBond { at });
                }
                self.pending_bond = Some((sym, at));
            }
            Token::Ring { id, .. } => self.ring(id, st.span, out)?,
            Token::BranchOpen => {
                let cur = self.prev.ok_or(SmilesError::BranchWithoutAtom { at })?;
                if self.pending_bond.is_some() {
                    // "C=(C)" is not legal: the bond belongs inside.
                    return Err(SmilesError::DanglingBond { at });
                }
                self.branches.push((cur, at));
                self.branch_just_opened = true;
                return Ok(());
            }
            Token::BranchClose => {
                let (restore, open_at) = self
                    .branches
                    .pop()
                    .ok_or(SmilesError::UnmatchedBranchClose { at })?;
                if self.branch_just_opened {
                    return Err(SmilesError::EmptyBranch {
                        span: Span::new(open_at, st.span.end),
                    });
                }
                if let Some((_, at)) = self.pending_bond.take() {
                    return Err(SmilesError::DanglingBond { at });
                }
                self.prev = Some(restore);
            }
            Token::Dot => {
                if !self.branches.is_empty() || self.prev.is_none() {
                    return Err(SmilesError::MisplacedDot { at });
                }
                if let Some((_, at)) = self.pending_bond.take() {
                    return Err(SmilesError::DanglingBond { at });
                }
                self.prev = None;
                self.trailing_dot = Some(at);
            }
        }
        self.branch_just_opened = false;
        Ok(())
    }

    #[inline]
    fn atom<B: Builder>(&mut self, kind: AtomKind, out: &mut B) {
        // A bond symbol is only accepted after an atom, and a dot refuses
        // a pending one, so a pending bond always has an atom to follow.
        debug_assert!(self.prev.is_some() || self.pending_bond.is_none());
        let idx = self.atoms;
        self.atoms += 1;
        out.add_atom(kind);
        if let Some(p) = self.prev {
            let sym = self.pending_bond.take().map(|(s, _)| s);
            out.add_bond(p, idx, sym, false);
        }
        self.chain_parent.push(self.prev.unwrap_or(NO_ATOM));
        self.prev = Some(idx);
    }

    fn ring<B: Builder>(&mut self, id: u16, span: Span, out: &mut B) -> Result<(), SmilesError> {
        let cur = self
            .prev
            .ok_or(SmilesError::RingWithoutAtom { at: span.start })?;
        let slot = &mut self.rings[id as usize];
        let Some(open) = slot.take() else {
            // Opening half.
            *slot = Some(OpenRing {
                atom: cur,
                bond: self.pending_bond.take().map(|(s, _)| s),
            });
            self.open_rings += 1;
            return Ok(());
        };
        // Closing half.
        self.open_rings -= 1;
        if open.atom == cur {
            return Err(SmilesError::RingSelfBond { id, span });
        }
        let close_bond = self.pending_bond.take().map(|(s, _)| s);
        let sym = match (open.bond, close_bond) {
            (Some(a), Some(b)) if a != b => {
                // Directional bonds may legitimately differ (/ on one
                // side, \ on the other).
                let dir = |s: BondSym| matches!(s, BondSym::Up | BondSym::Down);
                if dir(a) && dir(b) {
                    Some(a)
                } else {
                    return Err(SmilesError::RingBondMismatch { id, span });
                }
            }
            (Some(a), _) => Some(a),
            (None, b) => b,
        };
        // A chain parent always precedes its atom, so only the later atom
        // of the pair can have a chain bond to the earlier one.
        let pair = (open.atom.min(cur), open.atom.max(cur));
        if self.chain_parent[pair.1 as usize] == pair.0 || self.ring_bonds.contains(&pair) {
            return Err(SmilesError::DuplicateRingBond { id, span });
        }
        self.ring_bonds.push(pair);
        out.add_bond(open.atom, cur, sym, true);
        Ok(())
    }

    /// The end-of-line checks, once every token has been accepted.
    fn finish(&self) -> Result<(), SmilesError> {
        if self.atoms == 0 {
            return Err(SmilesError::EmptyInput);
        }
        if let Some((_, at)) = self.pending_bond {
            return Err(SmilesError::DanglingBond { at });
        }
        if let Some(&(_, at)) = self.branches.first() {
            return Err(SmilesError::UnclosedBranch { at });
        }
        if self.open_rings > 0 {
            let id = self
                .rings
                .iter()
                .position(|s| s.is_some())
                .expect("count says one is open") as u16;
            return Err(SmilesError::UnclosedRing { id });
        }
        // "C." — the dot needed a following atom.
        if let Some(at) = self.trailing_dot {
            return Err(SmilesError::MisplacedDot { at });
        }
        Ok(())
    }
}

/// Parse one SMILES line into a molecule.
pub fn parse(line: &[u8]) -> Result<Molecule, SmilesError> {
    Parser::new().parse(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::BondSym;

    #[test]
    fn linear_chain() {
        let m = parse(b"CCO").unwrap();
        assert_eq!(m.atom_count(), 3);
        assert_eq!(m.bond_count(), 2);
        assert_eq!(m.atoms()[2].element().symbol(), "O");
    }

    #[test]
    fn vanillin_structure() {
        let m = parse(b"COc1cc(C=O)ccc1O").unwrap();
        assert_eq!(m.atom_count(), 11);
        // ring closure adds 1 bond beyond the tree: atoms-1 + 1
        assert_eq!(m.bond_count(), 11);
        assert_eq!(m.ring_count(), 1);
    }

    #[test]
    fn dibenzoylmethane_structure() {
        // The paper's preprocessing example.
        let m = parse(b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2").unwrap();
        assert_eq!(m.ring_count(), 2);
        assert_eq!(m.atom_count(), 17);
        // And the pre-processed form parses to an equivalent graph.
        let p = parse(b"C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0").unwrap();
        assert_eq!(p.ring_count(), 2);
        assert_eq!(m.signature(), p.signature());
    }

    #[test]
    fn branches_attach_correctly() {
        let m = parse(b"CC(C)(C)C").unwrap(); // neopentane
        assert_eq!(m.atom_count(), 5);
        assert_eq!(m.adjacent(1).len(), 4, "quaternary carbon");
    }

    #[test]
    fn ring_bond_symbol_on_open_half() {
        let m = parse(b"C=1CCCCC=1").unwrap();
        let ring_bond = m.bonds().iter().find(|b| b.ring).unwrap();
        assert_eq!(ring_bond.sym, Some(BondSym::Double));
    }

    #[test]
    fn ring_bond_symbol_on_either_half() {
        for s in [&b"C=1CCCCC1"[..], &b"C1CCCCC=1"[..]] {
            let m = parse(s).unwrap();
            let ring_bond = m.bonds().iter().find(|b| b.ring).unwrap();
            assert_eq!(
                ring_bond.sym,
                Some(BondSym::Double),
                "{}",
                String::from_utf8_lossy(s)
            );
        }
    }

    #[test]
    fn ring_bond_symbol_conflict() {
        assert!(matches!(
            parse(b"C=1CCCCC-1"),
            Err(SmilesError::RingBondMismatch { id: 1, .. })
        ));
    }

    #[test]
    fn directional_ring_halves_tolerated() {
        assert!(parse(b"C/1CCCCC\\1").is_ok());
    }

    #[test]
    fn ring_id_reuse_across_line() {
        // Two hexagons reusing digit 1 after it closed.
        let m = parse(b"C1CCCCC1C1CCCCC1").unwrap();
        assert_eq!(m.ring_count(), 2);
        assert_eq!(m.atom_count(), 12);
    }

    #[test]
    fn percent_ring_ids_pair_with_digit_ids() {
        // %01 and 1 are the same ID value.
        let m = parse(b"C%01CCCCC1").unwrap();
        assert_eq!(m.ring_count(), 1);
    }

    #[test]
    fn dot_separates_components() {
        let m = parse(b"[NH4+].[Cl-]").unwrap();
        assert_eq!(m.atom_count(), 2);
        assert_eq!(m.bond_count(), 0);
        assert_eq!(m.components().len(), 2);
    }

    #[test]
    fn ring_closure_across_dot_components_is_legal() {
        // Rare but valid: ring bond 1 spans the dot.
        let m = parse(b"C1.CC1").unwrap();
        assert_eq!(m.components().len(), 1, "the ring bond joins them");
        assert_eq!(m.bond_count(), 2);
    }

    #[test]
    fn error_unclosed_ring() {
        assert!(matches!(
            parse(b"C1CCC"),
            Err(SmilesError::UnclosedRing { id: 1 })
        ));
    }

    #[test]
    fn error_self_ring() {
        assert!(matches!(
            parse(b"C11"),
            Err(SmilesError::RingSelfBond { id: 1, .. })
        ));
    }

    #[test]
    fn error_duplicate_ring_bond() {
        // 1 closes C(0)-C(1); then 2 would bond the same pair again.
        assert!(matches!(
            parse(b"C12C12"),
            Err(SmilesError::DuplicateRingBond { .. })
        ));
    }

    #[test]
    fn error_branch_imbalance() {
        assert!(matches!(
            parse(b"C(C"),
            Err(SmilesError::UnclosedBranch { at: 1 })
        ));
        assert!(matches!(
            parse(b"CC)"),
            Err(SmilesError::UnmatchedBranchClose { at: 2 })
        ));
    }

    #[test]
    fn error_empty_branch() {
        assert!(matches!(
            parse(b"C()C"),
            Err(SmilesError::EmptyBranch { .. })
        ));
    }

    #[test]
    fn error_branch_without_atom() {
        assert!(matches!(
            parse(b"(C)C"),
            Err(SmilesError::BranchWithoutAtom { at: 0 })
        ));
    }

    #[test]
    fn error_dangling_bonds() {
        assert!(matches!(
            parse(b"=CC"),
            Err(SmilesError::DanglingBond { at: 0 })
        ));
        assert!(matches!(
            parse(b"CC="),
            Err(SmilesError::DanglingBond { at: 2 })
        ));
        assert!(matches!(
            parse(b"C==C"),
            Err(SmilesError::DanglingBond { .. })
        ));
        assert!(matches!(
            parse(b"C=(C)"),
            Err(SmilesError::DanglingBond { .. })
        ));
        assert!(matches!(
            parse(b"C(C=)"),
            Err(SmilesError::DanglingBond { .. })
        ));
        assert!(matches!(
            parse(b"C=.C"),
            Err(SmilesError::DanglingBond { .. })
        ));
    }

    #[test]
    fn error_misplaced_dots() {
        assert!(matches!(
            parse(b".CC"),
            Err(SmilesError::MisplacedDot { at: 0 })
        ));
        assert!(matches!(
            parse(b"CC."),
            Err(SmilesError::MisplacedDot { .. })
        ));
        assert!(matches!(
            parse(b"C(.C)C"),
            Err(SmilesError::MisplacedDot { .. })
        ));
        assert!(matches!(
            parse(b"C..C"),
            Err(SmilesError::MisplacedDot { .. })
        ));
    }

    #[test]
    fn error_ring_without_atom() {
        assert!(matches!(
            parse(b"1CC1"),
            Err(SmilesError::RingWithoutAtom { at: 0 })
        ));
        assert!(matches!(
            parse(b"C.1CC1"),
            Err(SmilesError::RingWithoutAtom { .. })
        ));
    }

    #[test]
    fn error_empty() {
        assert!(matches!(parse(b""), Err(SmilesError::EmptyInput)));
    }

    #[test]
    fn bond_after_branch_close() {
        let m = parse(b"CC(C)=O").unwrap(); // acetone written with = after )
        assert_eq!(m.atom_count(), 4);
        let dbl = m
            .bonds()
            .iter()
            .find(|b| b.sym == Some(BondSym::Double))
            .unwrap();
        assert_eq!(m.atoms()[dbl.other(1) as usize].element().symbol(), "O");
    }

    #[test]
    fn nested_branches() {
        let m = parse(b"CC(C(C)(C)C)C").unwrap();
        assert_eq!(m.atom_count(), 7);
        assert_eq!(m.adjacent(2).len(), 4);
    }

    #[test]
    fn aromatic_implicit_bond_is_aromatic() {
        let m = parse(b"c1ccccc1").unwrap();
        for b in m.bonds() {
            assert!(b.is_aromatic(m.atoms()));
        }
    }

    #[test]
    fn explicit_single_between_aromatic_rings() {
        let m = parse(b"c1ccccc1-c1ccccc1").unwrap(); // biphenyl
        let link = m
            .bonds()
            .iter()
            .find(|b| b.sym == Some(BondSym::Single))
            .unwrap();
        assert!(!link.is_aromatic(m.atoms()));
        assert_eq!(m.ring_count(), 2);
    }
}
