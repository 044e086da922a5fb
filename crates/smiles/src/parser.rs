//! SMILES grammar: one loop over the line's bytes that reports each
//! atom and bond it accepts to a builder.
//!
//! The loop dispatches on the lexer's byte-class table. A byte that is a
//! whole token by itself (a bare organic atom, with the `Cl`/`Br` pair
//! check, a bond symbol, `(`, `)`, `.`, a ring digit) goes straight to
//! the grammar method for its kind; only bracket atoms, `%nn`, the
//! `se`/`as` traps and bad bytes are lexed into a token first, by
//! [`Lexer::next_token`], and reach the same methods through one thin
//! match. The line's scalar state (attachment point, pending bond, atom,
//! fragment and open-ring counts) is a local of that loop; only the
//! branch stack, the open ring bonds and the ring-bond pairs persist in
//! the [`Parser`], so a warmed parser does not allocate.
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
use crate::lexer::{ByteClass, Lexer, Spanned, BROMINE, BYTE_CLASS, CHLORINE};
use crate::token::{BondSym, Token};

/// Receives what the grammar accepts, in line order. Atoms are numbered
/// from 0 in the order they are added; a bond names two added atoms.
pub(crate) trait Builder {
    fn add_atom(&mut self, atom: AtomKind);
    /// The bond from atom `a` to the atom just added, `b`, written by
    /// adjacency; `sym` is `None` when implicit.
    fn chain_bond(&mut self, a: u32, b: u32, sym: Option<BondSym>);
    /// A ring closure from the atom `a` that opened it to `b`.
    /// `fragments` numbers the dot-separated fragments (from 0) that `a`
    /// and `b` lie in: each fragment is connected by its chain bonds, so
    /// only a closure can join two.
    fn ring_bond(&mut self, a: u32, b: u32, sym: Option<BondSym>, fragments: [u32; 2]);
}

impl Builder for Molecule {
    fn add_atom(&mut self, atom: AtomKind) {
        Molecule::add_atom(self, atom);
    }

    fn chain_bond(&mut self, a: u32, b: u32, sym: Option<BondSym>) {
        self.add_bond(a, b, sym, false);
    }

    fn ring_bond(&mut self, a: u32, b: u32, sym: Option<BondSym>, _fragments: [u32; 2]) {
        self.add_bond(a, b, sym, true);
    }
}

/// Chain parent of the first atom of each dot-separated fragment.
const NO_ATOM: u32 = u32::MAX;

/// An atom that bonds can attach to, with what a ring closure onto it
/// must not repeat.
#[derive(Debug, Clone, Copy)]
struct Attach {
    atom: u32,
    /// The atom its chain bond came from, or [`NO_ATOM`].
    parent: u32,
    /// Ring closures made before the atom was added: no earlier one can
    /// have joined it.
    closures_before: u32,
}

/// An open ring-bond half waiting for its partner digit.
#[derive(Debug, Clone, Copy)]
struct OpenRing {
    at: Attach,
    bond: Option<BondSym>,
    fragment: u32,
}

/// The grammar's buffers, kept between lines.
#[derive(Debug)]
pub struct Parser {
    /// Attachment point to restore at each `)`, with its `(` byte position.
    branches: Vec<(Attach, usize)>,
    /// Open ring-bond halves by ID. `%nn` and single digits share the
    /// 100 IDs: the value is what matters, not the spelling. Every slot
    /// is empty between lines.
    rings: [Option<OpenRing>; 100],
    /// Atom pairs joined by ring closures so far, smaller index first.
    ring_bonds: Vec<(u32, u32)>,
}

/// The grammar's state within one line.
#[derive(Debug, Default)]
struct LineState {
    atoms: u32,
    /// The attachment point for the next atom or ring digit.
    prev: Option<Attach>,
    /// A bond symbol waiting for its next atom or ring digit, with its
    /// byte position.
    pending_bond: Option<(BondSym, usize)>,
    /// Set right after `(`, to detect `()`.
    branch_just_opened: bool,
    open_rings: u32,
    /// Dot-separated fragments before the current one.
    fragment: u32,
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
            ring_bonds: Vec::new(),
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
        self.branches.clear();
        self.ring_bonds.clear();
        let mut st = LineState::default();
        let result = self.run(line, &mut st, out);
        if st.open_rings > 0 {
            self.rings = [None; 100];
        }
        result
    }

    #[inline]
    fn run<B: Builder>(
        &mut self,
        line: &[u8],
        st: &mut LineState,
        out: &mut B,
    ) -> Result<(), SmilesError> {
        let mut pos = 0;
        while let Some(&b) = line.get(pos) {
            let at = pos;
            pos += 1;
            let class = BYTE_CLASS[b as usize];
            // The commonest classes, bare atoms and branches, get branches
            // of their own: one jump table over all seven classes made
            // counting about 10% slower on a mixed deck (2-vCPU Xeon).
            let step = if let ByteClass::Atom(atom) = class {
                let atom = match (b, line.get(pos)) {
                    (b'C', Some(b'l')) => {
                        pos += 1;
                        CHLORINE
                    }
                    (b'B', Some(b'r')) => {
                        pos += 1;
                        BROMINE
                    }
                    _ => atom,
                };
                self.atom(st, AtomKind::Bare(atom), out);
                continue;
            } else if class == ByteClass::Open {
                self.open(st, at)
            } else if class == ByteClass::Close {
                self.close(st, at)
            } else {
                match class {
                    ByteClass::Bond(sym) => Self::bond(st, sym, at),
                    ByteClass::Dot => self.dot(st, at),
                    ByteClass::Digit => self.ring(st, (b - b'0') as u16, Span::new(at, pos), out),
                    ByteClass::Lex => {
                        let mut lexer = Lexer::resume(line, at);
                        let token = lexer.next_token()?.expect("a byte is left");
                        pos = lexer.pos();
                        self.accept(st, token, out)
                    }
                    ByteClass::Atom(_) | ByteClass::Open | ByteClass::Close => {
                        unreachable!("taken above")
                    }
                }
            };
            if let Err(grammar) = step {
                // Finish lexing: a lexical error later in the line wins.
                let mut lexer = Lexer::resume(line, pos);
                while lexer.next_ring()?.is_some() {}
                return Err(grammar);
            }
        }
        self.finish(st, line)
    }

    /// A lexed token to the grammar method for its kind.
    fn accept<B: Builder>(
        &mut self,
        st: &mut LineState,
        token: Spanned,
        out: &mut B,
    ) -> Result<(), SmilesError> {
        let at = token.span.start;
        match token.token {
            Token::Atom(a) => {
                self.atom(st, AtomKind::Bare(a), out);
                Ok(())
            }
            Token::Bracket(b) => {
                self.atom(st, AtomKind::Bracket(b), out);
                Ok(())
            }
            Token::Bond(sym) => Self::bond(st, sym, at),
            Token::Ring { id, .. } => self.ring(st, id, token.span, out),
            Token::BranchOpen => self.open(st, at),
            Token::BranchClose => self.close(st, at),
            Token::Dot => self.dot(st, at),
        }
    }

    #[inline]
    fn atom<B: Builder>(&self, st: &mut LineState, kind: AtomKind, out: &mut B) {
        // A bond symbol is only accepted after an atom, and a dot refuses
        // a pending one, so a pending bond always has an atom to follow.
        debug_assert!(st.prev.is_some() || st.pending_bond.is_none());
        let idx = st.atoms;
        st.atoms += 1;
        out.add_atom(kind);
        let parent = match st.prev {
            Some(p) => {
                out.chain_bond(p.atom, idx, st.pending_bond.take().map(|(s, _)| s));
                p.atom
            }
            None => NO_ATOM,
        };
        st.prev = Some(Attach {
            atom: idx,
            parent,
            closures_before: self.ring_bonds.len() as u32,
        });
        st.branch_just_opened = false;
    }

    #[inline]
    fn bond(st: &mut LineState, sym: BondSym, at: usize) -> Result<(), SmilesError> {
        if st.pending_bond.is_some() || st.prev.is_none() {
            return Err(SmilesError::DanglingBond { at });
        }
        st.pending_bond = Some((sym, at));
        st.branch_just_opened = false;
        Ok(())
    }

    #[inline]
    fn open(&mut self, st: &mut LineState, at: usize) -> Result<(), SmilesError> {
        let cur = st.prev.ok_or(SmilesError::BranchWithoutAtom { at })?;
        if st.pending_bond.is_some() {
            // "C=(C)" is not legal: the bond belongs inside.
            return Err(SmilesError::DanglingBond { at });
        }
        self.branches.push((cur, at));
        st.branch_just_opened = true;
        Ok(())
    }

    #[inline]
    fn close(&mut self, st: &mut LineState, at: usize) -> Result<(), SmilesError> {
        let (restore, open_at) = self
            .branches
            .pop()
            .ok_or(SmilesError::UnmatchedBranchClose { at })?;
        if st.branch_just_opened {
            return Err(SmilesError::EmptyBranch {
                span: Span::new(open_at, at + 1),
            });
        }
        if let Some((_, at)) = st.pending_bond.take() {
            return Err(SmilesError::DanglingBond { at });
        }
        st.prev = Some(restore);
        Ok(())
    }

    #[inline]
    fn dot(&mut self, st: &mut LineState, at: usize) -> Result<(), SmilesError> {
        // After `(` the branch stack is not empty, so `branch_just_opened`
        // is already clear when a dot is accepted.
        if !self.branches.is_empty() || st.prev.is_none() {
            return Err(SmilesError::MisplacedDot { at });
        }
        if let Some((_, at)) = st.pending_bond.take() {
            return Err(SmilesError::DanglingBond { at });
        }
        st.prev = None;
        st.fragment += 1;
        Ok(())
    }

    #[inline]
    fn ring<B: Builder>(
        &mut self,
        st: &mut LineState,
        id: u16,
        span: Span,
        out: &mut B,
    ) -> Result<(), SmilesError> {
        let cur = st
            .prev
            .ok_or(SmilesError::RingWithoutAtom { at: span.start })?;
        let bond = st.pending_bond.take().map(|(s, _)| s);
        st.branch_just_opened = false;
        let slot = &mut self.rings[id as usize];
        let Some(open) = slot.take() else {
            // Opening half.
            *slot = Some(OpenRing {
                at: cur,
                bond,
                fragment: st.fragment,
            });
            st.open_rings += 1;
            return Ok(());
        };
        // Closing half.
        st.open_rings -= 1;
        if open.at.atom == cur.atom {
            return Err(SmilesError::RingSelfBond { id, span });
        }
        let sym = match (open.bond, bond) {
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
        // of the pair can have a chain bond to the earlier one, and only
        // the closures made since it was added can have joined the two.
        let (first, last) = if open.at.atom < cur.atom {
            (open.at, cur)
        } else {
            (cur, open.at)
        };
        let pair = (first.atom, last.atom);
        let since = &self.ring_bonds[last.closures_before as usize..];
        if last.parent == first.atom || since.contains(&pair) {
            return Err(SmilesError::DuplicateRingBond { id, span });
        }
        self.ring_bonds.push(pair);
        out.ring_bond(open.at.atom, cur.atom, sym, [open.fragment, st.fragment]);
        Ok(())
    }

    /// The end-of-line checks, once every byte has been accepted.
    #[inline]
    fn finish(&self, st: &LineState, line: &[u8]) -> Result<(), SmilesError> {
        if st.atoms == 0 {
            return Err(SmilesError::EmptyInput);
        }
        if let Some((_, at)) = st.pending_bond {
            return Err(SmilesError::DanglingBond { at });
        }
        if let Some(&(_, at)) = self.branches.first() {
            return Err(SmilesError::UnclosedBranch { at });
        }
        if st.open_rings > 0 {
            let id = self
                .rings
                .iter()
                .position(|s| s.is_some())
                .expect("count says one is open") as u16;
            return Err(SmilesError::UnclosedRing { id });
        }
        // "C." — the dot needed a following atom. Only an atom or a `)`
        // sets the attachment point a dot clears, and after a dot the
        // branch stack is empty, so a line with atoms that ends without
        // one ended in its dot.
        if st.prev.is_none() {
            return Err(SmilesError::MisplacedDot { at: line.len() - 1 });
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
