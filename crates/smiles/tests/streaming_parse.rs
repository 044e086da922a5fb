//! Differential tests for the streaming grammar and the counting pass.
//!
//! `parse` pulls tokens lazily and reports to a builder; the oracle below
//! is the token-slice parser it replaced: tokenize the whole line first,
//! then walk the slice and build the graph. Both must return the same
//! `Result` for every line — the same atoms and bonds, or the same
//! error. The counting pass must return that `Result` too, with counts
//! equal to those read off the oracle's molecule.

use proptest::prelude::*;
use smiles::error::Span;
use smiles::lexer::{tokenize, Spanned};
use smiles::parser::{parse, Parser};
use smiles::token::{BondSym, Token};
use smiles::{AtomKind, FeatureCounter, FeatureCounts, Molecule, SmilesError};
use std::cell::RefCell;

/// Tokenize first, then parse the token slice.
fn oracle_parse(line: &[u8]) -> Result<Molecule, SmilesError> {
    let tokens = tokenize(line)?;
    parse_tokens(&tokens)
}

/// The token-slice parser, as it stood before the grammar went
/// streaming.
fn parse_tokens(tokens: &[Spanned]) -> Result<Molecule, SmilesError> {
    #[derive(Clone, Copy)]
    struct OpenRing {
        atom: u32,
        bond: Option<BondSym>,
    }
    let mut mol = Molecule::new();
    let mut prev: Option<u32> = None;
    let mut stack: Vec<(u32, usize)> = Vec::new();
    let mut pending_bond: Option<(BondSym, usize)> = None;
    let mut open_rings: Vec<Option<OpenRing>> = vec![None; 100];
    let mut open_ring_count: usize = 0;
    let mut branch_just_opened = false;

    for st in tokens {
        let tok = &st.token;
        match tok {
            Token::Atom(_) | Token::Bracket(_) => {
                let kind = match tok {
                    Token::Atom(a) => AtomKind::Bare(*a),
                    Token::Bracket(b) => AtomKind::Bracket(*b),
                    _ => unreachable!(),
                };
                let idx = mol.add_atom(kind);
                if let Some(p) = prev {
                    let sym = pending_bond.take().map(|(s, _)| s);
                    mol.add_bond(p, idx, sym, false);
                } else if let Some((_, at)) = pending_bond.take() {
                    return Err(SmilesError::DanglingBond { at });
                }
                prev = Some(idx);
                branch_just_opened = false;
            }
            Token::Bond(sym) => {
                if pending_bond.is_some() || prev.is_none() {
                    return Err(SmilesError::DanglingBond { at: st.span.start });
                }
                pending_bond = Some((*sym, st.span.start));
                branch_just_opened = false;
            }
            Token::Ring { id, .. } => {
                let cur = match prev {
                    Some(p) => p,
                    None => return Err(SmilesError::RingWithoutAtom { at: st.span.start }),
                };
                let slot = &mut open_rings[*id as usize];
                match slot.take() {
                    None => {
                        *slot = Some(OpenRing {
                            atom: cur,
                            bond: pending_bond.take().map(|(s, _)| s),
                        });
                        open_ring_count += 1;
                    }
                    Some(open) => {
                        open_ring_count -= 1;
                        if open.atom == cur {
                            return Err(SmilesError::RingSelfBond {
                                id: *id,
                                span: st.span,
                            });
                        }
                        let close_bond = pending_bond.take().map(|(s, _)| s);
                        let sym = match (open.bond, close_bond) {
                            (Some(a), Some(b)) if a != b => {
                                let dir = |s: BondSym| matches!(s, BondSym::Up | BondSym::Down);
                                if dir(a) && dir(b) {
                                    Some(a)
                                } else {
                                    return Err(SmilesError::RingBondMismatch {
                                        id: *id,
                                        span: st.span,
                                    });
                                }
                            }
                            (Some(a), _) => Some(a),
                            (None, b) => b,
                        };
                        if mol.has_bond_between(open.atom, cur) {
                            return Err(SmilesError::DuplicateRingBond {
                                id: *id,
                                span: st.span,
                            });
                        }
                        mol.add_bond(open.atom, cur, sym, true);
                    }
                }
                branch_just_opened = false;
            }
            Token::BranchOpen => {
                let cur = match prev {
                    Some(p) => p,
                    None => return Err(SmilesError::BranchWithoutAtom { at: st.span.start }),
                };
                if pending_bond.is_some() {
                    return Err(SmilesError::DanglingBond { at: st.span.start });
                }
                stack.push((cur, st.span.start));
                branch_just_opened = true;
            }
            Token::BranchClose => {
                let (restore, open_at) = match stack.pop() {
                    Some(v) => v,
                    None => return Err(SmilesError::UnmatchedBranchClose { at: st.span.start }),
                };
                if branch_just_opened {
                    return Err(SmilesError::EmptyBranch {
                        span: Span::new(open_at, st.span.end),
                    });
                }
                if let Some((_, at)) = pending_bond.take() {
                    return Err(SmilesError::DanglingBond { at });
                }
                prev = Some(restore);
                branch_just_opened = false;
            }
            Token::Dot => {
                if !stack.is_empty() || prev.is_none() {
                    return Err(SmilesError::MisplacedDot { at: st.span.start });
                }
                if let Some((_, at)) = pending_bond.take() {
                    return Err(SmilesError::DanglingBond { at });
                }
                prev = None;
                branch_just_opened = false;
            }
        }
    }

    if mol.atom_count() == 0 {
        return Err(SmilesError::EmptyInput);
    }
    if let Some((_, at)) = pending_bond {
        return Err(SmilesError::DanglingBond { at });
    }
    if let Some((_, at)) = stack.first() {
        return Err(SmilesError::UnclosedBranch { at: *at });
    }
    if open_ring_count > 0 {
        let id = open_rings.iter().position(|s| s.is_some()).unwrap() as u16;
        return Err(SmilesError::UnclosedRing { id });
    }
    if let Some(last) = tokens.last() {
        if matches!(last.token, Token::Dot) {
            return Err(SmilesError::MisplacedDot {
                at: last.span.start,
            });
        }
    }
    Ok(mol)
}

/// The counts read off a parsed graph, by element symbol.
fn oracle_counts(mol: &Molecule) -> FeatureCounts {
    let mut c = FeatureCounts {
        atoms: mol.atom_count() as u32,
        rings: mol.ring_count() as u32,
        ..Default::default()
    };
    for a in mol.atoms() {
        c.aromatic += a.aromatic() as u32;
        match a.element().symbol() {
            "C" | "H" => {}
            "F" | "Cl" | "Br" | "I" => {
                c.halogen += 1;
                c.hetero += 1;
            }
            _ => c.hetero += 1,
        }
    }
    c
}

thread_local! {
    /// One parser and one counter for every case on a thread, as a
    /// screening worker keeps them: scratch left by a failed line must
    /// not leak into the next.
    static SHARED: RefCell<(Parser, FeatureCounter)> =
        RefCell::new((Parser::new(), FeatureCounter::new()));
}

/// Graph view that can be compared: atoms and bonds in order.
type Graph = (Vec<AtomKind>, Vec<smiles::Bond>);

fn graph(mol: &Molecule) -> Graph {
    (mol.atoms().to_vec(), mol.bonds().to_vec())
}

/// Check one line: streaming parse and counting pass against the oracle.
fn check(line: &[u8]) {
    let want = oracle_parse(line);
    let (fresh, shared, counted) = SHARED.with(|s| {
        let (parser, counter) = &mut *s.borrow_mut();
        (parse(line), parser.parse(line), counter.count(line))
    });
    let text = String::from_utf8_lossy(line);
    let want_graph = want.as_ref().map(graph).map_err(Clone::clone);
    prop_assert_eq!(
        fresh.as_ref().map(graph).map_err(Clone::clone),
        want_graph.clone(),
        "{}",
        text
    );
    prop_assert_eq!(
        shared.as_ref().map(graph).map_err(Clone::clone),
        want_graph,
        "{}",
        text
    );
    prop_assert_eq!(
        counted,
        want.as_ref().map(oracle_counts).map_err(Clone::clone),
        "{}",
        text
    );
}

/// Pieces of SMILES-alphabet lines: atoms (bare, two-letter, bracket,
/// good and bad), every bond symbol, branches, dots and lexical traps.
const PIECES: &[&str] = &[
    "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "B", "F", "I", "Cl", "Br", "*", "[nH]",
    "[NH4+]", "[13C@@H]", "[se]", "[O-]", "[Fe+2]", "[2H]", "[C", "[]", "[Xx]", "(", ")", "(", ")",
    ".", "=", "#", "-", "$", ":", "/", "\\", "%", "%1", "l", "e", "!",
];

/// Pieces interleaved with ring digits and `%nn` closures from a small
/// ID pool, so rings nest, reuse IDs, cross dots and repeat bonds.
fn arb_alphabet_line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0usize..PIECES.len() + 14, 0u16..100), 0..40).prop_map(|items| {
        let mut line = Vec::new();
        for (pick, n) in items {
            match pick.checked_sub(PIECES.len()) {
                None => line.extend_from_slice(PIECES[pick].as_bytes()),
                Some(k) if k < 10 => line.push(b'0' + (n % 4) as u8),
                Some(_) => line.extend_from_slice(format!("%{:02}", n % 4).as_bytes()),
            }
        }
        line
    })
}

/// Mostly well-formed lines: atoms with optional bond symbols, nested
/// branches, dots at depth 0, and ring IDs from a pool of three toggled
/// open and shut, everything still open closed at the end. Repeated
/// toggles at one atom give self-bonds and duplicate ring bonds.
fn arb_structured_line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..10, 0u16..100), 1..48).prop_map(|items| {
        let atoms = [
            "C", "c", "N", "n", "O", "Cl", "Br", "F", "[nH]", "[C@H]", "*", "S",
        ];
        let bonds = ["", "", "", "=", "#", "-", "/", "\\", ":"];
        let mut line = b"C".to_vec();
        let mut depth = 0;
        let mut after_atom = true;
        let mut open = [false; 3];
        for (op, n) in items {
            let n = n as usize;
            match op {
                0..=3 => {
                    line.extend_from_slice(bonds[n % bonds.len()].as_bytes());
                    line.extend_from_slice(atoms[n % atoms.len()].as_bytes());
                    after_atom = true;
                }
                4 if after_atom && depth < 3 => {
                    line.push(b'(');
                    line.extend_from_slice(atoms[n % atoms.len()].as_bytes());
                    depth += 1;
                }
                5 if after_atom && depth > 0 => {
                    line.push(b')');
                    depth -= 1;
                }
                6 if after_atom && depth == 0 => {
                    line.push(b'.');
                    line.extend_from_slice(atoms[n % atoms.len()].as_bytes());
                }
                7..=9 => {
                    let id = n % 3;
                    if n.is_multiple_of(5) {
                        line.push(b'=');
                    }
                    line.push(b'1' + id as u8);
                    open[id] = !open[id];
                }
                _ => {}
            }
        }
        line.extend(std::iter::repeat_n(b')', depth));
        for (id, &is_open) in open.iter().enumerate() {
            if is_open {
                line.push(b'C');
                line.push(b'1' + id as u8);
            }
        }
        line
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn streaming_parse_matches_token_slice_oracle_on_bytes(
        line in proptest::collection::vec(any::<u8>(), 0..48)
    ) {
        check(&line);
    }

    #[test]
    fn streaming_parse_matches_token_slice_oracle_on_alphabet_lines(line in arb_alphabet_line()) {
        check(&line);
    }

    #[test]
    fn streaming_parse_matches_token_slice_oracle_on_structured_lines(
        line in arb_structured_line()
    ) {
        check(&line);
    }
}

/// Rings across dots, duplicate ring bonds and late lexical errors.
#[test]
fn named_cases_match_the_oracle() {
    for line in [
        "C1.CC1",
        "C1.C2.C12",
        "C12.C1C2",
        "C12C12",
        "C(C1)1",
        "C1CC1C1",
        "C11",
        "C=1CCC-1",
        "C/1CC\\1",
        "C()C!",
        "C(C=)[Xx]",
        "CC.",
        "C..C",
        "c1ccccc1-c1ccccc1",
        "[NH4+].[Cl-]",
        "%01",
        "",
    ] {
        check(line.as_bytes());
    }
}

/// The structured lines parse often, and both generators reach the
/// duplicate-ring-bond and ring-across-a-dot cases.
#[test]
fn generators_reach_success_and_the_ring_edge_cases() {
    let mut rng = proptest::test_runner::TestRng::from_seed(13);
    let (mut ok, mut duplicate, mut dot_ring) = (0, 0, 0);
    for i in 0..4096 {
        let line = if i % 2 == 0 {
            arb_structured_line().sample(&mut rng)
        } else {
            arb_alphabet_line().sample(&mut rng)
        };
        match oracle_parse(&line) {
            Ok(mol) => {
                ok += 1;
                let fragments = line.iter().filter(|&&b| b == b'.').count() + 1;
                dot_ring += (mol.components().len() < fragments) as usize;
            }
            Err(SmilesError::DuplicateRingBond { .. }) => duplicate += 1,
            Err(_) => {}
        }
    }
    assert!(
        ok >= 500 && duplicate >= 20 && dot_ring >= 20,
        "ok {ok}, duplicate ring bonds {duplicate}, rings across a dot {dot_ring}"
    );
}
