//! The counting pass: the streaming grammar with a builder that keeps
//! only the counts a ligand score reads, never a molecular graph.
//!
//! [`FeatureCounter::count`] returns the same `Result` as
//! [`crate::parser::parse`] for every line, and on success the counts
//! equal those read off the parsed [`crate::Molecule`].

use crate::element::Element;
use crate::error::SmilesError;
use crate::graph::AtomKind;
use crate::parser::{Builder, Parser};
use crate::token::BondSym;

/// Per-molecule feature counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureCounts {
    pub atoms: u32,
    /// Atoms written aromatic (lower-case, bare or bracketed).
    pub aromatic: u32,
    /// Atoms other than C and H; the wildcard `*` counts.
    pub hetero: u32,
    /// F, Cl, Br and I atoms.
    pub halogen: u32,
    /// Independent rings, the circuit rank `bonds + components − atoms`.
    pub rings: u32,
}

/// Counts lines through one reused [`Parser`]: once warmed, a counter
/// does not allocate.
#[derive(Debug, Default)]
pub struct FeatureCounter {
    parser: Parser,
    tally: Tally,
}

impl FeatureCounter {
    pub fn new() -> FeatureCounter {
        FeatureCounter::default()
    }

    /// Count the features of one SMILES line.
    pub fn count(&mut self, line: &[u8]) -> Result<FeatureCounts, SmilesError> {
        self.tally.counts = FeatureCounts::default();
        self.tally.root.clear();
        self.parser.build(line, &mut self.tally)?;
        Ok(self.tally.counts)
    }
}

/// The counting builder. `root` is a union-find over the atoms: a bond
/// whose ends already share a root closes a ring, any other bond joins
/// two components, so the rings counted are `bonds + components − atoms`.
#[derive(Debug, Default)]
struct Tally {
    counts: FeatureCounts,
    root: Vec<u32>,
}

impl Tally {
    /// Representative of `x`'s component, halving the path on the way.
    fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let up = self.root[x as usize];
            if up == x {
                return x;
            }
            let next = self.root[up as usize];
            self.root[x as usize] = next;
            x = next;
        }
    }
}

impl Builder for Tally {
    #[inline]
    fn add_atom(&mut self, atom: AtomKind) {
        let c = &mut self.counts;
        self.root.push(c.atoms);
        c.atoms += 1;
        c.aromatic += atom.aromatic() as u32;
        match atom.element() {
            // H, C
            Element::Z(1 | 6) => {}
            // F, Cl, Br, I
            Element::Z(9 | 17 | 35 | 53) => {
                c.halogen += 1;
                c.hetero += 1;
            }
            _ => c.hetero += 1,
        }
    }

    #[inline]
    fn add_bond(&mut self, a: u32, b: u32, _sym: Option<BondSym>, _ring: bool) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            self.counts.rings += 1;
        } else {
            self.root[rb as usize] = ra;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(s: &str) -> FeatureCounts {
        FeatureCounter::new().count(s.as_bytes()).unwrap()
    }

    #[test]
    fn vanillin_counts() {
        let c = counts("COc1cc(C=O)ccc1O");
        assert_eq!(
            c,
            FeatureCounts {
                atoms: 11,
                aromatic: 6,
                hetero: 3,
                halogen: 0,
                rings: 1,
            }
        );
    }

    #[test]
    fn halogens_wildcards_and_hydrogen() {
        let c = counts("FC(Cl)(Br)[I-].[2H]*");
        assert_eq!((c.atoms, c.halogen, c.hetero), (7, 4, 5));
        assert_eq!(c.rings, 0);
    }

    #[test]
    fn a_ring_bond_across_a_dot_joins_components_without_a_ring() {
        assert_eq!(counts("C1.CC1").rings, 0);
        assert_eq!(counts("C1.C2.C12").rings, 0);
        assert_eq!(counts("C1CC.C1C2.C2").rings, 0);
        assert_eq!(counts("C12.C1C2").rings, 1);
    }

    #[test]
    fn errors_match_the_parser() {
        let mut counter = FeatureCounter::new();
        for line in [&b"C12C12"[..], b"C(C1)1", b"C1CC", b"C=", b"", b"C(C)!"] {
            assert_eq!(
                counter.count(line).err(),
                crate::parser::parse(line).err(),
                "{}",
                String::from_utf8_lossy(line)
            );
        }
        // A failed line leaves nothing behind for the next one.
        assert_eq!(counter.count(b"c1ccccc1").unwrap().rings, 1);
    }
}
