//! The counting pass: the grammar of [`crate::parser`] with a builder
//! that keeps only the counts a ligand score reads, never a molecular
//! graph.
//!
//! Each atom adds its element's heteroatom and halogen bits from a table
//! indexed by atomic number. Rings are the circuit rank `bonds +
//! components − atoms`: every dot-separated fragment is a tree of chain
//! bonds, so only ring closures matter, and a closure either closes a
//! ring or joins two fragments' components. A union-find over fragments,
//! touched only by closures between different fragments, tells which.
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
        self.tally.joined.clear();
        self.parser.build(line, &mut self.tally)?;
        Ok(self.tally.counts)
    }
}

/// Bit set in [`ELEMENT_BITS`] for a heteroatom.
const HETERO: u8 = 1;
/// Bit set in [`ELEMENT_BITS`] for a halogen.
const HALOGEN: u8 = 2;

/// Heteroatom and halogen bits by atomic number; index 0 is the
/// wildcard, a heteroatom.
const ELEMENT_BITS: [u8; 256] = {
    let mut table = [HETERO; 256];
    table[1] = 0; // H
    table[6] = 0; // C
    table[9] = HETERO | HALOGEN; // F
    table[17] = HETERO | HALOGEN; // Cl
    table[35] = HETERO | HALOGEN; // Br
    table[53] = HETERO | HALOGEN; // I
    table
};

/// The counting builder. `joined` is a union-find over the line's
/// fragments, grown only as far as a closure between two fragments
/// reaches: a fragment past its end is its own root.
#[derive(Debug, Default)]
struct Tally {
    counts: FeatureCounts,
    joined: Vec<u32>,
}

impl Tally {
    /// Representative of fragment `x`'s component, halving the path on
    /// the way.
    fn find(&mut self, mut x: u32) -> u32 {
        while let Some(&up) = self.joined.get(x as usize) {
            if up == x {
                break;
            }
            let next = self.joined[up as usize];
            self.joined[x as usize] = next;
            x = next;
        }
        x
    }
}

impl Builder for Tally {
    #[inline]
    fn add_atom(&mut self, atom: AtomKind) {
        let z = match atom.element() {
            Element::Z(z) => z,
            Element::Wildcard => 0,
        };
        let bits = ELEMENT_BITS[z as usize];
        let c = &mut self.counts;
        c.atoms += 1;
        c.aromatic += atom.aromatic() as u32;
        c.hetero += ((bits & HETERO) != 0) as u32;
        c.halogen += ((bits & HALOGEN) != 0) as u32;
    }

    #[inline]
    fn chain_bond(&mut self, _a: u32, _b: u32, _sym: Option<BondSym>) {}

    #[inline]
    fn ring_bond(&mut self, _a: u32, _b: u32, _sym: Option<BondSym>, [fa, fb]: [u32; 2]) {
        let (ra, rb) = (self.find(fa), self.find(fb));
        if ra == rb {
            self.counts.rings += 1;
        } else {
            let reach = ra.max(rb) as usize + 1;
            if self.joined.len() < reach {
                let from = self.joined.len() as u32;
                self.joined.extend(from..reach as u32);
            }
            self.joined[rb as usize] = ra;
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
