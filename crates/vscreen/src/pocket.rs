//! Target pocket model for the docking surrogate.
//!
//! A real campaign scores ligands against a protein binding site with a
//! force field; we cannot ship one, and the storage experiments do not need
//! one — they need *some* deterministic ligand → affinity map so that
//! "top-k hits" is meaningful and different targets rank ligands
//! differently. A [`Pocket`] is a small bundle of feature weights derived
//! from a seed: aromatic-ring affinity, heteroatom affinity, an optimal
//! ligand size, and a hydrophobicity preference.

use smiles::FeatureCounts;

/// A seeded screening target: deterministic feature weights standing in for
/// a binding-site model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pocket {
    seed: u64,
    /// Reward per aromatic atom.
    pub w_aromatic: f64,
    /// Reward per heteroatom (non-C).
    pub w_hetero: f64,
    /// Reward per ring closure.
    pub w_ring: f64,
    /// Preferred heavy-atom count; deviation is penalized linearly.
    pub size_opt: f64,
    /// Reward (or penalty) per halogen — models a hydrophobic subpocket.
    pub w_halogen: f64,
}

impl Pocket {
    /// Derive a pocket from a seed. Distinct seeds give visibly different
    /// ranking behaviour; the same seed is bit-reproducible everywhere.
    pub fn from_seed(seed: u64) -> Pocket {
        // splitmix64 steps so nearby seeds decorrelate.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Pocket {
            seed,
            w_aromatic: 0.75 + (next() % 8) as f64 * 0.25,
            w_hetero: 0.40 + (next() % 6) as f64 * 0.30,
            w_ring: 1.50 + (next() % 4) as f64 * 0.50,
            size_opt: 18.0 + (next() % 15) as f64,
            w_halogen: -0.50 + (next() % 5) as f64 * 0.40,
        }
    }

    /// The seed this pocket was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Score one ligand from its feature counts: weighted counts minus a
    /// size penalty. Higher is a better predicted binder.
    pub fn score(&self, c: &FeatureCounts) -> f64 {
        self.w_aromatic * c.aromatic as f64
            + self.w_hetero * c.hetero as f64
            + self.w_ring * c.rings as f64
            + self.w_halogen * c.halogen as f64
            - 0.15 * (c.atoms as f64 - self.size_opt).abs()
    }
}

/// Read a pocket seed the way every command and the wire take one:
/// decimal, or hex after `0x`/`0X`, surrounding whitespace ignored.
pub fn parse_pocket_seed(text: &str) -> Option<u64> {
    let t = text.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => t.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(s: &str) -> FeatureCounts {
        smiles::FeatureCounter::new().count(s.as_bytes()).unwrap()
    }

    #[test]
    fn same_seed_same_pocket() {
        assert_eq!(Pocket::from_seed(42), Pocket::from_seed(42));
        assert_eq!(Pocket::from_seed(42).seed(), 42);
    }

    #[test]
    fn seeds_read_as_decimal_or_hex() {
        assert_eq!(parse_pocket_seed("7"), Some(7));
        assert_eq!(parse_pocket_seed(" 0xD0C5EED "), Some(0xD0C5EED));
        assert_eq!(parse_pocket_seed("0X1f"), Some(31));
        assert_eq!(parse_pocket_seed("not a seed"), None);
        assert_eq!(parse_pocket_seed(""), None);
        assert_eq!(parse_pocket_seed("-1"), None);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Pocket::from_seed(1);
        let b = Pocket::from_seed(2);
        assert_ne!(a, b);
    }

    #[test]
    fn scoring_is_deterministic() {
        let p = Pocket::from_seed(7);
        let m = counts("COc1cc(C=O)ccc1O");
        assert_eq!(p.score(&m), p.score(&m));
    }

    #[test]
    fn aromatic_rich_ligand_beats_plain_chain_on_aromatic_pocket() {
        let p = Pocket::from_seed(7);
        assert!(p.w_aromatic > 0.0);
        let aromatic = counts("c1ccccc1c1ccccc1");
        let chain = counts("CCCCCCCCCCCC");
        assert!(p.score(&aromatic) > p.score(&chain));
    }

    #[test]
    fn size_penalty_applies() {
        let p = Pocket::from_seed(3);
        // A huge featureless chain scores worse than one near size_opt.
        let near = counts(&"C".repeat(p.size_opt as usize));
        let huge = counts(&"C".repeat(90));
        assert!(p.score(&near) > p.score(&huge));
    }

    #[test]
    fn pockets_rank_differently() {
        // Two targets should disagree on *some* pair from a varied panel —
        // the property the example's multi-target flow relies on.
        let panel = [
            "COc1cc(C=O)ccc1O",
            "CCCCCCCCCC",
            "Clc1ccc(Cl)cc1",
            "OCC(O)C(O)C(O)C(O)CO",
            "c1ccc2ccccc2c1",
        ];
        let mols: Vec<_> = panel.iter().map(|s| counts(s)).collect();
        let order = |p: &Pocket| {
            let mut idx: Vec<usize> = (0..mols.len()).collect();
            idx.sort_by(|&a, &b| p.score(&mols[b]).partial_cmp(&p.score(&mols[a])).unwrap());
            idx
        };
        let orders: Vec<Vec<usize>> = (0..20u64).map(|s| order(&Pocket::from_seed(s))).collect();
        assert!(
            orders.iter().any(|o| o != &orders[0]),
            "20 distinct targets should not all agree on the ranking"
        );
    }
}
