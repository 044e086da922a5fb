//! Serving-side screening: the [`zsmiles_core::serve::Screener`]
//! implementation that puts `top_hits` on the wire.
//!
//! The serving core deliberately knows nothing about scoring (the crate
//! dependency points the other way), so `zsmiles-serve` executes
//! `top_hits` requests through a pluggable hook. [`PocketScreener`] is
//! the production hook: the request's pattern string names a pocket seed
//! (the same `u64` `screen --pocket-seed` takes), and every line is
//! scored by the exact [`crate::campaign::Scorer`] kernel the local
//! campaign uses — which is what makes wire results byte-identical to
//! [`crate::top_hits_cold`] over the same deck.

use crate::campaign::with_scorer;
use crate::pocket::{parse_pocket_seed, Pocket};
use zsmiles_core::serve::Screener;
use zsmiles_core::ZsmilesError;

/// Scores wire `top_hits` batches against [`Pocket::from_seed`] pockets;
/// the request pattern is the seed, read by [`parse_pocket_seed`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PocketScreener;

impl Screener for PocketScreener {
    fn score_batch(
        &self,
        pattern: &str,
        lines: &[Vec<u8>],
        out: &mut Vec<f64>,
    ) -> Result<(), ZsmilesError> {
        let seed = parse_pocket_seed(pattern).ok_or_else(|| ZsmilesError::Protocol {
            reason: format!("top_hits pattern '{pattern}' is not a pocket seed (u64)"),
        })?;
        let pocket = Pocket::from_seed(seed);
        with_scorer(|s| out.extend(lines.iter().map(|l| s.score(l, &pocket))));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::score_line;

    #[test]
    fn a_pattern_that_is_not_a_seed_is_a_protocol_error() {
        let err = PocketScreener
            .score_batch("not a seed", &[b"C".to_vec()], &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, ZsmilesError::Protocol { .. }));
        assert!(err.to_string().contains("pocket seed"), "{err}");
    }

    #[test]
    fn screener_scores_match_the_local_kernel() {
        let deck: Vec<Vec<u8>> = [
            b"COc1cc(C=O)ccc1O".to_vec(),
            b"definitely not smiles".to_vec(),
            b"CCO".to_vec(),
        ]
        .to_vec();
        let mut wire = Vec::new();
        PocketScreener.score_batch("5", &deck, &mut wire).unwrap();
        let pocket = Pocket::from_seed(5);
        let local: Vec<f64> = deck.iter().map(|l| score_line(l, &pocket)).collect();
        assert_eq!(
            wire.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            local.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(wire[1], f64::NEG_INFINITY);
    }
}
