//! Score tables: the campaign output that "decorates the input with the
//! strength of their interactions" (paper §I).
//!
//! Scores are kept as a side table aligned with the deck's line numbers —
//! the deck itself stays pure SMILES and compresses with the shared
//! dictionary, while the table ships as small readable TSV. This split is
//! what lets the archive keep the paper's readable/random-access
//! properties.

use std::io::{BufRead, BufReader, Read, Write};
use zsmiles_core::score_order;

/// Per-ligand scores, indexed by deck line number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoreTable {
    scores: Vec<f64>,
}

impl ScoreTable {
    pub fn new(scores: Vec<f64>) -> ScoreTable {
        ScoreTable { scores }
    }

    pub fn len(&self) -> usize {
        self.scores.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Score of deck line `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.scores[i]
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.scores
    }

    /// Line numbers of the `k` best-scoring ligands, best first, in one
    /// bounded pass ([`zsmiles_core::topk`]). The order is total: higher
    /// scores first; NaN below every number, −∞ included; equal scores
    /// (±0 included) and NaNs toward the smaller line number.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        zsmiles_core::top_k(&self.scores, k)
    }

    /// The score at the `p`-th percentile (0.0–1.0), by nearest rank,
    /// ranked as [`ScoreTable::top_k`] ranks (NaN lowest). Returns `None`
    /// on an empty table.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.scores.is_empty() {
            return None;
        }
        let mut sorted = self.scores.clone();
        // Worst first: the top-k order, reversed.
        sorted.sort_by(|a, b| score_order(*b, *a));
        let rank = ((p.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Mean score (0.0 on an empty table).
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            0.0
        } else {
            self.scores.iter().sum::<f64>() / self.scores.len() as f64
        }
    }

    /// Write as TSV: `line_index<TAB>score`, one row per ligand. Scores
    /// are printed with enough digits to round-trip `f64` exactly.
    pub fn write_tsv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for (i, s) in self.scores.iter().enumerate() {
            // {:?} on f64 is the shortest representation that re-parses to
            // the same bits.
            writeln!(w, "{i}\t{s:?}")?;
        }
        Ok(())
    }

    /// Parse the TSV format. Rows must be dense and in order (the table is
    /// an array, not a map).
    pub fn read_tsv<R: Read>(r: R) -> Result<ScoreTable, String> {
        let mut scores = Vec::new();
        for (ln, line) in BufReader::new(r).lines().enumerate() {
            let line = line.map_err(|e| e.to_string())?;
            if line.is_empty() {
                continue;
            }
            let (idx, val) = line
                .split_once('\t')
                .ok_or_else(|| format!("row {ln}: missing tab"))?;
            let idx: usize = idx.parse().map_err(|_| format!("row {ln}: bad index"))?;
            if idx != scores.len() {
                return Err(format!(
                    "row {ln}: expected index {}, got {idx}",
                    scores.len()
                ));
            }
            let val: f64 = val.parse().map_err(|_| format!("row {ln}: bad score"))?;
            scores.push(val);
        }
        Ok(ScoreTable { scores })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_best_first_and_breaks_ties_by_index() {
        let t = ScoreTable::new(vec![1.0, 5.0, 5.0, -2.0, 7.0]);
        let top = t.top_k(3);
        assert_eq!(top, vec![(4, 7.0), (1, 5.0), (2, 5.0)]);
        assert_eq!(t.top_k(0), vec![]);
        assert_eq!(t.top_k(99).len(), 5, "k larger than table clamps");
    }

    /// Every 7th score NaN: a sort by `partial_cmp(..).unwrap_or(Equal)`
    /// panicked on this table ("does not correctly implement a total
    /// order").
    #[test]
    fn nan_scores_rank_last_and_do_not_panic() {
        let scores: Vec<f64> = (0..64usize)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    ((i * 7919) % 1000) as f64
                }
            })
            .collect();
        let t = ScoreTable::new(scores);
        let top: Vec<usize> = t.top_k(5).iter().map(|&(i, _)| i).collect();
        // (i * 7919) % 1000 = 978, 975, 950, 947, 922.
        assert_eq!(top, vec![62, 25, 50, 13, 38]);
        assert!(t.percentile(0.0).unwrap().is_nan(), "NaN is the lowest");
        assert_eq!(t.percentile(1.0), Some(978.0));
    }

    #[test]
    fn percentile_and_mean() {
        let t = ScoreTable::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.percentile(0.0), Some(0.0));
        assert_eq!(t.percentile(1.0), Some(4.0));
        assert_eq!(t.percentile(0.5), Some(2.0));
        assert!((t.mean() - 2.0).abs() < 1e-12);
        assert_eq!(ScoreTable::default().percentile(0.5), None);
        assert_eq!(ScoreTable::default().mean(), 0.0);
    }

    #[test]
    fn tsv_round_trips_exactly() {
        let t = ScoreTable::new(vec![1.5, -0.25, 1e-10, 12345.6789, f64::MIN_POSITIVE]);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        let back = ScoreTable::read_tsv(&buf[..]).unwrap();
        assert_eq!(back, t, "f64 bits survive the text format");
    }

    #[test]
    fn tsv_rejects_malformed_rows() {
        assert!(
            ScoreTable::read_tsv("0 1.5\n".as_bytes()).is_err(),
            "no tab"
        );
        assert!(
            ScoreTable::read_tsv("1\t1.5\n".as_bytes()).is_err(),
            "gap in indices"
        );
        assert!(
            ScoreTable::read_tsv("0\tbanana\n".as_bytes()).is_err(),
            "bad float"
        );
        assert!(
            ScoreTable::read_tsv("x\t1.5\n".as_bytes()).is_err(),
            "bad index"
        );
    }

    #[test]
    fn empty_tsv_is_empty_table() {
        let t = ScoreTable::read_tsv("".as_bytes()).unwrap();
        assert!(t.is_empty());
    }
}
