//! Best-k selection over per-line scores: the one ranking that local
//! screening campaigns and the server's `TOP_HITS` share.
//!
//! The order is total, so a selection never depends on input order:
//! higher scores rank first; NaN ranks below every number, −∞ included;
//! equal scores (−0.0 and +0.0 are equal) and NaNs break toward the
//! smaller line number.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// `Less` when score `a` ranks before score `b`: higher first, NaN last,
/// `Equal` for equal numbers and for two NaNs.
pub fn score_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.partial_cmp(&a).expect("neither is NaN"),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// A scored line; orders as it ranks, best first.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    line: usize,
    score: f64,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        score_order(self.score, other.score).then(self.line.cmp(&other.line))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The `k` best-ranked lines seen so far, in O(k) memory: scores arrive
/// in batches and only the current best `k` are kept.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    /// Max-heap on rank: the worst kept line is on top.
    kept: BinaryHeap<Ranked>,
}

impl TopK {
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            kept: BinaryHeap::new(),
        }
    }

    /// Offer `scores[i]` as the score of line `first_line + i`.
    pub fn extend(&mut self, first_line: usize, scores: &[f64]) {
        for (i, &score) in scores.iter().enumerate() {
            self.push(first_line + i, score);
        }
    }

    /// Offer one scored line.
    fn push(&mut self, line: usize, score: f64) {
        let entry = Ranked { line, score };
        if self.kept.len() < self.k {
            self.kept.push(entry);
        } else if let Some(mut worst) = self.kept.peek_mut() {
            if entry < *worst {
                *worst = entry;
            }
        }
    }

    /// The kept `(line, score)` pairs, best first.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        self.kept
            .into_sorted_vec()
            .into_iter()
            .map(|r| (r.line, r.score))
            .collect()
    }
}

/// The `k` best of `scores` (line `i` scored `scores[i]`), best first.
pub fn top_k(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut best = TopK::new(k);
    best.extend(0, scores);
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stable full sort the selection replaced; a total order only
    /// while no score is NaN.
    fn stable_sort_oracle(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx.into_iter().map(|i| (i, scores[i])).collect()
    }

    /// Scores from a small pool, so duplicates, ±0 and ±∞ are common.
    fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
        const POOL: [f64; 9] = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.25,
            7.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        proptest::collection::vec((0usize..POOL.len() + 3, any::<i16>()), 0..96).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(p, v)| POOL.get(p).copied().unwrap_or(v as f64 / 8.0))
                .collect()
        })
    }

    fn bits(v: &[(usize, f64)]) -> Vec<(usize, u64)> {
        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn matches_the_stable_sort_without_nan(scores in arb_scores(), k in 0usize..120) {
            prop_assert_eq!(bits(&top_k(&scores, k)), bits(&stable_sort_oracle(&scores, k)));
        }

        #[test]
        fn batches_select_what_one_pass_does(
            scores in arb_scores(),
            k in 0usize..40,
            batch in 1usize..17,
        ) {
            let mut best = TopK::new(k);
            for (b, chunk) in scores.chunks(batch).enumerate() {
                best.extend(b * batch, chunk);
            }
            prop_assert_eq!(bits(&best.into_sorted()), bits(&top_k(&scores, k)));
        }
    }

    /// Every 7th score NaN: the full stable sort panics on this vector
    /// ("does not correctly implement a total order"); the selection
    /// ranks the NaNs last, by line.
    #[test]
    fn nan_scores_rank_last_by_line() {
        let scores: Vec<f64> = (0..64usize)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    ((i * 7919) % 1000) as f64
                }
            })
            .collect();
        let top = top_k(&scores, 5);
        let mut numbers: Vec<usize> = (0..64).filter(|i| i % 7 != 0).collect();
        numbers.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        let want: Vec<usize> = numbers[..5].to_vec();
        assert_eq!(top.iter().map(|&(i, _)| i).collect::<Vec<_>>(), want);

        let all = top_k(&scores, 64);
        let tail: Vec<usize> = all[all.len() - 10..].iter().map(|&(i, _)| i).collect();
        assert_eq!(tail, (0..64).step_by(7).collect::<Vec<_>>());
        assert!(all[..54].iter().all(|&(_, s)| !s.is_nan()));
    }

    #[test]
    fn nan_ranks_below_negative_infinity_and_zeros_tie() {
        let scores = [f64::NAN, f64::NEG_INFINITY, 0.0, -0.0, f64::NAN, 0.0];
        let order: Vec<usize> = top_k(&scores, 6).iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![2, 3, 5, 1, 0, 4]);
        assert_eq!(score_order(f64::NAN, f64::NEG_INFINITY), Ordering::Greater);
        assert_eq!(score_order(-0.0, 0.0), Ordering::Equal);
        assert_eq!(score_order(f64::NAN, f64::NAN), Ordering::Equal);
    }

    #[test]
    fn k_zero_and_k_past_the_end() {
        assert!(top_k(&[1.0, 2.0], 0).is_empty());
        assert_eq!(top_k(&[1.0, 2.0], 9), vec![(1, 2.0), (0, 1.0)]);
        assert!(top_k(&[], 3).is_empty());
    }
}
