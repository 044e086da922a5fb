//! Dictionary generation — the paper's Algorithm 1.
//!
//! Two phases:
//!
//! 1. **Counting** (Alg. 1 lines 3–7): occurrences of every substring with
//!    length in `[Lmin, Lmax]`. Done level-wise with Apriori-style prefix
//!    pruning — a substring can only reach `min_count` if its
//!    `(len-1)`-prefix did — which bounds memory to the frequent set instead
//!    of every distinct substring of the corpus. The result is exact.
//!
//! 2. **Selection** (lines 8–15): greedily pick the `T` highest-ranked
//!    patterns, re-ranking after each pick with the paper's Eq. (1):
//!    `rank(p, t) = occ(p) × (len(p) − overlap(p, t))`.
//!
//! The paper leaves `overlap(p, t)` loosely specified ("the overlap with
//! patterns selected in the previous iteration"). We interpret it as the
//! largest redundancy between `p` and any already-selected pattern `q`:
//! `len(p)` if one contains the other, otherwise the longest suffix↔prefix
//! overlap in either orientation. This zeroes the rank of fully-contained
//! candidates (pure duplicates) and dampens near-duplicates, which is the
//! effect the formula exists to produce. [`RankStrategy`] exposes the naive
//! `occ × len` rank and a coverage-recount variant so the interpretation is
//! benchmarkable (see the `ablation_rank` harness).

use super::{Dictionary, MAX_PATTERN_LEN};
use crate::codec::Prepopulation;
use crate::error::ZsmilesError;
use smiles::preprocess::Preprocessor;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How candidate patterns are ranked during greedy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankStrategy {
    /// Paper Eq. (1): `occ × (len − overlap)` with incremental overlap
    /// updates against the selected set.
    #[default]
    PaperOverlap,
    /// Static `occ × len`; no updates. Fast, over-selects near-duplicates.
    FreqTimesLen,
    /// Re-count occurrences on a residual sample after each pick
    /// (occurrences covered by already-selected patterns stop counting).
    /// Closest to true coverage maximization; slowest.
    CoverageRecount,
}

impl RankStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            RankStrategy::PaperOverlap => "paper-overlap",
            RankStrategy::FreqTimesLen => "freq-times-len",
            RankStrategy::CoverageRecount => "coverage-recount",
        }
    }
}

/// Dictionary training configuration. The defaults mirror the paper where
/// it pins a value — `Lmin = 2`, SMILES-alphabet pre-population,
/// pre-processing on, dictionary size = whatever the code space allows —
/// and use `Lmax = 12` where it does not: the paper only sweeps `Lmax` for
/// *runtime* (Fig. 5, values 5/8/15), and 12 is where the ratio curve
/// flattens on our decks (see the `ablation_sweep` harness).
#[derive(Debug, Clone)]
pub struct DictBuilder {
    pub lmin: usize,
    pub lmax: usize,
    pub prepopulation: Prepopulation,
    pub rank: RankStrategy,
    /// Apply ring-ID renumbering to training lines before counting.
    pub preprocess: bool,
    /// Number of multi-byte patterns to select; `None` = fill the free code
    /// space (222 − identity entries).
    pub dict_size: Option<usize>,
    /// Candidates kept for the selection phase (by static rank).
    pub max_candidates: usize,
    /// Minimum occurrences for a substring to be considered at all.
    pub min_count: u32,
    /// Line budget for the residual sample in [`RankStrategy::CoverageRecount`].
    pub recount_sample_lines: usize,
}

impl Default for DictBuilder {
    fn default() -> Self {
        DictBuilder {
            lmin: 2,
            lmax: 12,
            prepopulation: Prepopulation::SmilesAlphabet,
            rank: RankStrategy::PaperOverlap,
            preprocess: true,
            dict_size: None,
            max_candidates: 30_000,
            min_count: 4,
            recount_sample_lines: 2_000,
        }
    }
}

impl DictBuilder {
    /// Train on an iterator of SMILES lines (no newlines).
    pub fn train<'a, I>(&self, lines: I) -> Result<Dictionary, ZsmilesError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let selected = self.train_patterns(lines)?;
        Dictionary::from_patterns(
            self.prepopulation,
            selected,
            self.lmin,
            self.lmax,
            self.preprocess,
        )
    }

    /// Train on an iterator of SMILES lines but return the ranked pattern
    /// list instead of installing it into a [`Dictionary`]. Callers with a
    /// different code space — the wide-code extension installs far more
    /// patterns than the 222 one-byte codes hold — set `dict_size` to the
    /// number of patterns they want and do their own installation.
    pub fn train_patterns<'a, I>(&self, lines: I) -> Result<Vec<Vec<u8>>, ZsmilesError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        if self.lmin < 1 || self.lmax < self.lmin || self.lmax > MAX_PATTERN_LEN {
            return Err(ZsmilesError::BadLengthBounds {
                lmin: self.lmin,
                lmax: self.lmax,
            });
        }

        // Materialize (and optionally pre-process) the training lines once;
        // level-wise counting needs multiple passes.
        let (corpus, n_lines) = materialize_corpus(lines, self.preprocess);
        if n_lines == 0 {
            return Err(ZsmilesError::EmptyTrainingSet);
        }

        let mut candidates =
            count_frequent_substrings(&corpus, self.lmin, self.lmax, self.min_count);
        if candidates.is_empty() {
            return Err(ZsmilesError::EmptyTrainingSet);
        }

        // Keep only the strongest candidates for the O(T·K) selection loop.
        candidates.sort_unstable_by(|a, b| {
            let ra = a.occ as u64 * a.pat.len() as u64;
            let rb = b.occ as u64 * b.pat.len() as u64;
            rb.cmp(&ra).then_with(|| a.pat.cmp(&b.pat))
        });
        candidates.truncate(self.max_candidates);

        let t = self
            .dict_size
            .unwrap_or_else(|| self.prepopulation.free_code_count());
        Ok(match self.rank {
            RankStrategy::PaperOverlap => select_paper_overlap(candidates, t),
            RankStrategy::FreqTimesLen => select_static(candidates, t),
            RankStrategy::CoverageRecount => {
                select_coverage_recount(candidates, t, &corpus, self.recount_sample_lines)
            }
        })
    }
}

/// Concatenate (and optionally ring-ID pre-process) training lines into
/// one newline-separated buffer, the canonical counting input. Shared by
/// the paper's Algorithm 1 here and the cost-guided [`crate::train`]
/// subsystem. Returns `(buffer, line count)`.
pub(crate) fn materialize_corpus<'a, I>(lines: I, preprocess: bool) -> (Vec<u8>, usize)
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut corpus: Vec<u8> = Vec::new();
    let mut pp = Preprocessor::new();
    let mut n_lines = 0usize;
    for line in lines {
        if preprocess {
            let before = corpus.len();
            if pp.preprocess_into(line, &mut corpus).is_err() {
                // Invalid SMILES still deserve compression; train on the
                // raw bytes.
                corpus.truncate(before);
                corpus.extend_from_slice(line);
            }
        } else {
            corpus.extend_from_slice(line);
        }
        corpus.push(b'\n');
        n_lines += 1;
    }
    (corpus, n_lines)
}

/// Exact frequent-substring harvesting for the [`crate::train`]
/// subsystem: `(pattern, occurrences)` pairs over a newline-separated
/// corpus, Apriori-pruned like Algorithm 1's counting phase.
pub(crate) fn harvest_candidates(
    corpus: &[u8],
    lmin: usize,
    lmax: usize,
    min_count: u32,
) -> Vec<(Vec<u8>, u32)> {
    count_frequent_substrings(corpus, lmin, lmax, min_count)
        .into_iter()
        .map(|c| (c.pat, c.occ))
        .collect()
}

/// A substring candidate during selection.
#[derive(Debug, Clone)]
struct Candidate {
    pat: Vec<u8>,
    occ: u32,
    /// Longest redundancy with the selected set so far (Eq. 1's overlap).
    overlap: u32,
}

impl Candidate {
    #[inline]
    fn rank(&self) -> u64 {
        let effective = (self.pat.len() as u32).saturating_sub(self.overlap);
        self.occ as u64 * effective as u64
    }
}

// ---------------------------------------------------------------------------
// Counting
// ---------------------------------------------------------------------------

/// Pack a substring (≤16 bytes) into a u128 key.
#[inline]
fn pack(s: &[u8]) -> u128 {
    debug_assert!(s.len() <= 16);
    let mut buf = [0u8; 16];
    buf[..s.len()].copy_from_slice(s);
    u128::from_le_bytes(buf)
}

/// Multiply-xor hasher for the packed keys; SipHash is the bottleneck
/// otherwise.
#[derive(Default)]
struct PackHasher(u64);

impl Hasher for PackHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only reached through derived Hash on (u128, u8) tuples.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u128(&mut self, v: u128) {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut h = lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hi.rotate_left(29);
        h ^= h >> 32;
        self.0 ^= h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    }
    fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x100_0000_01b3);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u128(v as u128);
    }
}

type PackMap = HashMap<u128, u32, BuildHasherDefault<PackHasher>>;

/// Exact level-wise frequent-substring counting with prefix pruning.
///
/// `corpus` is newline-separated; substrings never cross newlines because
/// `\n` cannot appear in a pattern (and never survives `min_count` anyway —
/// we simply skip windows containing it).
fn count_frequent_substrings(
    corpus: &[u8],
    lmin: usize,
    lmax: usize,
    min_count: u32,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    // Frequent set of the previous level, as packed keys.
    let mut prev_frequent: Option<PackMap> = None;

    for len in 1..=lmax {
        let mut counts: PackMap = PackMap::default();
        if corpus.len() >= len {
            'window: for i in 0..=corpus.len() - len {
                let w = &corpus[i..i + len];
                // Reject windows with newline (line boundary).
                if w.contains(&b'\n') {
                    continue 'window;
                }
                // Apriori: the (len-1)-prefix must have been frequent.
                if let Some(prev) = &prev_frequent {
                    if len > 1 && !prev.contains_key(&pack(&w[..len - 1])) {
                        continue 'window;
                    }
                }
                *counts.entry(pack(w)).or_insert(0) += 1;
            }
        }
        counts.retain(|_, c| *c >= min_count);
        if len >= lmin {
            for (&key, &occ) in &counts {
                let bytes = key.to_le_bytes();
                out.push(Candidate {
                    pat: bytes[..len].to_vec(),
                    occ,
                    overlap: 0,
                });
            }
        }
        if counts.is_empty() {
            break; // no longer substring can be frequent either
        }
        prev_frequent = Some(counts);
    }
    out
}

// ---------------------------------------------------------------------------
// Selection strategies
// ---------------------------------------------------------------------------

/// Largest redundancy between two patterns: containment, else best
/// suffix↔prefix overlap in either orientation.
fn overlap_len(p: &[u8], q: &[u8]) -> usize {
    if contains(q, p) {
        return p.len();
    }
    if contains(p, q) {
        return q.len();
    }
    let lim = p.len().min(q.len());
    let mut best = 0;
    for k in (1..lim).rev() {
        if k <= best {
            break;
        }
        // suffix of p == prefix of q
        if p[p.len() - k..] == q[..k] || q[q.len() - k..] == p[..k] {
            best = k;
        }
    }
    best
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Greedy selection with the paper's rank, updated incrementally: when `q`
/// is selected, each remaining candidate's overlap becomes
/// `max(old, overlap_len(p, q))`.
fn select_paper_overlap(mut cands: Vec<Candidate>, t: usize) -> Vec<Vec<u8>> {
    let mut selected = Vec::with_capacity(t.min(cands.len()));
    for _ in 0..t {
        // argmax by rank; deterministic tie-break: longer pattern, then
        // lexicographic order.
        let Some((best_idx, _)) = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.rank() > 0)
            .max_by(|(_, a), (_, b)| {
                a.rank()
                    .cmp(&b.rank())
                    .then(a.pat.len().cmp(&b.pat.len()))
                    .then_with(|| b.pat.cmp(&a.pat))
            })
        else {
            break;
        };
        let chosen = cands.swap_remove(best_idx);
        for c in &mut cands {
            let ov = overlap_len(&c.pat, &chosen.pat) as u32;
            if ov > c.overlap {
                c.overlap = ov;
            }
        }
        selected.push(chosen.pat);
    }
    selected
}

/// Static `occ × len` selection: take the top `t` as-is.
fn select_static(mut cands: Vec<Candidate>, t: usize) -> Vec<Vec<u8>> {
    cands.sort_unstable_by(|a, b| {
        b.rank()
            .cmp(&a.rank())
            .then(b.pat.len().cmp(&a.pat.len()))
            .then_with(|| a.pat.cmp(&b.pat))
    });
    cands.truncate(t);
    cands.into_iter().map(|c| c.pat).collect()
}

/// Coverage-recount: after each pick, blank the chosen pattern's
/// occurrences out of a sample and re-count every candidate on the residual
/// text. Quadratic-ish; for ablation studies only.
fn select_coverage_recount(
    cands: Vec<Candidate>,
    t: usize,
    corpus: &[u8],
    sample_lines: usize,
) -> Vec<Vec<u8>> {
    // Take the first `sample_lines` lines as the residual text.
    let mut sample: Vec<u8> = Vec::new();
    for (i, line) in corpus.split(|&b| b == b'\n').enumerate() {
        if i >= sample_lines {
            break;
        }
        sample.extend_from_slice(line);
        sample.push(b'\n');
    }

    let lmax = cands.iter().map(|c| c.pat.len()).max().unwrap_or(0);
    let mut patterns: Vec<Vec<u8>> = cands.into_iter().map(|c| c.pat).collect();
    let mut selected = Vec::new();
    for _ in 0..t {
        // One window-hash pass over the residual sample counts *all*
        // candidates at once; NUL blanks and newlines break windows.
        let mut counts: PackMap = PackMap::default();
        for len in 1..=lmax.min(sample.len()) {
            for win in sample.windows(len) {
                if win.contains(&0) || win.contains(&b'\n') {
                    continue;
                }
                *counts.entry(pack(win)).or_insert(0) += 1;
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for (i, p) in patterns.iter().enumerate() {
            let occ = counts.get(&pack(p)).copied().unwrap_or(0) as u64;
            let rank = occ * p.len() as u64;
            if rank == 0 {
                continue;
            }
            // Ties: longer pattern, then lexicographically smaller.
            let better = match best {
                None => true,
                Some((br, bi)) => {
                    rank > br
                        || (rank == br
                            && (p.len() > patterns[bi].len()
                                || (p.len() == patterns[bi].len() && *p < patterns[bi])))
                }
            };
            if better {
                best = Some((rank, i));
            }
        }
        let Some((_, idx)) = best else { break };
        let chosen = patterns.swap_remove(idx);
        blank_occurrences(&mut sample, &chosen);
        selected.push(chosen);
    }
    selected
}

#[cfg(test)]
fn count_occurrences(text: &[u8], pat: &[u8]) -> usize {
    if pat.is_empty() || text.len() < pat.len() {
        return 0;
    }
    text.windows(pat.len()).filter(|w| *w == pat).count()
}

/// Replace non-overlapping left-to-right occurrences of `pat` with NUL
/// bytes (which never match any pattern).
fn blank_occurrences(text: &mut [u8], pat: &[u8]) {
    let mut i = 0;
    while i + pat.len() <= text.len() {
        if &text[i..i + pat.len()] == pat {
            text[i..i + pat.len()].fill(0);
            i += pat.len();
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<Vec<u8>> {
        v.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn train(builder: &DictBuilder, v: &[&str]) -> Dictionary {
        let ls = lines(v);
        builder.train(ls.iter().map(|l| l.as_slice())).unwrap()
    }

    #[test]
    fn counting_finds_repeated_substrings() {
        let cands = count_frequent_substrings(b"CCOCCOCCO\n", 2, 4, 3);
        let pats: Vec<&[u8]> = cands.iter().map(|c| c.pat.as_slice()).collect();
        assert!(pats.contains(&b"CC".as_slice()));
        assert!(pats.contains(&b"CCO".as_slice()));
        let cco = cands.iter().find(|c| c.pat == b"CCO").unwrap();
        assert_eq!(cco.occ, 3);
        let cc = cands.iter().find(|c| c.pat == b"CC").unwrap();
        assert_eq!(cc.occ, 3, "overlapping occurrences all count");
    }

    #[test]
    fn counting_respects_line_boundaries() {
        // "AB" appears twice inside lines; the cross-boundary "B\nA" never
        // counts and neither do windows spanning it.
        let cands = count_frequent_substrings(b"AB\nAB\nAB\nAB\n", 2, 3, 4);
        let pats: Vec<&[u8]> = cands.iter().map(|c| c.pat.as_slice()).collect();
        assert_eq!(pats, vec![b"AB".as_slice()]);
    }

    #[test]
    fn counting_min_count_prunes() {
        let cands = count_frequent_substrings(b"ABCD\nABCE\n", 2, 4, 2);
        let pats: Vec<&[u8]> = cands.iter().map(|c| c.pat.as_slice()).collect();
        assert!(pats.contains(&b"AB".as_slice()));
        assert!(pats.contains(&b"ABC".as_slice()));
        assert!(!pats.contains(&b"ABCD".as_slice()), "count 1 < min 2");
    }

    #[test]
    fn apriori_pruning_is_exact() {
        // Brute-force comparison on a small corpus.
        let corpus = b"COc1cc(C=O)ccc1O\nCOc1cc(C=O)ccc1O\nCC(C)CC\n";
        let got = count_frequent_substrings(corpus, 2, 6, 2);
        // Brute force:
        let mut brute: std::collections::HashMap<Vec<u8>, u32> = Default::default();
        for line in corpus.split(|&b| b == b'\n') {
            for i in 0..line.len() {
                for len in 2..=6.min(line.len() - i) {
                    *brute.entry(line[i..i + len].to_vec()).or_insert(0) += 1;
                }
            }
        }
        brute.retain(|_, c| *c >= 2);
        let mut got_map: std::collections::HashMap<Vec<u8>, u32> = Default::default();
        for c in got {
            got_map.insert(c.pat, c.occ);
        }
        assert_eq!(got_map, brute);
    }

    #[test]
    fn overlap_len_semantics() {
        assert_eq!(overlap_len(b"CC", b"CCO"), 2, "containment");
        assert_eq!(overlap_len(b"CCO", b"CC"), 2, "containment (other way)");
        assert_eq!(overlap_len(b"ABC", b"BCD"), 2, "suffix/prefix: BC");
        assert_eq!(overlap_len(b"BCD", b"ABC"), 2, "orientation-free");
        assert_eq!(overlap_len(b"AB", b"CD"), 0);
        assert_eq!(overlap_len(b"CCO", b"CCO"), 3, "identical = containment");
        assert_eq!(overlap_len(b"XA", b"AX"), 1);
    }

    #[test]
    fn paper_rank_suppresses_contained_duplicates() {
        // "CCO" selected first (rank 3*len3=9 > others); "CC" and "CO" are
        // then fully contained (overlap = their length → rank 0).
        let cands = vec![
            Candidate {
                pat: b"CCO".to_vec(),
                occ: 3,
                overlap: 0,
            },
            Candidate {
                pat: b"CC".to_vec(),
                occ: 3,
                overlap: 0,
            },
            Candidate {
                pat: b"CO".to_vec(),
                occ: 3,
                overlap: 0,
            },
            Candidate {
                pat: b"NN".to_vec(),
                occ: 2,
                overlap: 0,
            },
        ];
        let sel = select_paper_overlap(cands, 4);
        assert_eq!(sel[0], b"CCO");
        assert_eq!(sel[1], b"NN", "contained candidates are skipped");
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn static_rank_keeps_duplicates() {
        let cands = vec![
            Candidate {
                pat: b"CCO".to_vec(),
                occ: 3,
                overlap: 0,
            },
            Candidate {
                pat: b"CC".to_vec(),
                occ: 3,
                overlap: 0,
            },
        ];
        let sel = select_static(cands, 2);
        assert_eq!(sel.len(), 2, "freq×len does not suppress overlap");
    }

    #[test]
    fn coverage_recount_blanks_covered_text() {
        let mut text = b"CCOCCO".to_vec();
        blank_occurrences(&mut text, b"CCO");
        assert_eq!(text, b"\0\0\0\0\0\0");
        let mut text = b"CCCC".to_vec();
        blank_occurrences(&mut text, b"CCC");
        assert_eq!(text, b"\0\0\0C", "non-overlapping, left to right");
        assert_eq!(count_occurrences(b"CCOCCO", b"CCO"), 2);
        assert_eq!(count_occurrences(b"CCCC", b"CC"), 3, "overlapping count");
    }

    #[test]
    fn train_end_to_end() {
        let d = train(
            &DictBuilder {
                min_count: 2,
                ..DictBuilder::default()
            },
            &[
                "COc1cc(C=O)ccc1O",
                "COc1cc(C=O)ccc1O",
                "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
                "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            ],
        );
        assert!(d.pattern_entries().count() > 0);
        assert!(d.preprocessed());
        d.validate().unwrap();
        // Preprocessing means the dictionary saw ring IDs as 0: patterns
        // containing '0' should exist, and the C0=CC=C prefix the paper
        // calls out should be findable via the trie.
        assert!(
            d.trie()
                .longest_match_at(b"C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0", 0)
                .map(|(_, l)| l)
                .unwrap_or(0)
                > 1,
            "expected a multi-byte match on the renumbered ring prefix"
        );
    }

    #[test]
    fn train_without_preprocess_sees_raw_ids() {
        let builder = DictBuilder {
            preprocess: false,
            min_count: 2,
            ..DictBuilder::default()
        };
        let d = train(
            &builder,
            &["C1=CC=C(C=C1)C2=CC=CC=C2", "C1=CC=C(C=C1)C2=CC=CC=C2"],
        );
        assert!(!d.preprocessed());
        let pats: Vec<Vec<u8>> = d.pattern_entries().map(|(_, p)| p.to_vec()).collect();
        assert!(
            pats.iter().any(|p| p.contains(&b'2')),
            "raw training keeps ring ID 2: {pats:?}"
        );
    }

    #[test]
    fn empty_training_set_errors() {
        let b = DictBuilder::default();
        let r = b.train(std::iter::empty());
        assert!(matches!(r, Err(ZsmilesError::EmptyTrainingSet)));
    }

    #[test]
    fn all_unique_lines_with_high_min_count_errors() {
        let b = DictBuilder {
            min_count: 100,
            ..DictBuilder::default()
        };
        let ls = lines(&["CCO", "CNC"]);
        let r = b.train(ls.iter().map(|l| l.as_slice()));
        assert!(matches!(r, Err(ZsmilesError::EmptyTrainingSet)));
    }

    #[test]
    fn dict_size_caps_selection() {
        let b = DictBuilder {
            dict_size: Some(3),
            min_count: 2,
            ..DictBuilder::default()
        };
        let ls = lines(&["CCOCCNCCS", "CCOCCNCCS", "CCOCCNCCS"]);
        let d = b.train(ls.iter().map(|l| l.as_slice())).unwrap();
        assert!(d.pattern_entries().count() <= 3);
    }

    #[test]
    fn strategies_produce_different_dictionaries() {
        let corpus: Vec<&str> = vec!["c1ccccc1CCNC(=O)CC"; 30];
        let mk = |rank| {
            let b = DictBuilder {
                rank,
                min_count: 2,
                dict_size: Some(16),
                ..Default::default()
            };
            let ls = lines(&corpus);
            let d = b.train(ls.iter().map(|l| l.as_slice())).unwrap();
            let mut pats: Vec<Vec<u8>> = d.pattern_entries().map(|(_, p)| p.to_vec()).collect();
            pats.sort();
            pats
        };
        let paper = mk(RankStrategy::PaperOverlap);
        let naive = mk(RankStrategy::FreqTimesLen);
        // Different selection logic should pick visibly different sets on a
        // corpus full of overlapping repeats.
        assert_ne!(paper, naive);
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = ["COc1cc(C=O)ccc1O", "CC(C)Cc1ccc(cc1)C(C)C(=O)O"].repeat(10);
        let b = DictBuilder {
            min_count: 2,
            ..DictBuilder::default()
        };
        let ls = lines(&corpus);
        let d1 = b.train(ls.iter().map(|l| l.as_slice())).unwrap();
        let d2 = b.train(ls.iter().map(|l| l.as_slice())).unwrap();
        let p1: Vec<_> = d1.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        let p2: Vec<_> = d2.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        assert_eq!(p1, p2);
    }
}
