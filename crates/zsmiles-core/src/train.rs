//! Corpus-driven dictionary training — the subsystem every dictionary
//! producer in the workspace sits behind.
//!
//! The pipeline is the same for every codec, so it is a trait with four
//! stages shared across flavours and baselines:
//!
//! 1. **Corpus sampling** — [`TrainCorpus`] holds the training lines,
//!    built either from an in-memory iterator or by streaming a reader
//!    through seeded reservoir sampling ([`TrainCorpus::sample`]), so a
//!    multi-GB deck trains in bounded memory and a fixed seed makes the
//!    whole run reproducible.
//! 2. **Candidate harvesting** — exact Apriori-pruned frequent-substring
//!    counting (Algorithm 1's counting phase, shared with
//!    [`crate::dict::builder`]).
//! 3. **Selection** — the greedy loop that turns candidates into a
//!    ranked pattern list. The default, [`Selection::CostGuided`], scores
//!    each candidate by the *actual* marginal savings the shortest-path
//!    encoder realizes — its shortest-path cost (the encoder's
//!    [`crate::trie::ReverseAutomaton`] kernel, or
//!    [`crate::sp::encode_cost`] over the node trie for small probes)
//!    with the identity entries plus everything already selected
//!    installed — rather than raw frequency: a
//!    candidate that the optimal parse would rarely use (because its
//!    occurrences are already covered by better patterns) scores what it
//!    is actually worth. [`Selection::PaperRank`] keeps the paper's
//!    Eq. (1) ranking selectable for fidelity and ablation.
//! 4. **Installation** — the [`DictBuilder`] implementation installs the
//!    ranked list into its code space: [`BaseBuilder`] and
//!    [`WideBuilder`] produce [`AnyDictionary`] values that plug
//!    straight into the encoders, archives and GPU staging unchanged;
//!    [`FsstBuilder`] and [`SmazBuilder`] train the `textcomp`
//!    baselines' tables on the *same corpus*, so a bench harness can
//!    train-and-compare every codec in one run.
//!
//! # Example
//!
//! ```
//! use zsmiles_core::train::{BaseBuilder, DictBuilder, TrainCorpus, TrainOptions};
//!
//! let deck: Vec<&[u8]> = vec![b"COc1cc(C=O)ccc1O"; 32];
//! let corpus = TrainCorpus::from_lines(deck);
//! let builder = BaseBuilder {
//!     opts: TrainOptions { min_count: 2, ..Default::default() },
//! };
//! let dict = builder.train(&corpus).unwrap().into_dictionary().unwrap();
//! let mut z = Vec::new();
//! dict.encoder().compress_line(b"COc1cc(C=O)ccc1O", &mut z);
//! assert!(z.len() < 16);
//! ```

use crate::codec::Prepopulation;
use crate::dict::builder::{
    harvest_candidates, materialize_corpus, DictBuilder as PaperBuilder, RankStrategy,
};
use crate::dict::Dictionary;
use crate::engine::{AnyDictionary, DictFlavor};
use crate::error::ZsmilesError;
use crate::sp::{encode_cost, SpScratch};
use crate::trie::{ReverseAutomaton, Trie};
use crate::wide::{WideDictionary, MAX_WIDE_ENTRIES, PAGE_BYTES};
use std::io::BufRead;

// ---------------------------------------------------------------------------
// Corpus sampling
// ---------------------------------------------------------------------------

/// xorshift64* step — the deterministic PRNG behind reservoir sampling.
/// Self-contained so a `.dct` trained with a given seed is reproducible
/// from the CLI, the library and the bench harness alike.
#[inline]
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The sampled training corpus every [`DictBuilder`] trains on: raw
/// SMILES lines (no newlines, empties dropped). Pre-processing is a
/// builder decision, not a corpus property, so lines are stored verbatim.
#[derive(Debug, Clone, Default)]
pub struct TrainCorpus {
    lines: Vec<Vec<u8>>,
    /// Non-empty lines offered (≥ `lines.len()` when sampling kicked in).
    seen: u64,
}

impl TrainCorpus {
    /// Keep every offered line (small or already-sampled decks).
    pub fn from_lines<I, L>(lines: I) -> TrainCorpus
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let lines: Vec<Vec<u8>> = lines
            .into_iter()
            .map(|l| l.as_ref().to_vec())
            .filter(|l| !l.is_empty())
            .collect();
        let seen = lines.len() as u64;
        TrainCorpus { lines, seen }
    }

    /// Stream newline-separated lines from `r`, keeping a uniform sample
    /// of at most `capacity` lines (Algorithm R, seeded — the same seed
    /// over the same input reproduces the same sample byte for byte).
    /// `capacity == 0` keeps everything. Memory is bounded by the
    /// reservoir, never the deck.
    pub fn sample<R: BufRead>(r: R, capacity: usize, seed: u64) -> std::io::Result<TrainCorpus> {
        // SplitMix64 seed expansion: distinct seeds (even adjacent ones)
        // land on distinct, well-mixed non-zero xorshift states.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state = (state ^ (state >> 31)) | 1;
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut seen = 0u64;
        for line in r.split(b'\n') {
            let mut line = line?;
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.is_empty() {
                continue;
            }
            seen += 1;
            if capacity == 0 || lines.len() < capacity {
                lines.push(line);
            } else {
                // Replace a random reservoir slot with probability k/seen.
                let j = xorshift64(&mut state) % seen;
                if (j as usize) < capacity {
                    lines[j as usize] = line;
                }
            }
        }
        Ok(TrainCorpus { lines, seen })
    }

    /// Sampled lines, in reservoir order.
    pub fn lines(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.lines.iter().map(|l| l.as_slice())
    }

    /// Number of lines held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Non-empty lines offered before sampling.
    pub fn seen_lines(&self) -> u64 {
        self.seen
    }

    /// Payload bytes held (newlines excluded).
    pub fn payload_bytes(&self) -> usize {
        self.lines.iter().map(|l| l.len()).sum()
    }

    /// The held lines as one newline-separated buffer (the shape the
    /// `textcomp` table trainers consume).
    pub fn joined(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.payload_bytes() + self.len());
        for l in &self.lines {
            buf.extend_from_slice(l);
            buf.push(b'\n');
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// How the greedy selection loop scores candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Score each candidate by the marginal drop in the *actual*
    /// shortest-path encode cost of the sample when the candidate joins
    /// the already-selected set (lazy greedy; see the module docs).
    #[default]
    CostGuided,
    /// The paper's Algorithm 1 ranking (Eq. (1) and its ablation
    /// variants), delegated to [`crate::dict::builder::DictBuilder`].
    PaperRank(RankStrategy),
}

impl Selection {
    pub fn name(&self) -> &'static str {
        match self {
            Selection::CostGuided => "cost",
            Selection::PaperRank(_) => "paper",
        }
    }
}

/// Shared training configuration for the ZSMILES builders.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    pub lmin: usize,
    pub lmax: usize,
    pub prepopulation: Prepopulation,
    /// Apply ring-ID pre-processing to training lines (and record it in
    /// the dictionary so encoders do the same).
    pub preprocess: bool,
    /// Cap on selected patterns; `None` fills the flavour's code space.
    pub max_symbols: Option<usize>,
    /// Minimum occurrences for a substring to be harvested at all.
    pub min_count: u32,
    /// Candidates kept for the selection loop (by static estimate).
    pub max_candidates: usize,
    /// Cost-guided selection: exact cost evaluations per pick before the
    /// best already-evaluated candidate is taken (bounds worst-case
    /// training time; larger is closer to true greedy).
    pub beam: usize,
    /// Reservoir capacity for [`TrainCorpus::sample`]-based entry points
    /// (CLI, `pack --train`); `0` keeps every line.
    pub sample_lines: usize,
    /// Reservoir seed — fixes the sample, and with it the whole training
    /// run.
    pub seed: u64,
    /// Candidate scoring.
    pub selection: Selection,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            lmin: 2,
            lmax: 12,
            prepopulation: Prepopulation::SmilesAlphabet,
            preprocess: true,
            max_symbols: None,
            min_count: 4,
            max_candidates: 30_000,
            beam: 64,
            sample_lines: 4096,
            seed: 0x5EED5,
            selection: Selection::CostGuided,
        }
    }
}

// ---------------------------------------------------------------------------
// The trait and its output
// ---------------------------------------------------------------------------

/// What a training run produces: a ZSMILES dictionary (either flavour —
/// flows through the encoders, archives and GPU staging unchanged) or a
/// trained baseline table (bench comparison only).
#[derive(Debug, Clone)]
pub enum TrainedModel {
    Zsmiles(AnyDictionary),
    Fsst(textcomp::fsst::Fsst),
    Smaz(textcomp::smaz::Smaz),
}

impl TrainedModel {
    /// Display name (bench axis labels).
    pub fn name(&self) -> &'static str {
        match self {
            TrainedModel::Zsmiles(d) => d.name(),
            TrainedModel::Fsst(_) => "FSST",
            TrainedModel::Smaz(_) => "SMAZ",
        }
    }

    /// The ZSMILES dictionary, if this model is one.
    pub fn as_dictionary(&self) -> Option<&AnyDictionary> {
        match self {
            TrainedModel::Zsmiles(d) => Some(d),
            _ => None,
        }
    }

    /// Unwrap into the ZSMILES dictionary, if this model is one.
    pub fn into_dictionary(self) -> Option<AnyDictionary> {
        match self {
            TrainedModel::Zsmiles(d) => Some(d),
            _ => None,
        }
    }

    /// Every trained model compresses through [`textcomp::LineCodec`] —
    /// the uniform per-line interface the comparison harness drives, so
    /// one loop ratios every codec on the corpus they all trained on.
    pub fn line_codec(&self) -> Box<dyn textcomp::LineCodec + '_> {
        match self {
            TrainedModel::Zsmiles(d) => Box::new(d.clone()),
            TrainedModel::Fsst(t) => Box::new(t.clone()),
            TrainedModel::Smaz(t) => Box::new(t.clone()),
        }
    }
}

/// A dictionary producer: one corpus in, one trained model out. The
/// workspace's four producers — both ZSMILES flavours and the two
/// trainable `textcomp` baselines — implement it, which is what lets a
/// harness train and compare every codec on one corpus in one run.
pub trait DictBuilder {
    /// Builder name (CLI `--flavor` value, bench axis label).
    fn name(&self) -> &'static str;

    /// The ZSMILES flavour produced, if the output is a ZSMILES
    /// dictionary.
    fn flavor(&self) -> Option<DictFlavor>;

    /// Train on the sampled corpus.
    fn train(&self, corpus: &TrainCorpus) -> Result<TrainedModel, ZsmilesError>;
}

// ---------------------------------------------------------------------------
// Cost-guided greedy selection
// ---------------------------------------------------------------------------

/// A candidate in the lazy-greedy loop.
struct Cand {
    pat: Vec<u8>,
    /// Current score: the exact marginal gain if `fresh`, else a stale
    /// upper estimate from a previous round (gains only shrink as the
    /// selected set grows).
    score: u64,
    fresh: bool,
    /// Corpus lines containing `pat` — a function of (pattern, corpus)
    /// only, so it is scanned once on the candidate's first exact
    /// evaluation and reused by every later one (and by the baseline
    /// update when the candidate is selected).
    hits: Option<Vec<u32>>,
}

/// Below this many cached hit lines, compiling a [`ReverseAutomaton`]
/// for a probe trie costs more than the node-trie walk it would save;
/// above it, the CELF re-scoring loop is encoder-bound and the compiled
/// kernel wins.
const COMPILED_EVAL_THRESHOLD: usize = 64;

/// The encoder's cost for `line`: through the compiled kernel when there
/// is one, else the reference DP over the node trie.
fn line_cost(
    compiled: Option<&ReverseAutomaton>,
    trie: &Trie,
    line: &[u8],
    scratch: &mut SpScratch,
) -> u64 {
    match compiled {
        Some(ra) => crate::sp::reverse_dp(ra, line, scratch),
        None => encode_cost(trie, line, scratch) as u64,
    }
}

/// Exact marginal gain of `cand` given the current matcher and per-line
/// baselines: only lines containing the pattern can change, so the DP
/// re-runs on that (cached) subset alone.
fn eval_gain(
    lines: &[&[u8]],
    trie: &Trie,
    baseline: &[u64],
    scratch: &mut SpScratch,
    cand: &mut Cand,
) -> u64 {
    let hits = cand.hits.get_or_insert_with(|| {
        let pat = cand.pat.as_slice();
        lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len() >= pat.len() && l.windows(pat.len()).any(|w| w == pat))
            .map(|(i, _)| i as u32)
            .collect()
    });
    if hits.is_empty() {
        return 0;
    }
    let mut probe = trie.clone();
    probe.insert(&cand.pat, 0);
    let compiled =
        (hits.len() >= COMPILED_EVAL_THRESHOLD).then(|| ReverseAutomaton::compile(&probe));
    let mut gain = 0u64;
    for &i in hits.iter() {
        let with = line_cost(compiled.as_ref(), &probe, lines[i as usize], scratch);
        gain += baseline[i as usize].saturating_sub(with);
    }
    gain
}

/// Greedy pattern selection scored by the actual shortest-path encode
/// cost: in each round the candidate whose installation shrinks the
/// sample's optimal encoding the most is picked, with
/// [`crate::sp::encode_cost`] as the judge and the identity entries plus
/// everything already selected as the matcher it runs against.
///
/// Lazy evaluation (CELF-style) keeps this tractable: candidates carry a
/// stale score from their last exact evaluation (initially the static
/// `occ × (len − 1)` estimate), the round re-evaluates the top candidate
/// until a freshly-scored one stays on top, and `beam` bounds the exact
/// evaluations per pick.
fn cost_guided_select(
    lines: &[&[u8]],
    candidates: Vec<(Vec<u8>, u32)>,
    prepopulation: Prepopulation,
    budget: usize,
    beam: usize,
) -> Vec<Vec<u8>> {
    let beam = beam.max(1);
    // The matcher the DP runs against: identity entries now, selected
    // patterns as they accumulate. Code values are irrelevant — only the
    // path *cost* is read.
    let mut trie: Trie = Trie::new();
    for b in prepopulation.identity_bytes() {
        trie.insert(&[b], b);
    }
    let mut scratch = SpScratch::new();
    // The full-corpus sweep always amortizes a compile.
    let initial = ReverseAutomaton::compile(&trie);
    let mut baseline: Vec<u64> = lines
        .iter()
        .map(|l| line_cost(Some(&initial), &trie, l, &mut scratch))
        .collect();
    drop(initial);

    let mut cands: Vec<Cand> = candidates
        .into_iter()
        .map(|(pat, occ)| {
            // Static estimate: each occurrence saves ~(len − 1) bytes when
            // the bytes would otherwise cost one code each; a matched
            // single byte still beats a two-byte escape.
            let est = if pat.len() == 1 {
                occ as u64
            } else {
                occ as u64 * (pat.len() as u64 - 1)
            };
            Cand {
                pat,
                score: est,
                fresh: false,
                hits: None,
            }
        })
        .collect();

    // Deterministic candidate order: score, then longer pattern, then
    // lexicographically smaller — a total order (patterns are distinct).
    let better = |a: &Cand, b: &Cand| -> bool {
        a.score > b.score
            || (a.score == b.score
                && (a.pat.len() > b.pat.len() || (a.pat.len() == b.pat.len() && a.pat < b.pat)))
    };

    let mut selected: Vec<Vec<u8>> = Vec::with_capacity(budget.min(cands.len()));
    while selected.len() < budget && !cands.is_empty() {
        let mut evals = 0usize;
        let pick = loop {
            // Argmax over all candidates — or over the already-evaluated
            // ones once this pick's evaluation budget is spent.
            let frozen = evals >= beam;
            let mut best: Option<usize> = None;
            for (i, c) in cands.iter().enumerate() {
                if frozen && !c.fresh {
                    continue;
                }
                if best.is_none_or(|b| better(c, &cands[b])) {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break None };
            if cands[i].score == 0 {
                break None; // nothing left can save a byte
            }
            if cands[i].fresh {
                break Some(i);
            }
            let gain = eval_gain(lines, &trie, &baseline, &mut scratch, &mut cands[i]);
            cands[i].score = gain;
            cands[i].fresh = true;
            evals += 1;
        };
        let Some(idx) = pick else { break };
        let chosen = cands.swap_remove(idx);
        trie.insert(&chosen.pat, 0);
        // A picked candidate is always fresh, so its hit set is cached.
        let hits = chosen.hits.as_deref().unwrap_or(&[]);
        let compiled =
            (hits.len() >= COMPILED_EVAL_THRESHOLD).then(|| ReverseAutomaton::compile(&trie));
        for &li in hits {
            baseline[li as usize] =
                line_cost(compiled.as_ref(), &trie, lines[li as usize], &mut scratch);
        }
        selected.push(chosen.pat);
        // Every remaining score is now a stale (upper) estimate.
        for c in &mut cands {
            c.fresh = false;
        }
    }
    selected
}

/// Shared front half of both ZSMILES builders: materialize (preprocess),
/// harvest, select — returns the ranked pattern list ready for
/// installation into either code space.
fn select_patterns(
    corpus: &TrainCorpus,
    opts: &TrainOptions,
    budget: usize,
) -> Result<Vec<Vec<u8>>, ZsmilesError> {
    if opts.lmin < 1 || opts.lmax < opts.lmin || opts.lmax > crate::dict::MAX_PATTERN_LEN {
        return Err(ZsmilesError::BadLengthBounds {
            lmin: opts.lmin,
            lmax: opts.lmax,
        });
    }
    let (flat, n_lines) = materialize_corpus(corpus.lines(), opts.preprocess);
    if n_lines == 0 {
        return Err(ZsmilesError::EmptyTrainingSet);
    }
    let mut candidates = harvest_candidates(&flat, opts.lmin, opts.lmax, opts.min_count);
    if candidates.is_empty() {
        return Err(ZsmilesError::EmptyTrainingSet);
    }
    // Keep only the strongest candidates for the selection loop
    // (deterministic order: estimate, then longer, then lexicographic).
    candidates.sort_unstable_by(|a, b| {
        let ra = a.1 as u64 * a.0.len() as u64;
        let rb = b.1 as u64 * b.0.len() as u64;
        rb.cmp(&ra)
            .then(b.0.len().cmp(&a.0.len()))
            .then_with(|| a.0.cmp(&b.0))
    });
    candidates.truncate(opts.max_candidates);

    let lines: Vec<&[u8]> = flat
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    Ok(cost_guided_select(
        &lines,
        candidates,
        opts.prepopulation,
        budget,
        opts.beam,
    ))
}

// ---------------------------------------------------------------------------
// The four builders
// ---------------------------------------------------------------------------

/// The ranked pattern list for a `budget`-pattern dictionary, via
/// whichever selection `opts` names — the one dispatch both ZSMILES
/// builders share, so the two flavours cannot drift apart.
fn ranked_patterns(
    corpus: &TrainCorpus,
    opts: &TrainOptions,
    budget: usize,
) -> Result<Vec<Vec<u8>>, ZsmilesError> {
    match opts.selection {
        Selection::CostGuided => select_patterns(corpus, opts, budget),
        Selection::PaperRank(rank) => PaperBuilder {
            lmin: opts.lmin,
            lmax: opts.lmax,
            prepopulation: opts.prepopulation,
            rank,
            preprocess: opts.preprocess,
            dict_size: Some(budget),
            max_candidates: opts.max_candidates,
            min_count: opts.min_count,
            ..PaperBuilder::default()
        }
        .train_patterns(corpus.lines()),
    }
}

/// Trains the paper's one-byte dictionary.
#[derive(Debug, Clone, Default)]
pub struct BaseBuilder {
    pub opts: TrainOptions,
}

impl DictBuilder for BaseBuilder {
    fn name(&self) -> &'static str {
        "base"
    }

    fn flavor(&self) -> Option<DictFlavor> {
        Some(DictFlavor::Base)
    }

    fn train(&self, corpus: &TrainCorpus) -> Result<TrainedModel, ZsmilesError> {
        let o = &self.opts;
        let free = o.prepopulation.free_code_count();
        let budget = o.max_symbols.unwrap_or(free).min(free);
        let patterns = ranked_patterns(corpus, o, budget)?;
        let dict =
            Dictionary::from_patterns(o.prepopulation, patterns, o.lmin, o.lmax, o.preprocess)?;
        Ok(TrainedModel::Zsmiles(AnyDictionary::Base(Box::new(dict))))
    }
}

/// Trains the wide-code extension: the same selection machinery asked for
/// `214 − identity + wide_size` ranked patterns, installed across both
/// code widths. The cost-guided score charges every code one byte, which
/// slightly flatters patterns that land in the two-byte wide region —
/// the wide DP still emits the optimal stream for whatever is installed.
#[derive(Debug, Clone)]
pub struct WideBuilder {
    pub opts: TrainOptions,
    /// Two-byte pattern slots to fill.
    pub wide_size: usize,
}

impl Default for WideBuilder {
    fn default() -> Self {
        WideBuilder {
            opts: TrainOptions::default(),
            wide_size: 512,
        }
    }
}

impl DictBuilder for WideBuilder {
    fn name(&self) -> &'static str {
        "wide"
    }

    fn flavor(&self) -> Option<DictFlavor> {
        Some(DictFlavor::Wide)
    }

    fn train(&self, corpus: &TrainCorpus) -> Result<TrainedModel, ZsmilesError> {
        let o = &self.opts;
        let wide_size = self.wide_size.min(MAX_WIDE_ENTRIES);
        let free_base = o
            .prepopulation
            .free_code_count()
            .saturating_sub(PAGE_BYTES.len());
        let cap = free_base + wide_size;
        let budget = o.max_symbols.unwrap_or(cap).min(cap);
        let patterns = ranked_patterns(corpus, o, budget)?;
        let dict = WideDictionary::from_patterns(
            o.prepopulation,
            patterns,
            o.lmin,
            o.lmax,
            o.preprocess,
            wide_size,
        )?;
        Ok(TrainedModel::Zsmiles(AnyDictionary::Wide(Box::new(dict))))
    }
}

/// Trains the FSST baseline's symbol table on the shared corpus.
#[derive(Debug, Clone)]
pub struct FsstBuilder {
    /// Symbol budget (≤ `textcomp::fsst::MAX_SYMBOLS`).
    pub max_symbols: usize,
}

impl Default for FsstBuilder {
    fn default() -> Self {
        FsstBuilder {
            max_symbols: textcomp::fsst::MAX_SYMBOLS,
        }
    }
}

impl DictBuilder for FsstBuilder {
    fn name(&self) -> &'static str {
        "fsst"
    }

    fn flavor(&self) -> Option<DictFlavor> {
        None
    }

    fn train(&self, corpus: &TrainCorpus) -> Result<TrainedModel, ZsmilesError> {
        if corpus.is_empty() {
            return Err(ZsmilesError::EmptyTrainingSet);
        }
        Ok(TrainedModel::Fsst(textcomp::fsst::Fsst::train_with(
            &corpus.joined(),
            self.max_symbols,
        )))
    }
}

/// Trains a SMAZ-style codebook on the shared corpus.
#[derive(Debug, Clone)]
pub struct SmazBuilder {
    /// Codebook budget (≤ `textcomp::smaz::MAX_ENTRIES`).
    pub max_entries: usize,
}

impl Default for SmazBuilder {
    fn default() -> Self {
        SmazBuilder {
            max_entries: textcomp::smaz::MAX_ENTRIES,
        }
    }
}

impl DictBuilder for SmazBuilder {
    fn name(&self) -> &'static str {
        "smaz"
    }

    fn flavor(&self) -> Option<DictFlavor> {
        None
    }

    fn train(&self, corpus: &TrainCorpus) -> Result<TrainedModel, ZsmilesError> {
        if corpus.is_empty() {
            return Err(ZsmilesError::EmptyTrainingSet);
        }
        Ok(TrainedModel::Smaz(textcomp::smaz::Smaz::train_with(
            &corpus.joined(),
            self.max_entries,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deck() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 6] = [
            b"COc1cc(C=O)ccc1O",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
            b"OC(=O)c1ccccc1Nc1ccnc2cc(Cl)ccc12",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(120).collect()
    }

    fn opts() -> TrainOptions {
        TrainOptions {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
    }

    #[test]
    fn reservoir_keeps_everything_under_capacity() {
        let input = b"CCO\nCNC\n\nCCC\n";
        let c = TrainCorpus::sample(&input[..], 10, 7).unwrap();
        assert_eq!(c.len(), 3, "empty line dropped");
        assert_eq!(c.seen_lines(), 3);
        let lines: Vec<&[u8]> = c.lines().collect();
        assert_eq!(lines, vec![b"CCO".as_slice(), b"CNC", b"CCC"]);
        assert_eq!(c.joined(), b"CCO\nCNC\nCCC\n");
    }

    #[test]
    fn reservoir_is_deterministic_and_uniformish() {
        let mut input = Vec::new();
        for i in 0..1000u32 {
            input.extend_from_slice(format!("C{i}\n").as_bytes());
        }
        let a = TrainCorpus::sample(&input[..], 64, 42).unwrap();
        let b = TrainCorpus::sample(&input[..], 64, 42).unwrap();
        assert_eq!(a.lines, b.lines, "same seed, same sample");
        assert_eq!(a.len(), 64);
        assert_eq!(a.seen_lines(), 1000);
        let c = TrainCorpus::sample(&input[..], 64, 43).unwrap();
        assert_ne!(a.lines, c.lines, "different seed, different sample");
        // Sampling reaches past the first `capacity` lines.
        assert!(
            a.lines().any(|l| l.len() > 3),
            "tail lines (3-digit ids) appear in the sample"
        );
    }

    #[test]
    fn base_builder_round_trips_and_compresses() {
        let corpus = TrainCorpus::from_lines(deck());
        let model = BaseBuilder { opts: opts() }.train(&corpus).unwrap();
        assert_eq!(model.name(), "ZSMILES");
        let dict = model.as_dictionary().unwrap();
        assert_eq!(dict.flavor(), DictFlavor::Base);
        let mut enc = dict.encoder();
        let mut total_in = 0usize;
        let mut total_out = 0usize;
        for line in deck() {
            let mut z = Vec::new();
            let (n, _) = enc.compress_line(line, &mut z);
            let mut back = Vec::new();
            dict.decompress_line(&z, &mut back).unwrap();
            assert_eq!(back, line);
            total_in += line.len();
            total_out += n;
        }
        assert!(
            (total_out as f64) < total_in as f64 * 0.6,
            "cost-guided dictionary compresses its corpus: {total_out}/{total_in}"
        );
    }

    #[test]
    fn wide_builder_produces_wide_dictionaries() {
        let corpus = TrainCorpus::from_lines(deck());
        let b = WideBuilder {
            opts: opts(),
            wide_size: 64,
        };
        assert_eq!(b.flavor(), Some(DictFlavor::Wide));
        let dict = b.train(&corpus).unwrap().into_dictionary().unwrap();
        assert_eq!(dict.flavor(), DictFlavor::Wide);
        let mut enc = dict.encoder();
        for line in deck().iter().take(12) {
            let mut z = Vec::new();
            enc.compress_line(line, &mut z);
            let mut back = Vec::new();
            dict.decompress_line(&z, &mut back).unwrap();
            assert_eq!(&back, line);
        }
    }

    #[test]
    fn max_symbols_caps_selection() {
        let corpus = TrainCorpus::from_lines(deck());
        let model = BaseBuilder {
            opts: TrainOptions {
                max_symbols: Some(5),
                ..opts()
            },
        }
        .train(&corpus)
        .unwrap();
        let Some(AnyDictionary::Base(d)) = model.as_dictionary().map(|d| match d {
            AnyDictionary::Base(b) => AnyDictionary::Base(b.clone()),
            AnyDictionary::Wide(w) => AnyDictionary::Wide(w.clone()),
        }) else {
            panic!("base model expected");
        };
        assert!(d.pattern_entries().count() <= 5);
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = TrainCorpus::from_lines(deck());
        let mut bufs = Vec::new();
        for _ in 0..2 {
            let model = BaseBuilder { opts: opts() }.train(&corpus).unwrap();
            let mut buf = Vec::new();
            model.as_dictionary().unwrap().write(&mut buf).unwrap();
            bufs.push(buf);
        }
        assert_eq!(bufs[0], bufs[1]);
    }

    #[test]
    fn cost_guided_is_no_worse_than_paper_rank_on_its_corpus() {
        let corpus = TrainCorpus::from_lines(deck());
        let ratio_of = |selection: Selection| {
            let model = BaseBuilder {
                opts: TrainOptions {
                    selection,
                    ..opts()
                },
            }
            .train(&corpus)
            .unwrap();
            let dict = model.into_dictionary().unwrap();
            let mut enc = dict.encoder();
            let (mut inb, mut outb) = (0usize, 0usize);
            for line in deck() {
                let mut z = Vec::new();
                let (n, _) = enc.compress_line(line, &mut z);
                inb += line.len();
                outb += n;
            }
            outb as f64 / inb as f64
        };
        let cost = ratio_of(Selection::CostGuided);
        let paper = ratio_of(Selection::PaperRank(RankStrategy::PaperOverlap));
        assert!(
            cost <= paper + 1e-9,
            "cost-guided {cost:.4} should not lose to paper rank {paper:.4} on the training corpus"
        );
    }

    #[test]
    fn paper_rank_selection_matches_algorithm_one() {
        // The PaperRank path must produce the same dictionary as driving
        // the Algorithm-1 builder directly — it is the same machinery.
        let corpus = TrainCorpus::from_lines(deck());
        let via_trait = BaseBuilder {
            opts: TrainOptions {
                selection: Selection::PaperRank(RankStrategy::PaperOverlap),
                ..opts()
            },
        }
        .train(&corpus)
        .unwrap();
        let direct = PaperBuilder {
            min_count: 2,
            preprocess: false,
            lmax: 12,
            dict_size: Some(Prepopulation::SmilesAlphabet.free_code_count()),
            ..PaperBuilder::default()
        }
        .train(corpus.lines())
        .unwrap();
        let mut a = Vec::new();
        via_trait.as_dictionary().unwrap().write(&mut a).unwrap();
        let mut b = Vec::new();
        crate::dict::format::write_dict(&direct, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_builders_train_and_round_trip() {
        let corpus = TrainCorpus::from_lines(deck());
        for builder in [
            Box::new(FsstBuilder::default()) as Box<dyn DictBuilder>,
            Box::new(SmazBuilder::default()),
        ] {
            assert!(builder.flavor().is_none());
            let model = builder.train(&corpus).unwrap();
            let codec = model.line_codec();
            for line in deck().iter().take(6) {
                let mut z = Vec::new();
                codec.compress_line(line, &mut z);
                let mut back = Vec::new();
                codec.decompress_line(&z, &mut back).unwrap();
                assert_eq!(&back, line, "{}", model.name());
            }
        }
    }

    #[test]
    fn every_builder_trains_on_one_corpus_in_one_run() {
        // The tentpole property: one corpus, every codec, one loop.
        let corpus = TrainCorpus::from_lines(deck());
        let builders: Vec<Box<dyn DictBuilder>> = vec![
            Box::new(BaseBuilder { opts: opts() }),
            Box::new(WideBuilder {
                opts: opts(),
                wide_size: 32,
            }),
            Box::new(FsstBuilder::default()),
            Box::new(SmazBuilder::default()),
        ];
        let input = corpus.joined();
        for b in &builders {
            let model = b.train(&corpus).unwrap();
            let codec = model.line_codec();
            let (out, inp) = textcomp::line_codec_ratio(codec.as_ref(), &input);
            assert!(
                out < inp + codec.overhead_bytes() + 1,
                "{} ratio sane",
                b.name()
            );
        }
    }

    #[test]
    fn empty_corpus_errors() {
        let corpus = TrainCorpus::from_lines(std::iter::empty::<&[u8]>());
        for builder in [
            Box::new(BaseBuilder { opts: opts() }) as Box<dyn DictBuilder>,
            Box::new(WideBuilder {
                opts: opts(),
                wide_size: 8,
            }),
            Box::new(FsstBuilder::default()),
            Box::new(SmazBuilder::default()),
        ] {
            assert!(
                matches!(builder.train(&corpus), Err(ZsmilesError::EmptyTrainingSet)),
                "{}",
                builder.name()
            );
        }
    }

    #[test]
    fn cost_guided_skips_covered_duplicates() {
        // "CCO" repeated: once it is selected, "CC"/"CO" have zero marginal
        // gain under the actual encode cost and must not burn budget.
        let lines: Vec<&[u8]> = vec![b"CCOCCOCCO"; 20];
        let corpus = TrainCorpus::from_lines(lines);
        let model = BaseBuilder {
            opts: TrainOptions {
                max_symbols: Some(8),
                ..opts()
            },
        }
        .train(&corpus)
        .unwrap();
        let dict = model.into_dictionary().unwrap();
        let mut buf = Vec::new();
        dict.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let pats: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split('\t').nth(1))
            .collect();
        assert!(
            pats.contains(&"CCOCCOCCO") || pats.contains(&"CCO"),
            "a covering pattern selected: {pats:?}"
        );
        // No pattern in the list is a substring another fully covers with
        // zero residual value — in particular not both "CCO" and "CC"+"CO".
        assert!(
            !(pats.contains(&"CC") && pats.contains(&"CO") && pats.contains(&"CCO")),
            "zero-gain fragments skipped: {pats:?}"
        );
    }
}
