//! The campaign loop: screen → archive → sample.
//!
//! [`screen`] and [`screen_parallel`] produce a [`ScoreTable`] for a deck
//! against one pocket (ligand-pocket pairs are independent — the
//! embarrassing parallelism the paper notes in §I). [`top_hits`] closes the
//! loop: it pulls exactly the winning lines back out of a compressed
//! [`Archive`] — the sampling workflow the random-access requirement
//! exists for. [`StorageModel`] does the paper's cold-storage arithmetic.

use crate::archive::Archive;
use crate::pocket::Pocket;
use crate::score::ScoreTable;
use molgen::Dataset;
use smiles::FeatureCounter;
use std::cell::RefCell;
use zsmiles_core::ZsmilesError;

/// Score an unparseable line poorly instead of failing the campaign: real
/// decks contain the odd malformed row and a screen must not stop for it.
pub const UNPARSEABLE_SCORE: f64 = f64::NEG_INFINITY;

/// Score every ligand in `deck` against `pocket`, serially.
pub fn screen(deck: &Dataset, pocket: &Pocket) -> ScoreTable {
    let scores = with_scorer(|s| deck.iter().map(|line| s.score(line, pocket)).collect());
    ScoreTable::new(scores)
}

/// Score every ligand in `deck` against `pocket` on `workers` threads.
/// Deterministic: each ligand's score is independent, and every worker
/// writes only its own contiguous slice, so the result is byte-identical
/// to [`screen`] for any worker count.
pub fn screen_parallel(deck: &Dataset, pocket: &Pocket, workers: usize) -> ScoreTable {
    let n = deck.len();
    if n == 0 {
        return ScoreTable::new(Vec::new());
    }
    let workers = workers.max(1).min(n);
    let mut scores = vec![0.0f64; n];
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for (w, out) in scores.chunks_mut(chunk).enumerate() {
            let start = w * chunk;
            s.spawn(move || {
                let mut scorer = Scorer::new();
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = scorer.score(deck.line(start + k), pocket);
                }
            });
        }
    });
    ScoreTable::new(scores)
}

/// The per-ligand kernel that [`screen`], [`screen_parallel`],
/// [`score_line`] and the wire-protocol screener
/// ([`crate::wire::PocketScreener`]) all share, so their scores stay
/// bit-identical: one counting pass over the line (no molecular graph)
/// and the pocket's formula. Unparseable lines sink to
/// [`UNPARSEABLE_SCORE`]. Its parser scratch is kept between lines, so a
/// warmed scorer does not allocate.
#[derive(Debug, Default)]
pub struct Scorer {
    counter: FeatureCounter,
}

impl Scorer {
    pub fn new() -> Scorer {
        Scorer::default()
    }

    /// Score one deck line against a pocket.
    pub fn score(&mut self, line: &[u8], pocket: &Pocket) -> f64 {
        match self.counter.count(line) {
            Ok(counts) => pocket.score(&counts),
            Err(_) => UNPARSEABLE_SCORE,
        }
    }
}

thread_local! {
    /// Each thread's scorer, warmed by every line it scores.
    static SCORER: RefCell<Scorer> = RefCell::new(Scorer::new());
}

/// Run `f` with the calling thread's [`Scorer`].
pub(crate) fn with_scorer<R>(f: impl FnOnce(&mut Scorer) -> R) -> R {
    SCORER.with(|s| f(&mut s.borrow_mut()))
}

/// Score one deck line against a pocket with the calling thread's
/// [`Scorer`].
pub fn score_line(line: &[u8], pocket: &Pocket) -> f64 {
    with_scorer(|s| s.score(line, pocket))
}

/// One retrieved hit: deck line number, its score, and the decompressed
/// SMILES pulled from the archive.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub index: usize,
    pub score: f64,
    pub smiles: Vec<u8>,
}

/// Select the `k` best ligands from `scores` and fetch exactly those lines
/// from the archive — k random-access reads, not a decompression pass.
/// The fetch is batched ([`Archive::fetch_many`]): one decoder worker
/// serves the whole hit list instead of being re-minted per hit.
pub fn top_hits(
    archive: &Archive,
    scores: &ScoreTable,
    k: usize,
) -> Result<Vec<Hit>, ZsmilesError> {
    let ranked = scores.top_k(k);
    let indices: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
    let fetched = archive.fetch_many(&indices)?;
    Ok(ranked
        .into_iter()
        .zip(fetched)
        .map(|((index, score), smiles)| Hit {
            index,
            score,
            smiles,
        })
        .collect())
}

/// [`top_hits`] against a deck that lives *on disk* — single `.zsa` or
/// sharded `.zsm`, sniffed at open: k hit fetches touch k compressed
/// lines in whichever shard owns them, never the deck.
pub fn top_hits_cold(
    deck: &crate::archive::ColdArchive,
    scores: &ScoreTable,
    k: usize,
) -> Result<Vec<Hit>, ZsmilesError> {
    let ranked = scores.top_k(k);
    let indices: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
    let fetched = deck.fetch_many(&indices)?;
    Ok(ranked
        .into_iter()
        .zip(fetched)
        .map(|((index, score), smiles)| Hit {
            index,
            score,
            smiles,
        })
        .collect())
}

/// The paper's cold-storage arithmetic (§I: 72 TB on Marconi100), scaled
/// by a measured compression ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageModel {
    /// Raw campaign footprint in terabytes.
    pub raw_tb: f64,
}

impl StorageModel {
    /// The Marconi100 campaign from the paper's introduction.
    pub const MARCONI100: StorageModel = StorageModel { raw_tb: 72.0 };

    /// Footprint after compression at `ratio`.
    pub fn compressed_tb(&self, ratio: f64) -> f64 {
        self.raw_tb * ratio
    }

    /// Storage reclaimed at `ratio`.
    pub fn saved_tb(&self, ratio: f64) -> f64 {
        self.raw_tb * (1.0 - ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsmiles_core::DictBuilder;

    fn fixture() -> (Dataset, Pocket) {
        (Dataset::generate_mixed(400, 3), Pocket::from_seed(5))
    }

    #[test]
    fn parallel_screen_matches_serial_for_any_worker_count() {
        let (deck, pocket) = fixture();
        let serial = screen(&deck, &pocket);
        for workers in [1usize, 2, 3, 7, 64] {
            let par = screen_parallel(&deck, &pocket, workers);
            assert_eq!(par, serial, "{workers} workers");
        }
    }

    #[test]
    fn empty_deck_screens_to_empty_table() {
        let pocket = Pocket::from_seed(2);
        let empty = Dataset::new();
        assert_eq!(screen_parallel(&empty, &pocket, 4), screen(&empty, &pocket));
        assert_eq!(screen_parallel(&empty, &pocket, 4).len(), 0);
    }

    #[test]
    fn unparseable_lines_sink_to_the_bottom() {
        let mut deck = Dataset::new();
        deck.push(b"COc1cc(C=O)ccc1O");
        deck.push(b"this is not smiles!!!");
        deck.push(b"CCO");
        let pocket = Pocket::from_seed(1);
        let t = screen(&deck, &pocket);
        assert_eq!(t.get(1), f64::NEG_INFINITY);
        let top = t.top_k(3);
        assert_eq!(top.last().unwrap().0, 1, "malformed row ranks last");
    }

    #[test]
    fn top_hits_fetches_the_right_lines() {
        let (deck, pocket) = fixture();
        let scores = screen(&deck, &pocket);
        let dict = DictBuilder::default().train(deck.iter()).unwrap();
        let archive = Archive::build(&dict, deck.as_bytes());
        let hits = top_hits(&archive, &scores, 10).unwrap();
        assert_eq!(hits.len(), 10);
        // Best-first ordering, and every SMILES matches its deck line.
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        for h in &hits {
            assert_eq!(
                smiles::parser::parse(&h.smiles).unwrap().signature(),
                smiles::parser::parse(deck.line(h.index))
                    .unwrap()
                    .signature()
            );
        }
    }

    #[test]
    fn top_hits_clamps_k() {
        let (deck, pocket) = fixture();
        let scores = screen(&deck, &pocket);
        let dict = DictBuilder::default().train(deck.iter()).unwrap();
        let archive = Archive::build(&dict, deck.as_bytes());
        let hits = top_hits(&archive, &scores, deck.len() + 50).unwrap();
        assert_eq!(hits.len(), deck.len());
    }

    #[test]
    fn storage_model_arithmetic() {
        let m = StorageModel::MARCONI100;
        assert!((m.compressed_tb(0.29) - 20.88).abs() < 1e-9);
        assert!((m.saved_tb(0.29) - 51.12).abs() < 1e-9);
        assert_eq!(m.compressed_tb(1.0), 72.0);
        assert_eq!(m.saved_tb(1.0), 0.0);
    }
}
