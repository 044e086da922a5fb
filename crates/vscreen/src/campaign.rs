//! The campaign loop: screen → archive → sample.
//!
//! [`screen`] and [`screen_parallel`] produce a [`ScoreTable`] for a deck
//! against one pocket (ligand-pocket pairs are independent — the
//! embarrassing parallelism the paper notes in §I). [`top_hits`] and
//! [`top_hits_cold`] close the loop: they pull exactly the winning lines
//! back out of a compressed deck, in memory or on disk — the sampling
//! workflow the random-access requirement exists for. [`StorageModel`]
//! does the paper's cold-storage arithmetic.

use crate::pocket::Pocket;
use crate::score::ScoreTable;
use molgen::Dataset;
use smiles::FeatureCounter;
use std::cell::RefCell;
use zsmiles_core::{Archive, ShardedReader, ZsmilesError};

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
/// from an in-memory archive — k random-access reads, not a
/// decompression pass.
pub fn top_hits(
    archive: &Archive,
    scores: &ScoreTable,
    k: usize,
) -> Result<Vec<Hit>, ZsmilesError> {
    fetch_top(scores, k, |indices| archive.get_many(indices))
}

/// [`top_hits`] against a deck that lives *on disk* — a `.zsm` manifest
/// or a bare `.zsa`, both opened by [`ShardedReader::open`]: k hit
/// fetches touch k compressed lines in whichever shard owns them, never
/// the deck.
pub fn top_hits_cold(
    deck: &ShardedReader,
    scores: &ScoreTable,
    k: usize,
) -> Result<Vec<Hit>, ZsmilesError> {
    fetch_top(scores, k, |indices| deck.get_many(indices))
}

/// Rank the `k` best lines and pair each with its line from `fetch`.
fn fetch_top(
    scores: &ScoreTable,
    k: usize,
    fetch: impl FnOnce(&[usize]) -> Result<Vec<Vec<u8>>, ZsmilesError>,
) -> Result<Vec<Hit>, ZsmilesError> {
    let ranked = scores.top_k(k);
    let indices: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
    let fetched = fetch(&indices)?;
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
    use zsmiles_core::engine::AnyDictionary;
    use zsmiles_core::{DictBuilder, Dictionary};

    fn fixture() -> (Dataset, Pocket) {
        (Dataset::generate_mixed(400, 3), Pocket::from_seed(5))
    }

    /// `deck` packed in memory with `dict`.
    fn pack(dict: &Dictionary, deck: &[u8]) -> Archive {
        Archive::pack(AnyDictionary::Base(Box::new(dict.clone())), deck, 1)
    }

    /// A 300-line deck packed with a dictionary trained on it.
    fn setup() -> (Dataset, Archive) {
        let deck = Dataset::generate_mixed(300, 11);
        let dict = DictBuilder::default().train(deck.iter()).unwrap();
        let archive = pack(&dict, deck.as_bytes());
        (deck, archive)
    }

    #[test]
    fn archive_preserves_line_count_and_compresses() {
        let (deck, archive) = setup();
        assert_eq!(archive.len(), deck.len());
        let ratio = archive.stats().unwrap().ratio();
        assert!(ratio < 0.7, "ratio {ratio}");
        assert!(!archive.is_empty());
    }

    #[test]
    fn fetch_returns_the_right_molecule() {
        let (deck, archive) = setup();
        for i in [0usize, 1, 7, 150, 299] {
            let got = archive.get(i).unwrap();
            // Preprocessing renumbers ring IDs; compare molecules.
            assert_eq!(
                smiles::parser::parse(&got).unwrap().signature(),
                smiles::parser::parse(deck.line(i)).unwrap().signature(),
                "line {i}"
            );
        }
    }

    #[test]
    fn random_access_touches_only_the_requested_lines() {
        let (_, archive) = setup();
        let total: usize = archive.payload().len();
        let touched: usize = [3usize, 42, 260]
            .iter()
            .map(|&i| archive.compressed_line(i).unwrap().len())
            .sum();
        assert!(
            touched * 10 < total,
            "3 lines should be far less than the archive ({touched} vs {total})"
        );
    }

    #[test]
    fn batched_fetches_match_singles() {
        let (_, archive) = setup();
        let singles: Vec<Vec<u8>> = (40..60).map(|i| archive.get(i).unwrap()).collect();
        assert_eq!(archive.get_range(40..60).unwrap(), singles);
        let scattered = [7usize, 299, 0, 150, 150];
        let many = archive.get_many(&scattered).unwrap();
        for (&i, got) in scattered.iter().zip(&many) {
            assert_eq!(got, &archive.get(i).unwrap(), "index {i}");
        }
        assert!(archive.get_range(290..301).is_err());
        assert!(archive.get_many(&[300]).is_err());
    }

    #[test]
    fn empty_deck_builds_empty_archive() {
        let deck = Dataset::generate_mixed(50, 1);
        let dict = DictBuilder::default().train(deck.iter()).unwrap();
        let archive = pack(&dict, b"");
        assert!(archive.is_empty());
        assert_eq!(archive.len(), 0);
    }

    #[test]
    fn cold_archive_is_layout_blind() {
        let deck = Dataset::generate_mixed(300, 19);
        let dict = DictBuilder {
            preprocess: false,
            ..Default::default()
        }
        .train(deck.iter())
        .unwrap();
        let dir = std::env::temp_dir().join(format!("vscreen_cold_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // One deck, both layouts.
        let single_path = dir.join("deck.zsa");
        pack(&dict, deck.as_bytes()).save(&single_path).unwrap();
        let manifest_path = dir.join("deck.zsm");
        let mut w = zsmiles_core::ShardedWriter::create(
            &manifest_path,
            AnyDictionary::Base(Box::new(dict.clone())),
            zsmiles_core::ShardPolicy::by_lines(80),
            zsmiles_core::WriterOptions::default(),
        )
        .unwrap();
        w.write(deck.as_bytes()).unwrap();
        let info = w.finish().unwrap();
        assert_eq!(info.shards.len(), 4);

        let single = ShardedReader::open(&single_path).unwrap();
        let sharded = ShardedReader::open(&manifest_path).unwrap();
        assert_eq!(single.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(single.len(), sharded.len());
        for i in [0usize, 79, 80, 299] {
            assert_eq!(single.get(i).unwrap(), sharded.get(i).unwrap());
            assert_eq!(single.get(i).unwrap(), deck.line(i));
        }
        assert_eq!(
            single.get_range(70..90).unwrap(),
            sharded.get_range(70..90).unwrap()
        );
        single.verify().unwrap();
        sharded.verify().unwrap();

        // The hit-sampling workflow runs identically over either layout.
        let scores = screen(&deck, &Pocket::from_seed(3));
        let hot = top_hits(&pack(&dict, deck.as_bytes()), &scores, 7).unwrap();
        let a = top_hits_cold(&single, &scores, 7).unwrap();
        let b = top_hits_cold(&sharded, &scores, 7).unwrap();
        assert_eq!(a, hot);
        assert_eq!(b, hot);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn archive_survives_a_disk_round_trip_as_one_file() {
        let (deck, archive) = setup();
        let path = std::env::temp_dir().join(format!("vscreen_archive_{}.zsa", std::process::id()));
        archive.save(&path).unwrap();
        // Reopen with no dictionary or sidecar at hand: self-describing.
        let reopened = Archive::open(&path).unwrap();
        assert_eq!(reopened.len(), deck.len());
        let got = reopened.get(42).unwrap();
        assert_eq!(
            smiles::parser::parse(&got).unwrap().signature(),
            smiles::parser::parse(deck.line(42)).unwrap().signature()
        );
        std::fs::remove_file(&path).ok();
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
        let archive = pack(&dict, deck.as_bytes());
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
        let archive = pack(&dict, deck.as_bytes());
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
