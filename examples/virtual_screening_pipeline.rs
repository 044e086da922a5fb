//! The paper's motivating workflow (§I): an extreme-scale virtual
//! screening campaign stores its chemical library and its scored output in
//! compressed form, then domain experts *sample* the archive — pulling a
//! handful of top hits out of terabytes — without decompressing the rest.
//!
//! This example runs the whole loop at laptop scale on the `vscreen`
//! substrate:
//! 1. generate a screening deck,
//! 2. screen it against two targets in parallel (deterministic surrogate
//!    scorer — ligand-pocket pairs are independent, the paper's
//!    embarrassing parallelism),
//! 3. archive the deck compressed with a shared dictionary + line index,
//! 4. persist the score tables as readable TSV,
//! 5. random-access exactly the top-k lines per target from the archive.
//!
//! ```text
//! cargo run --release --example virtual_screening_pipeline
//! ```

use molgen::Dataset;
use vscreen::{ro5_filter, screen_parallel, top_hits, Pocket, ScoreTable, StorageModel};
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{Archive, DictBuilder};

fn main() {
    const DECK: usize = 20_000;
    const TOP_K: usize = 10;

    // 1. The chemical library, gated by the standard drug-likeness filter
    //    (campaigns curate before they store).
    let raw = Dataset::generate_mixed(DECK, 7);
    let kept = ro5_filter(&raw);
    let mut deck = Dataset::new();
    for &i in &kept {
        deck.push(raw.line(i));
    }
    println!(
        "library: {} of {} ligands pass Lipinski Ro5, {} bytes",
        deck.len(),
        raw.len(),
        deck.total_bytes()
    );

    // 2. Screen against two different targets (polypharmacology: the paper
    //    notes campaigns evaluate compounds against multiple proteins).
    let targets = [Pocket::from_seed(0xD0C5EED), Pocket::from_seed(0xBEEF)];
    let tables: Vec<ScoreTable> = targets
        .iter()
        .map(|pocket| screen_parallel(&deck, pocket, 4))
        .collect();

    // 3. Cold-storage archive: shared dictionary + compressed deck + index.
    let dict = DictBuilder::default().train(deck.iter()).expect("train");
    let archive = Archive::pack(AnyDictionary::Base(Box::new(dict)), deck.as_bytes(), 1);
    let ratio = archive.stats().expect("packed in this process").ratio();
    let storage = StorageModel::MARCONI100;
    println!(
        "archive: ratio {:.3} — a {:.0} TB campaign would shrink to {:.1} TB ({:.1} TB saved)",
        ratio,
        storage.raw_tb,
        storage.compressed_tb(ratio),
        storage.saved_tb(ratio),
    );

    // 4. Scored output as a readable side table (the campaign's product).
    let mut tsv = Vec::new();
    tables[0].write_tsv(&mut tsv).expect("serialize scores");
    let reloaded = ScoreTable::read_tsv(&tsv[..]).expect("reload scores");
    assert_eq!(&reloaded, &tables[0], "score table round-trips exactly");
    println!(
        "score table: {} rows, {} bytes TSV, mean score {:.2}",
        reloaded.len(),
        tsv.len(),
        reloaded.mean()
    );

    // 5. Per-target hit retrieval — k random-access reads each.
    for (t, (pocket, table)) in targets.iter().zip(&tables).enumerate() {
        println!(
            "\ntarget {t} (seed {:#x}) — top {TOP_K} hits:",
            pocket.seed()
        );
        let hits = top_hits(&archive, table, TOP_K).expect("fetch hits");
        let mut bytes_touched = 0usize;
        for hit in &hits {
            bytes_touched += archive.compressed_line(hit.index).expect("hit line").len();
            smiles::validate::full_check(&hit.smiles).expect("hit is valid SMILES");
            println!(
                "  #{:>6}  score {:7.2}  {}",
                hit.index,
                hit.score,
                String::from_utf8_lossy(&hit.smiles)
            );
        }
        println!(
            "  bytes read: {} of {} ({:.4}% of the archive) — the random-access \
             property the paper designs for",
            bytes_touched,
            archive.payload().len(),
            bytes_touched as f64 / archive.payload().len() as f64 * 100.0
        );
    }
}
