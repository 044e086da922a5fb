//! Cross-crate integration for the extension systems: the wide-code
//! dictionary, the SMAZ baseline, and the vscreen campaign substrate —
//! each exercised against the same generated decks as the paper-faithful
//! core, so their interplay (shared dictionaries, archives, random access)
//! is tested at the system level.

use molgen::Dataset;
use textcomp::{line_codec_ratio, smaz::Smaz};
use vscreen::{screen, screen_parallel, top_hits, Pocket, StorageModel};
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{
    Archive, Compressor, DictBuilder, WideCompressor, WideDecompressor, WideDictBuilder,
};

fn deck() -> Dataset {
    Dataset::generate_mixed(1_200, 0xE87)
}

#[test]
fn wide_dictionary_beats_base_on_a_real_deck() {
    let ds = deck();
    let base = DictBuilder::default().train(ds.iter()).unwrap();
    let wide = WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 512,
    }
    .train(ds.iter())
    .unwrap();
    assert!(
        wide.wide_len() > 100,
        "deck is diverse enough to spill wide"
    );

    let mut zb = Vec::new();
    let sb = Compressor::new(&base).compress_buffer(ds.as_bytes(), &mut zb);
    let mut zw = Vec::new();
    let sw = WideCompressor::new(&wide).compress_buffer(ds.as_bytes(), &mut zw);
    assert!(
        sw.ratio() < sb.ratio(),
        "512 extra codes should win: wide {} vs base {}",
        sw.ratio(),
        sb.ratio()
    );

    // And the wide archive still round-trips molecule-for-molecule.
    let mut back = Vec::new();
    WideDecompressor::new(&wide)
        .decompress_buffer(&zw, &mut back)
        .unwrap();
    let restored = Dataset::from_bytes(&back);
    assert_eq!(restored.len(), ds.len());
    for (a, b) in ds.iter().zip(restored.iter()).step_by(83) {
        assert_eq!(
            smiles::parser::parse(a).unwrap().signature(),
            smiles::parser::parse(b).unwrap().signature()
        );
    }
}

#[test]
fn wide_output_remains_readable_and_separable() {
    let ds = deck();
    let wide = WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 256,
    }
    .train(ds.iter())
    .unwrap();
    let mut z = Vec::new();
    WideCompressor::new(&wide).compress_buffer(ds.as_bytes(), &mut z);
    for &b in &z {
        assert!(
            b == b'\n' || b == b' ' || (0x21..=0x7E).contains(&b) || b >= 0x80,
            "byte {b:#04x} breaks readability"
        );
    }
    assert_eq!(
        z.iter().filter(|&&b| b == b'\n').count(),
        ds.len(),
        "line separability preserved"
    );
}

#[test]
fn smaz_ranks_where_the_paper_puts_codebook_tools() {
    // On a SMILES deck: ZSMILES (trained, domain-aware) < SMAZ-trained <
    // SMAZ-classic. The static English codebook barely compresses — the
    // reason the paper's related work passes over it.
    let ds = deck();
    let input = ds.as_bytes();

    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let mut z = Vec::new();
    let zstats = Compressor::new(&dict).compress_buffer(input, &mut z);

    let trained = Smaz::train(input);
    let (t_out, t_in) = line_codec_ratio(&trained, input);
    let trained_ratio = t_out as f64 / t_in as f64;

    let classic = Smaz::classic();
    let (c_out, c_in) = line_codec_ratio(&classic, input);
    let classic_ratio = c_out as f64 / c_in as f64;

    assert!(
        zstats.ratio() < trained_ratio,
        "ZSMILES {} < SMAZ-trained {}",
        zstats.ratio(),
        trained_ratio
    );
    assert!(
        trained_ratio < classic_ratio,
        "SMAZ-trained {trained_ratio} < SMAZ-classic {classic_ratio}"
    );
    assert!(
        classic_ratio > 0.8,
        "English codebook is near-useless on SMILES"
    );
}

#[test]
fn campaign_on_a_wide_archive_equivalent() {
    // The vscreen flow works regardless of which dictionary compressed the
    // archive: scores come from the deck, retrieval from the archive.
    let ds = deck();
    let pocket = Pocket::from_seed(0xCAFE);
    let scores = screen_parallel(&ds, &pocket, 3);
    assert_eq!(scores, screen(&ds, &pocket));

    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let archive = Archive::pack(AnyDictionary::Base(Box::new(dict)), ds.as_bytes(), 1);
    let hits = top_hits(&archive, &scores, 25).unwrap();
    assert_eq!(hits.len(), 25);

    // Every hit's SMILES is the molecule the scorer saw.
    for h in &hits {
        let from_deck = smiles::parser::parse(ds.line(h.index)).unwrap();
        let from_archive = smiles::parser::parse(&h.smiles).unwrap();
        assert_eq!(from_deck.signature(), from_archive.signature());
        assert_eq!(h.score, vscreen::score_line(ds.line(h.index), &pocket));
        assert_eq!(h.score, vscreen::score_line(&h.smiles, &pocket));
    }

    // Storage arithmetic is consistent with the measured ratio.
    let m = StorageModel::MARCONI100;
    let ratio = archive.stats().unwrap().ratio();
    let saved = m.saved_tb(ratio);
    assert!(saved > 0.0 && saved < m.raw_tb);
    assert!((m.compressed_tb(ratio) + saved - m.raw_tb).abs() < 1e-9);
}

#[test]
fn wide_and_base_archives_interoperate_per_line() {
    // Cut-and-combine still works when decks were compressed with
    // *different* dictionaries, as long as each line is decoded with its
    // own — the per-line separability the format guarantees.
    let ds = deck();
    let base = DictBuilder::default().train(ds.iter()).unwrap();
    let wide = WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 128,
    }
    .train(ds.iter())
    .unwrap();

    let mut zb = Vec::new();
    Compressor::new(&base).compress_buffer(ds.as_bytes(), &mut zb);
    let mut zw = Vec::new();
    WideCompressor::new(&wide).compress_buffer(ds.as_bytes(), &mut zw);

    let ib = zsmiles_core::LineIndex::build(&zb);
    let iw = zsmiles_core::LineIndex::build(&zw);
    let dec_b = zsmiles_core::Decompressor::new(&base);
    let dec_w = WideDecompressor::new(&wide);
    let mut dec_b = dec_b;
    for i in (0..ds.len()).step_by(131) {
        let mut a = Vec::new();
        dec_b.decompress_line(ib.line(&zb, i), &mut a).unwrap();
        let mut b = Vec::new();
        dec_w.decompress_line(iw.line(&zw, i), &mut b).unwrap();
        assert_eq!(a, b, "line {i}: both stacks restore the same bytes");
    }
}
