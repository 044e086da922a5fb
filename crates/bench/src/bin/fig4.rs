//! **Figure 4** — compression-ratio comparison on the MIXED dataset:
//! ZSMILES vs SHOCO vs FSST (short-string, random-access tools) vs Bzip2
//! (file-based) vs ZSMILES + Bzip2.
//!
//! Like the paper, every tool gets to adapt to the test input (FSST builds
//! its table per input, so ZSMILES trains its dictionary on the same data
//! to keep the comparison fair), and ZSMILES is the only codec whose
//! output stays readable and line-separable.

use bench::{bar, emit_datum, Decks, ExpConfig};
use textcomp::{bzip, fsst::Fsst, line_codec_ratio, shoco::ShocoModel, smaz::Smaz, LineCodec};
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{Compressor, DictBuilder, WideDictBuilder};

fn main() {
    let cfg = ExpConfig::from_args();
    let decks = Decks::generate(&cfg);
    let input = decks.mixed.as_bytes();
    let payload = decks.mixed.payload_bytes();

    println!(
        "Figure 4: compression ratios on MIXED ({} lines, {} payload bytes)\n",
        decks.mixed.len(),
        payload
    );

    // --- ZSMILES: dictionary trained on the same input (FSST-fair), then
    //     driven through the exact per-line interface (LineCodec) the
    //     other short-string tools use, dictionary bytes charged the way
    //     FSST's symbol table is. Both flavours go through AnyDictionary's
    //     LineCodec impl -- the harness never matches on the flavour.
    let dict = DictBuilder::default()
        .train(decks.mixed.iter())
        .expect("train");
    let zcodec = AnyDictionary::Base(Box::new(dict.clone()));
    let (z_out, z_in) = line_codec_ratio(&zcodec, input);
    let zsmiles_charged_ratio = z_out as f64 / z_in as f64;
    let mut zout = Vec::with_capacity(payload / 2);
    let zstats = Compressor::new(&dict).compress_buffer(input, &mut zout);
    let zsmiles_ratio = zstats.ratio();

    // --- ZSMILES wide codes, same LineCodec interface. --------------------
    let wide_dict = WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 512,
    }
    .train(decks.mixed.iter())
    .expect("train wide");
    let wcodec = AnyDictionary::Wide(Box::new(wide_dict));
    let (w_out, w_in) = line_codec_ratio(&wcodec, input);
    let zsmiles_wide_ratio = w_out as f64 / w_in as f64;

    // --- SHOCO: model trained on the input. ------------------------------
    let shoco = ShocoModel::train(input);
    let (s_out, s_in) = line_codec_ratio(&shoco, input);
    let shoco_ratio = s_out as f64 / s_in as f64;

    // --- FSST: per-input symbol table. ------------------------------------
    let fsst = Fsst::train(input);
    let (f_out, f_in) = line_codec_ratio(&fsst, input);
    let fsst_ratio = f_out as f64 / f_in as f64;

    // --- Bzip2-like: whole-file, stateful. --------------------------------
    let bz = bzip::compress(input);
    let bzip_ratio = bz.len() as f64 / input.len() as f64;

    // --- LZ77+Huffman (deflate-like): the other general-purpose family
    //     the paper's related work names. Extension row, not in Fig. 4.
    let lz = textcomp::lz::compress(input);
    let lz_ratio = lz.len() as f64 / input.len() as f64;

    // --- SMAZ: the third short-string tool the related work names.
    //     Both flavours are extension rows: the static English codebook
    //     (why the paper dismisses it) and a SMILES-trained one (fair).
    let smaz_classic = Smaz::classic();
    let (sc_out, sc_in) = line_codec_ratio(&smaz_classic, input);
    let smaz_classic_ratio = sc_out as f64 / sc_in as f64;
    let smaz_trained = Smaz::train(input);
    let (st_out, st_in) = line_codec_ratio(&smaz_trained, input);
    let smaz_trained_ratio = st_out as f64 / st_in as f64;

    // --- ZSMILES + Bzip2: archive the readable output. --------------------
    let bz_of_z = bzip::compress(&zout);
    let combo_ratio = bz_of_z.len() as f64 / input.len() as f64;

    let rows: [(&str, f64, &str); 10] = [
        (
            "ZSMILES",
            zsmiles_ratio,
            "short-string, readable, random access",
        ),
        (
            "ZSMILES+dict",
            zsmiles_charged_ratio,
            "same, dictionary bytes charged (FSST-fair)",
        ),
        (
            "ZSMILES-wide",
            zsmiles_wide_ratio,
            "two-byte codes, dictionary charged (extension row)",
        ),
        ("SHOCO", shoco_ratio, "short-string"),
        ("FSST", fsst_ratio, "short-string, random access"),
        ("Bzip2", bzip_ratio, "file-based, stateful"),
        (
            "ZSMILES+Bzip2",
            combo_ratio,
            "file-based archive of ZSMILES output",
        ),
        (
            "LZ77+Huffman",
            lz_ratio,
            "file-based, stateful (extension row)",
        ),
        (
            "SMAZ-classic",
            smaz_classic_ratio,
            "short-string, English codebook (extension row)",
        ),
        (
            "SMAZ-trained",
            smaz_trained_ratio,
            "short-string, trained codebook (extension row)",
        ),
    ];
    for (name, ratio, class) in rows {
        println!("{name:>14}  {:.3}  |{}|  {class}", ratio, bar(ratio, 40));
        emit_datum("fig4", name, ratio);
    }

    println!();
    let improvement = fsst_ratio / zsmiles_ratio;
    println!(
        "ZSMILES vs FSST: ×{improvement:.2} better ratio (paper: ×1.13 over state of \
         the art in similar scenarios)"
    );
    println!(
        "ordering check: Bzip2 ({bzip_ratio:.3}) best single tool: {}; \
         ZSMILES+Bzip2 ({combo_ratio:.3}) best overall: {}",
        bzip_ratio < zsmiles_ratio && bzip_ratio < fsst_ratio && bzip_ratio < shoco_ratio,
        combo_ratio <= bzip_ratio
    );
    println!(
        "random-access tools: ZSMILES ({zsmiles_ratio:.3}) < FSST ({fsst_ratio:.3}) < \
         SHOCO ({shoco_ratio:.3}): {}",
        zsmiles_ratio < fsst_ratio && fsst_ratio < shoco_ratio
    );

    // Round-trip sanity for every codec while we're here.
    verify_roundtrips(&decks, &dict, &shoco, &fsst, &bz, input);
    println!("round-trips verified for all five configurations");
}

fn verify_roundtrips(
    decks: &Decks,
    dict: &zsmiles_core::Dictionary,
    shoco: &ShocoModel,
    fsst: &Fsst,
    bz: &[u8],
    input: &[u8],
) {
    // ZSMILES round trip (preprocessed form re-parses to same molecules),
    // driven through the same dyn interface as the baselines.
    let line = decks.mixed.line(0);
    let zcodec = AnyDictionary::Base(Box::new(dict.clone()));
    let mut z = Vec::new();
    (&zcodec as &dyn LineCodec).compress_line(line, &mut z);
    let mut back = Vec::new();
    (&zcodec as &dyn LineCodec)
        .decompress_line(&z, &mut back)
        .unwrap();
    assert_eq!(
        smiles::parser::parse(line).unwrap().signature(),
        smiles::parser::parse(&back).unwrap().signature()
    );
    // SHOCO / FSST exact line round trips.
    for codec in [shoco as &dyn LineCodec, fsst as &dyn LineCodec] {
        let mut zz = Vec::new();
        codec.compress_line(line, &mut zz);
        let mut bb = Vec::new();
        codec.decompress_line(&zz, &mut bb).unwrap();
        assert_eq!(bb, line, "{}", codec.name());
    }
    // Bzip2 exact file round trip.
    assert_eq!(bzip::decompress(bz).unwrap(), input);
    // LZ77 exact file round trip.
    let lz = textcomp::lz::compress(input);
    assert_eq!(textcomp::lz::decompress(&lz).unwrap(), input);
}
