//! Cross-crate integration: the full generate → train → compress →
//! random-access → decompress → validate loop, plus the system-level
//! invariants the paper's design promises.

use molgen::{profiles, Dataset};
use zsmiles_core::dict::format as dict_format;
use zsmiles_core::{
    compress_parallel, Compressor, Decompressor, DictBuilder, LineIndex, SpAlgorithm,
};

fn deck() -> Dataset {
    Dataset::generate_mixed(1_500, 0xE2E)
}

#[test]
fn full_pipeline_preserves_molecules() {
    let ds = deck();
    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let mut z = Vec::new();
    let stats = Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);
    assert_eq!(stats.lines, ds.len());
    assert!(
        stats.ratio() < 0.6,
        "compression actually happens: {}",
        stats.ratio()
    );

    let mut back = Vec::new();
    Decompressor::new(&dict)
        .decompress_buffer(&z, &mut back)
        .unwrap();
    let restored = Dataset::from_bytes(&back);
    assert_eq!(restored.len(), ds.len());
    for (orig, rest) in ds.iter().zip(restored.iter()) {
        let a = smiles::parser::parse(orig).unwrap();
        let b = smiles::parser::parse(rest).unwrap();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.atom_count(), b.atom_count());
        assert_eq!(a.ring_count(), b.ring_count());
    }
}

#[test]
fn compressed_output_is_readable_and_separable() {
    let ds = deck();
    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let mut z = Vec::new();
    Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);

    // Readability: every byte is displayable (printable ASCII, space as
    // the escape marker, extended bytes) or the line separator.
    for &b in &z {
        assert!(
            b == b'\n' || b == b' ' || (0x21..=0x7E).contains(&b) || b >= 0x80,
            "byte {b:#04x} breaks the readability requirement"
        );
    }

    // Separability: same line count, and each compressed line decompresses
    // alone to its own molecule.
    let lines: Vec<&[u8]> = z.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), ds.len());
    let mut dc = Decompressor::new(&dict);
    for (i, zl) in lines.iter().enumerate().step_by(97) {
        let mut one = Vec::new();
        dc.decompress_line(zl, &mut one).unwrap();
        let a = smiles::parser::parse(ds.line(i)).unwrap();
        let b = smiles::parser::parse(&one).unwrap();
        assert_eq!(a.signature(), b.signature(), "line {i}");
    }
}

#[test]
fn shared_dictionary_compresses_foreign_datasets() {
    // Input-independence: one dictionary serves datasets it never saw,
    // never expanding compliant SMILES.
    let train = Dataset::generate_mixed(1_000, 1);
    let dict = DictBuilder::default().train(train.iter()).unwrap();
    for (name, ds) in [
        ("gdb17", Dataset::generate(profiles::GDB17, 500, 999)),
        ("mediate", Dataset::generate(profiles::MEDIATE, 500, 998)),
        (
            "exscalate",
            Dataset::generate(profiles::EXSCALATE, 500, 997),
        ),
    ] {
        let mut z = Vec::new();
        let stats = Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);
        assert!(
            stats.out_bytes <= stats.in_bytes,
            "{name}: no-expansion guarantee violated ({} > {})",
            stats.out_bytes,
            stats.in_bytes
        );
        let mut back = Vec::new();
        Decompressor::new(&dict)
            .decompress_buffer(&z, &mut back)
            .unwrap();
        assert_eq!(Dataset::from_bytes(&back).len(), ds.len(), "{name}");
    }
}

#[test]
fn dictionary_file_round_trip_preserves_compression() {
    // An archive written with a dictionary must decompress with the
    // dictionary re-loaded from its .dct file (shareability).
    let ds = deck();
    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let text = dict_format::to_string(&dict);
    let reloaded = dict_format::read_dict(text.as_bytes()).unwrap();

    let mut z1 = Vec::new();
    Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z1);
    let mut z2 = Vec::new();
    Compressor::new(&reloaded).compress_buffer(ds.as_bytes(), &mut z2);
    assert_eq!(z1, z2, "reloaded dictionary compresses identically");

    let mut back = Vec::new();
    Decompressor::new(&reloaded)
        .decompress_buffer(&z1, &mut back)
        .unwrap();
    assert!(!back.is_empty());
}

#[test]
fn serial_parallel_and_gpu_agree() {
    let ds = deck();
    let dict = DictBuilder::default().train(ds.iter()).unwrap();

    let mut serial = Vec::new();
    Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut serial);
    let (par, _) = compress_parallel(&dict, ds.as_bytes(), SpAlgorithm::BackwardDp, 4);
    assert_eq!(serial, par, "parallel == serial");

    let gpu = zsmiles_gpu::compress(&dict, ds.as_bytes(), &zsmiles_gpu::GpuOptions::default());
    assert_eq!(serial, gpu.output, "simulated device == serial");

    // Dijkstra engine agrees as well.
    let mut dijkstra = Vec::new();
    Compressor::new(&dict)
        .with_algorithm(SpAlgorithm::Dijkstra)
        .compress_buffer(ds.as_bytes(), &mut dijkstra);
    assert_eq!(serial, dijkstra, "dijkstra == dp");
}

#[test]
fn random_access_index_survives_serialization() {
    let ds = deck();
    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let mut z = Vec::new();
    Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);

    let idx = LineIndex::build(&z);
    let mut blob = Vec::new();
    idx.write_to(&mut blob).unwrap();
    let idx2 = LineIndex::read_from(blob.as_slice()).unwrap();

    for i in [0usize, 7, 500, ds.len() - 1] {
        let line = idx2.decompress_line_at(&dict, &z, i).unwrap();
        let a = smiles::parser::parse(ds.line(i)).unwrap();
        let b = smiles::parser::parse(&line).unwrap();
        assert_eq!(a.signature(), b.signature(), "line {i}");
    }
}

#[test]
fn cli_pack_get_unpack_single_file_workflow() {
    // The container workflow end to end through the CLI code paths the
    // binary runs: gen → train → pack → get --archive → unpack, with the
    // .zsa file as the only artifact carried between steps.
    let tmp = |name: &str| {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    };
    let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let smi = tmp("e2e_container.smi");
    let dct = tmp("e2e_container.dct");
    let zsa = tmp("e2e_container.zsa");
    let back = tmp("e2e_container_back.smi");

    zsmiles_cli::run(&argv(&[
        "gen",
        "--profile",
        "mixed",
        "-n",
        "400",
        "--seed",
        "77",
        "-o",
        &smi,
        "--quiet",
    ]))
    .unwrap();
    zsmiles_cli::run(&argv(&[
        "train",
        "-i",
        &smi,
        "-o",
        &dct,
        "--no-preprocess",
        "--quiet",
    ]))
    .unwrap();
    zsmiles_cli::run(&argv(&[
        "pack",
        "-i",
        &smi,
        "-d",
        &dct,
        "-o",
        &zsa,
        "--threads",
        "2",
        "--quiet",
    ]))
    .unwrap();

    // The archive alone answers random-access queries (K arbitrary).
    zsmiles_cli::run(&argv(&["get", "--archive", &zsa, "--line", "123"])).unwrap();

    // And unpacks byte-identically (preprocess off at train time).
    zsmiles_cli::run(&argv(&["unpack", "-i", &zsa, "-o", &back, "--quiet"])).unwrap();
    assert_eq!(std::fs::read(&smi).unwrap(), std::fs::read(&back).unwrap());

    // Library-level agreement: the same .zsa opened via the API returns
    // the same line the CLI printed.
    let archive = zsmiles_core::Archive::open(std::path::Path::new(&zsa)).unwrap();
    let original = Dataset::load(std::path::Path::new(&smi)).unwrap();
    assert_eq!(archive.len(), original.len());
    assert_eq!(archive.get(123).unwrap(), original.line(123));

    for f in [&smi, &dct, &zsa, &back] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn archives_cut_and_combine() {
    // The separability/shared-dictionary workflow: slice two archives,
    // splice them, decompress the splice.
    let a = Dataset::generate(profiles::MEDIATE, 400, 5);
    let b = Dataset::generate(profiles::EXSCALATE, 400, 6);
    let reference = Dataset::generate_mixed(800, 7);
    let dict = DictBuilder::default().train(reference.iter()).unwrap();

    let mut za = Vec::new();
    Compressor::new(&dict).compress_buffer(a.as_bytes(), &mut za);
    let mut zb = Vec::new();
    Compressor::new(&dict).compress_buffer(b.as_bytes(), &mut zb);

    let ia = LineIndex::build(&za);
    let mut spliced = Vec::new();
    for i in (0..ia.len()).step_by(3) {
        spliced.extend_from_slice(ia.line(&za, i));
        spliced.push(b'\n');
    }
    spliced.extend_from_slice(&zb);

    let mut restored = Vec::new();
    Decompressor::new(&dict)
        .decompress_buffer(&spliced, &mut restored)
        .unwrap();
    let ds = Dataset::from_bytes(&restored);
    assert_eq!(ds.len(), ia.len().div_ceil(3) + b.len());
    for line in ds.iter() {
        smiles::validate::full_check(line).unwrap();
    }
}

/// Output bytes of the shipped dictionary (ring-ID preprocessing on) over
/// a fixed generated deck, pinned so that changes to preprocessing or
/// encoding cannot shift a single archived byte unnoticed.
#[test]
fn builtin_dictionary_output_is_pinned() {
    let ds = Dataset::generate_mixed(20_000, 7);
    let dict = zsmiles_core::Dictionary::builtin();
    assert!(dict.preprocessed());
    let mut z = Vec::new();
    let stats = Compressor::new(dict).compress_buffer(ds.as_bytes(), &mut z);
    assert_eq!(stats.lines, 20_000);
    assert_eq!(stats.preprocess_failures, 0);
    assert_eq!(stats.out_bytes, 391_893);
    assert_eq!(z.len(), 391_893 + 20_000, "one newline per line");
    assert_eq!(textcomp::crc32::crc32(&z), 0x7509_ba45);
}
