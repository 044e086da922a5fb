//! `.dct` dictionaries and compressed payload bytes as untrusted input:
//! a seeded mutation fuzz of `AnyDictionary::read`, the one dictionary
//! entry point, over the shipped `default.dct` and a trained base and
//! wide dictionary, and random payload lines fed to
//! `AnyDictionary::decompress_line` on both flavours.
//!
//! Each mutant must parse or fail with a typed error, never panic. Every
//! dictionary that parses must write, re-read and re-write to identical
//! bytes, and must round-trip a seeded 200-line deck to its preprocessed
//! lines. A payload line that does not decode must leave the output
//! buffer exactly as it was.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use molgen::Dataset;
use proptest::test_runner::TestRng;
use zsmiles_core::engine::PreprocessStage;
use zsmiles_core::{AnyDictionary, DictBuilder, WideDictBuilder};

/// The seeded deck every accepted dictionary must round-trip.
fn deck() -> Dataset {
    Dataset::generate_mixed(200, 0xD1C7)
}

fn serialize(dict: &AnyDictionary) -> Vec<u8> {
    let mut bytes = Vec::new();
    dict.write(&mut bytes).unwrap();
    bytes
}

/// The shipped dictionary's file, and a base and a wide dictionary
/// trained on a seeded deck, serialized (trained once per process).
fn inputs() -> &'static [(&'static str, Vec<u8>); 3] {
    static INPUTS: OnceLock<[(&str, Vec<u8>); 3]> = OnceLock::new();
    INPUTS.get_or_init(train_inputs)
}

fn train_inputs() -> [(&'static str, Vec<u8>); 3] {
    let default = std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/zsmiles-core/assets/default.dct"),
    )
    .unwrap();
    let corpus = Dataset::generate_mixed(400, 0x7EA1);
    let base = DictBuilder::default().train(corpus.iter()).unwrap();
    let wide = WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 48,
    }
    .train(corpus.iter())
    .unwrap();
    [
        ("default.dct", default),
        (
            "trained base",
            serialize(&AnyDictionary::Base(Box::new(base))),
        ),
        (
            "trained wide",
            serialize(&AnyDictionary::Wide(Box::new(wide))),
        ),
    ]
}

/// Seeded byte mutations of one file: truncation at every offset, then
/// bit flips, inserted and deleted bytes at random offsets.
fn mutants(raw: &[u8], seed: u64, random: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = TestRng::from_seed(seed);
    let mut out = Vec::new();
    for cut in 0..raw.len() {
        out.push((format!("truncate at {cut}"), raw[..cut].to_vec()));
    }
    for _ in 0..random {
        let at = rng.below(raw.len() as u64) as usize;
        let mut m = raw.to_vec();
        let bit = rng.below(8);
        m[at] ^= 1 << bit;
        out.push((format!("flip bit {bit} of byte {at}"), m));

        let mut m = raw.to_vec();
        let b = rng.below(256) as u8;
        m.insert(at, b);
        out.push((format!("insert {b:#04x} at {at}"), m));

        let mut m = raw.to_vec();
        m.remove(at);
        out.push((format!("delete byte {at}"), m));
    }
    out
}

/// Parse one mutant: no panic; an accepted dictionary writes, re-reads
/// and re-writes to the same bytes, and round-trips every deck line to
/// the line as its own preprocessing renders it.
fn check_mutant(what: &str, m: &[u8], deck: &Dataset) -> bool {
    let parsed =
        catch_unwind(|| AnyDictionary::read(m)).unwrap_or_else(|_| panic!("{what}: read panicked"));
    let Ok(dict) = parsed else {
        return false;
    };
    let written = serialize(&dict);
    let again = AnyDictionary::read(&written)
        .unwrap_or_else(|e| panic!("{what}: re-reading the written dictionary failed: {e}"));
    assert_eq!(again.flavor(), dict.flavor(), "{what}: flavour");
    assert_eq!(serialize(&again), written, "{what}: re-write differs");

    let round_trip = catch_unwind(AssertUnwindSafe(|| {
        let mut enc = dict.encoder();
        let mut pp = PreprocessStage::new(dict.preprocessed());
        let (mut z, mut back) = (Vec::new(), Vec::new());
        for (i, line) in deck.iter().enumerate() {
            z.clear();
            back.clear();
            enc.compress_line(line, &mut z);
            dict.decompress_line(&z, &mut back)
                .unwrap_or_else(|e| panic!("{what}: line {i} does not decode: {e}"));
            assert_eq!(back, pp.apply(line).0, "{what}: line {i}");
        }
    }));
    if round_trip.is_err() {
        panic!("{what}: the deck round trip failed");
    }
    true
}

fn fuzz_input(k: usize) {
    let deck = deck();
    let (name, raw) = &inputs()[k];
    assert!(check_mutant(name, raw, &deck), "{name}: the original reads");
    let (mut accepted, mut cases) = (0, 0);
    for (what, m) in mutants(raw, 0xDC7 + k as u64, 300) {
        cases += 1;
        accepted += check_mutant(&format!("{name}: {what}"), &m, &deck) as usize;
    }
    // The fuzz reaches past the parser: some mutants parse, not all.
    assert!(
        0 < accepted && accepted < cases,
        "{name}: {accepted} of {cases} accepted"
    );
}

#[test]
fn mutated_default_dictionary_errors_or_round_trips_the_deck() {
    fuzz_input(0);
}

#[test]
fn mutated_trained_base_dictionary_errors_or_round_trips_the_deck() {
    fuzz_input(1);
}

#[test]
fn mutated_trained_wide_dictionary_errors_or_round_trips_the_deck() {
    fuzz_input(2);
}

/// Random payload lines through the single-line decoder of both
/// flavours: never a panic, and an error leaves `out` untouched. The
/// bytes lean on what the decoders branch on: the escape and the wide
/// page prefixes.
#[test]
fn arbitrary_payload_lines_decode_or_leave_the_output_untouched() {
    let [(_, default), _, (_, wide)] = inputs();
    let mut rng = TestRng::from_seed(0xDEC0DE);
    for raw in [default, wide] {
        let dict = AnyDictionary::read(raw).unwrap();
        let (mut ok, mut err) = (0, 0);
        for _ in 0..20_000 {
            let len = rng.below(48) as usize;
            let line: Vec<u8> = (0..len)
                .map(|_| match rng.below(8) {
                    0 => b' ',
                    1 => 0xF8 + rng.below(8) as u8,
                    _ => rng.below(256) as u8,
                })
                .filter(|&b| b != b'\n')
                .collect();
            let mut out = b"kept".to_vec();
            let r = catch_unwind(AssertUnwindSafe(|| dict.decompress_line(&line, &mut out)))
                .unwrap_or_else(|_| panic!("decompress_line panicked on {line:?}"));
            match r {
                Ok(n) => {
                    assert_eq!(out.len(), 4 + n, "{line:?}: reported length");
                    ok += 1;
                }
                Err(_) => {
                    assert_eq!(out, b"kept", "{line:?}: partial write on error");
                    err += 1;
                }
            }
        }
        assert!(
            ok > 0 && err > 0,
            "{:?}: {ok} decoded, {err} refused",
            dict.flavor()
        );
    }
}
