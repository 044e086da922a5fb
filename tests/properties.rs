//! Property-based tests over the whole stack: invariants that must hold
//! for *arbitrary* inputs, not just the fixtures unit tests use.

use proptest::prelude::*;
use zsmiles_core::{Compressor, Decompressor, DictBuilder, Dictionary, Prepopulation};

/// An arbitrary "line": any bytes except newline. The compressor must
/// round-trip garbage too (real decks contain header lines, names, typos).
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        any::<u8>().prop_filter("no newline", |&b| b != b'\n'),
        0..200,
    )
}

/// An arbitrary SMILES-ish line over the SMILES alphabet (higher pattern
/// hit rate than raw bytes).
fn arb_smilesish() -> impl Strategy<Value = Vec<u8>> {
    let alphabet = smiles::alphabet::SMILES_ALPHABET;
    proptest::collection::vec(0..alphabet.len(), 0..120)
        .prop_map(move |idxs| idxs.into_iter().map(|i| alphabet[i]).collect())
}

fn test_dict() -> Dictionary {
    let corpus: Vec<&[u8]> = [
        b"COc1cc(C=O)ccc1O".as_slice(),
        b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
        b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
        b"CCN(CC)CC",
        b"c1ccc2ccccc2c1",
    ]
    .repeat(10);
    DictBuilder {
        min_count: 2,
        preprocess: false,
        ..Default::default()
    }
    .train(corpus)
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compression followed by decompression is the identity on arbitrary
    /// bytes (no preprocessing).
    #[test]
    fn compress_roundtrip_arbitrary_bytes(line in arb_line()) {
        let dict = test_dict();
        let mut c = Compressor::new(&dict);
        let mut z = Vec::new();
        c.compress_line(&line, &mut z);
        let mut back = Vec::new();
        Decompressor::new(&dict).decompress_line(&z, &mut back).unwrap();
        prop_assert_eq!(back, line);
    }

    /// The no-expansion guarantee: lines over the SMILES alphabet never
    /// grow under a SMILES-alphabet-prepopulated dictionary.
    #[test]
    fn no_expansion_on_alphabet_lines(line in arb_smilesish()) {
        let dict = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let mut c = Compressor::new(&dict).with_preprocess(false);
        let mut z = Vec::new();
        let (n, _) = c.compress_line(&line, &mut z);
        prop_assert!(n <= line.len());
    }

    /// Compressed output never contains a newline (separability) and never
    /// contains control bytes other than via escapes (readability).
    #[test]
    fn output_stays_displayable(line in arb_smilesish()) {
        let dict = test_dict();
        let mut c = Compressor::new(&dict);
        let mut z = Vec::new();
        c.compress_line(&line, &mut z);
        let mut i = 0;
        while i < z.len() {
            let b = z[i];
            prop_assert_ne!(b, b'\n');
            if b == b' ' {
                i += 2; // escape marker + raw literal (may be anything)
            } else {
                prop_assert!((0x21..=0x7E).contains(&b) || b >= 0x80, "code byte {:#x}", b);
                i += 1;
            }
        }
    }

    /// The production kernel (the reverse automaton) agrees with the
    /// reference sweep over the node trie on arbitrary input.
    #[test]
    fn engines_agree(line in arb_line()) {
        use zsmiles_core::sp::{encode_line, SpScratch};
        let dict = test_dict();
        let mut s = SpScratch::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let (ca, _) = Compressor::new(&dict).with_preprocess(false).compress_line(&line, &mut a);
        let cb = encode_line(dict.trie(), &line, &mut s, &mut b);
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(a, b);
    }

    /// The optimal encoder never does worse than greedy longest-match.
    #[test]
    fn optimal_never_worse_than_greedy(line in arb_smilesish()) {
        let dict = test_dict();
        let trie = dict.trie();
        let mut greedy = 0usize;
        let mut i = 0usize;
        while i < line.len() {
            match trie.longest_match_at(&line, i) {
                Some((_, len)) => { greedy += 1; i += len; }
                None => { greedy += 2; i += 1; }
            }
        }
        let mut scratch = zsmiles_core::sp::SpScratch::new();
        let optimal = zsmiles_core::sp::encode_cost(trie, &line, &mut scratch);
        prop_assert!(optimal <= greedy, "optimal {} > greedy {}", optimal, greedy);
    }

    /// Ring-ID preprocessing preserves the molecule for arbitrary
    /// generated structures (idempotence too).
    #[test]
    fn preprocess_preserves_molecules(seed in 0u64..5000) {
        let ds = molgen::Dataset::generate(molgen::profiles::MEDIATE, 3, seed);
        for line in ds.iter() {
            let pp = smiles::preprocess(line).unwrap();
            let a = smiles::parser::parse(line).unwrap();
            let b = smiles::parser::parse(&pp).unwrap();
            prop_assert_eq!(a.signature(), b.signature());
            let pp2 = smiles::preprocess(&pp).unwrap();
            prop_assert_eq!(&pp, &pp2, "idempotent");
        }
    }

    /// Every generated molecule is valid SMILES across all profiles.
    #[test]
    fn generator_validity(seed in 0u64..2000) {
        for profile in [molgen::profiles::GDB17, molgen::profiles::MEDIATE,
                        molgen::profiles::EXSCALATE] {
            let ds = molgen::Dataset::generate(profile, 2, seed);
            for line in ds.iter() {
                prop_assert!(smiles::validate::full_check(line).is_ok(),
                    "{}: {}", profile.name, String::from_utf8_lossy(line));
            }
        }
    }

    /// Composition invariants on generated molecules: the Hill formula is
    /// stable under ring-ID preprocessing (same molecule, same formula),
    /// and the molar mass is consistent with the atom tally.
    #[test]
    fn formula_invariants(seed in 0u64..3000) {
        let ds = molgen::Dataset::generate_mixed(3, seed);
        for line in ds.iter() {
            let mol = smiles::parser::parse(line).unwrap();
            let comp = smiles::Composition::of(&mol);
            let f1 = comp.hill_formula();
            prop_assert!(!f1.is_empty());

            let pp = smiles::preprocess(line).unwrap();
            let f2 = smiles::molecular_formula(&smiles::parser::parse(&pp).unwrap());
            prop_assert_eq!(&f1, &f2, "preprocessing must not change the formula");

            if comp.wildcards == 0 {
                let mass = comp.molar_mass().unwrap();
                // Carbon is the lightest common heavy atom except B; every
                // heavy atom weighs at least ~10.8 u, every H ~1 u.
                let lower = comp.heavy_atoms() as f64 * 10.8 + comp.count("H") as f64;
                prop_assert!(mass >= lower, "mass {} < floor {}", mass, lower);
            }
        }
    }

    /// Screening is deterministic for any worker count and any deck.
    #[test]
    fn screening_worker_invariance(seed in 0u64..500, workers in 1usize..9) {
        let ds = molgen::Dataset::generate_mixed(24, seed);
        let pocket = vscreen::Pocket::from_seed(seed ^ 0xABCD);
        let serial = vscreen::screen(&ds, &pocket);
        let par = vscreen::screen_parallel(&ds, &pocket, workers);
        prop_assert_eq!(serial, par);
    }

    /// The wide codec round-trips generated decks byte-exactly without
    /// preprocessing, whatever the trained wide size.
    #[test]
    fn wide_roundtrip_on_generated_decks(seed in 0u64..300, wide_size in 0usize..96) {
        let ds = molgen::Dataset::generate_mixed(40, seed);
        let dict = zsmiles_core::WideDictBuilder {
            base: DictBuilder { min_count: 2, preprocess: false, ..Default::default() },
            wide_size,
        }
        .train(ds.iter())
        .unwrap();
        let mut z = Vec::new();
        zsmiles_core::WideCompressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);
        let mut back = Vec::new();
        zsmiles_core::WideDecompressor::new(&dict).decompress_buffer(&z, &mut back).unwrap();
        prop_assert_eq!(back, ds.as_bytes());
    }

    /// Baseline codecs round-trip arbitrary bytes.
    #[test]
    fn baselines_roundtrip(line in arb_line()) {
        // bzip-like (whole-buffer)
        let z = textcomp::bzip::compress(&line);
        prop_assert_eq!(textcomp::bzip::decompress(&z).unwrap(), line.clone());
        // FSST (table trained on the line itself — worst case, tiny sample)
        let fsst = textcomp::fsst::Fsst::train(&line);
        let mut zf = Vec::new();
        fsst.compress_line(&line, &mut zf);
        let mut back = Vec::new();
        fsst.decompress_line(&zf, &mut back).unwrap();
        prop_assert_eq!(back, line.clone());
        // SHOCO
        let shoco = textcomp::shoco::ShocoModel::train(&line);
        let mut zs = Vec::new();
        shoco.compress_line(&line, &mut zs);
        let mut back = Vec::new();
        shoco.decompress_line(&zs, &mut back).unwrap();
        prop_assert_eq!(back, line);
    }
}
