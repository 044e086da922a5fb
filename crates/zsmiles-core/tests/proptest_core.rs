//! Property tests for the core data structures: the trie against a naive
//! reference matcher, the shortest-path engine against brute force, the
//! dictionary text format, the random-access index, and the wide-code
//! extension against the base codec.

use proptest::prelude::*;
use zsmiles_core::dict::format;
use zsmiles_core::sp::{encode_cost, encode_line, SpScratch};
use zsmiles_core::trie::{DenseAutomaton, Trie};
use zsmiles_core::wide::{self, WideCompressor, WideDecompressor, WideDictionary};
use zsmiles_core::{AnyDictionary, CompressStats, Dictionary, LineIndex, Prepopulation, LINE_SEP};

/// The reference encode of a newline-separated buffer, no preprocessing:
/// each non-empty line through the reference sweep over the dictionary's
/// node trie or dense automaton, newline-terminated, with the stats the
/// buffer loop keeps.
fn reference_buffer(dict: &Dictionary, dense: bool, input: &[u8]) -> (Vec<u8>, CompressStats) {
    let mut scratch = SpScratch::new();
    let mut out = Vec::new();
    let mut stats = CompressStats::default();
    for line in input.split(|&b| b == LINE_SEP).filter(|l| !l.is_empty()) {
        stats.out_bytes += if dense {
            encode_line(dict.automaton(), line, &mut scratch, &mut out)
        } else {
            encode_line(dict.trie(), line, &mut scratch, &mut out)
        };
        out.push(LINE_SEP);
        stats.lines += 1;
        stats.in_bytes += line.len();
    }
    (out, stats)
}

/// Small alphabet so patterns actually collide/overlap.
fn arb_pattern() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'B'), Just(b'C')], 1..6)
}

fn arb_text() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'B'), Just(b'C'), Just(b'D')],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The trie reports exactly the matches a naive scan finds.
    #[test]
    fn trie_matches_equal_naive(
        patterns in proptest::collection::vec(arb_pattern(), 1..20),
        text in arb_text(),
    ) {
        // Dedup patterns (trie replaces codes on re-insert).
        let mut unique: Vec<Vec<u8>> = Vec::new();
        for p in patterns {
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        let mut trie = Trie::new();
        for (i, p) in unique.iter().enumerate() {
            trie.insert(p, (i % 200) as u8);
        }
        for start in 0..text.len() {
            let mut got: Vec<(u8, usize)> = Vec::new();
            trie.matches_at(&text, start, |c, l| got.push((c, l)));
            let mut want: Vec<(u8, usize)> = unique
                .iter()
                .enumerate()
                .filter(|(_, p)| text[start..].starts_with(p))
                .map(|(i, p)| ((i % 200) as u8, p.len()))
                .collect();
            want.sort_by_key(|&(_, l)| l);
            got.sort_by_key(|&(_, l)| l);
            prop_assert_eq!(got, want, "start {}", start);
        }
    }

    /// DP cost equals brute-force optimal cost on short inputs.
    #[test]
    fn sp_cost_is_optimal(
        patterns in proptest::collection::vec(arb_pattern(), 1..8),
        text in proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'B'), Just(b'C')], 0..14),
    ) {
        let mut unique: Vec<Vec<u8>> = Vec::new();
        for p in patterns {
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        let mut trie = Trie::new();
        for (i, p) in unique.iter().enumerate() {
            trie.insert(p, 33 + (i as u8));
        }
        let mut scratch = SpScratch::new();
        let got = encode_cost(&trie, &text, &mut scratch);

        // Brute force: exhaustive DP with explicit recursion.
        fn brute(text: &[u8], i: usize, pats: &[Vec<u8>], memo: &mut Vec<Option<usize>>) -> usize {
            if i == text.len() {
                return 0;
            }
            if let Some(v) = memo[i] {
                return v;
            }
            let mut best = 2 + brute(text, i + 1, pats, memo);
            for p in pats {
                if text[i..].starts_with(p) {
                    best = best.min(1 + brute(text, i + p.len(), pats, memo));
                }
            }
            memo[i] = Some(best);
            best
        }
        let mut memo = vec![None; text.len() + 1];
        let want = brute(&text, 0, &unique, &mut memo);
        prop_assert_eq!(got, want);
    }

    /// Dictionary text format round-trips arbitrary byte patterns.
    #[test]
    fn dict_format_roundtrip(
        raw_patterns in proptest::collection::vec(
            proptest::collection::vec(any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 1..16),
            0..50),
    ) {
        // Dedup to keep code assignment unambiguous.
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        for p in raw_patterns {
            if !patterns.contains(&p) {
                patterns.push(p);
            }
        }
        let dict = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &patterns, 1, 16, false).unwrap();
        let text = format::to_string(&dict);
        prop_assert!(text.is_ascii());
        let back = format::read_dict(text.as_bytes()).unwrap();
        let a: Vec<_> = dict.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        let b: Vec<_> = back.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        prop_assert_eq!(a, b);
    }

    /// Any wide dictionary round-trips any input line exactly (escaping
    /// covers bytes no pattern matches), and never expands input covered
    /// by identity codes.
    #[test]
    fn wide_codec_roundtrip(
        raw_patterns in proptest::collection::vec(
            proptest::collection::vec(any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 1..16),
            0..300),
        line in proptest::collection::vec(
            any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 0..80),
    ) {
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        for p in raw_patterns {
            if !patterns.contains(&p) {
                patterns.push(p);
            }
        }
        let dict = WideDictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &patterns, 1, 16, false, 1776).unwrap();
        let mut z = Vec::new();
        let (n, _) = WideCompressor::new(&dict)
            .with_preprocess(false)
            .compress_line(&line, &mut z);
        prop_assert_eq!(n, z.len());
        prop_assert!(n <= 2 * line.len(), "worst case is all escapes");
        let mut back = Vec::new();
        WideDecompressor::new(&dict).decompress_line(&z, &mut back).unwrap();
        prop_assert_eq!(back, line);
    }

    /// The wide serialization format round-trips arbitrary dictionaries.
    #[test]
    fn wide_format_roundtrip(
        raw_patterns in proptest::collection::vec(
            proptest::collection::vec(any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 1..16),
            0..260),
    ) {
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        for p in raw_patterns {
            if !patterns.contains(&p) {
                patterns.push(p);
            }
        }
        let dict = WideDictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &patterns, 1, 16, false, 1776).unwrap();
        let mut buf = Vec::new();
        zsmiles_core::wide::write_wide_dict(&dict, &mut buf).unwrap();
        prop_assert!(buf.is_ascii());
        let back = zsmiles_core::wide::read_wide_dict(&buf[..]).unwrap();
        let a: Vec<_> = dict.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        let b: Vec<_> = back.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        prop_assert_eq!(a, b);
    }

    /// With the same patterns, the wide codec never compresses worse than
    /// the base codec on lines the base dictionary already handles — the
    /// extra code space can only help (both engines are optimal per line).
    #[test]
    fn wide_never_loses_to_base_with_same_patterns(
        raw_patterns in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'B'), Just(b'C')], 1..8),
            0..30),
        line in proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'B'), Just(b'C'), Just(b'D')], 0..60),
    ) {
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        for p in raw_patterns {
            if !patterns.contains(&p) {
                patterns.push(p);
            }
        }
        // Few patterns: every pattern fits the base region of both, so the
        // wide engine sees a superset... actually the identical set. Its
        // optimum can only match the base optimum (page bytes unused).
        let base = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &patterns, 1, 16, false).unwrap();
        let wide = WideDictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &patterns, 1, 16, false, 1776).unwrap();
        let mut zb = Vec::new();
        zsmiles_core::Compressor::new(&base)
            .with_preprocess(false)
            .compress_line(&line, &mut zb);
        let mut zw = Vec::new();
        WideCompressor::new(&wide)
            .with_preprocess(false)
            .compress_line(&line, &mut zw);
        prop_assert_eq!(zw.len(), zb.len(), "same patterns, same optimum");
    }

    /// The dense automaton reports byte-for-byte the matches of the node
    /// trie it was compiled from, and the encoder therefore emits
    /// byte-identical streams through either matcher.
    #[test]
    fn dense_automaton_identical_to_node_trie(
        patterns in proptest::collection::vec(arb_pattern(), 1..24),
        text in arb_text(),
    ) {
        let mut unique: Vec<Vec<u8>> = Vec::new();
        for p in patterns {
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        let mut trie = Trie::new();
        for (i, p) in unique.iter().enumerate() {
            trie.insert(p, (i % 200) as u8);
        }
        let auto = DenseAutomaton::compile(&trie);
        prop_assert_eq!(auto.len(), trie.len());
        prop_assert_eq!(auto.max_depth(), trie.max_depth());
        for start in 0..text.len() {
            let mut got: Vec<(u8, usize)> = Vec::new();
            auto.matches_at(&text, start, |c, l| got.push((c, l)));
            let mut want: Vec<(u8, usize)> = Vec::new();
            trie.matches_at(&text, start, |c, l| want.push((c, l)));
            prop_assert_eq!(got, want, "start {}", start);
            prop_assert_eq!(
                auto.longest_match_at(&text, start),
                trie.longest_match_at(&text, start),
                "start {}", start
            );
        }
        for p in &unique {
            prop_assert_eq!(auto.get(p), trie.get(p));
        }
        // Encoder byte-identity through both matchers.
        let mut s1 = SpScratch::new();
        let mut s2 = SpScratch::new();
        let mut via_trie = Vec::new();
        let mut via_auto = Vec::new();
        let ct = encode_line(&trie, &text, &mut s1, &mut via_trie);
        let ca = encode_line(&auto, &text, &mut s2, &mut via_auto);
        prop_assert_eq!(ct, ca, "cost");
        prop_assert_eq!(&via_trie, &via_auto, "bytes");
    }

    /// The wide flavour's dense automaton is pinned against its node trie
    /// exactly like the base one: identical matches at the 16-bit payload
    /// width, and byte-identical streams out of the wide DP through
    /// either matcher.
    #[test]
    fn wide_dense_automaton_identical_to_node_trie(
        patterns in proptest::collection::vec(arb_pattern(), 1..24),
        text in arb_text(),
    ) {
        let mut unique: Vec<Vec<u8>> = Vec::new();
        for p in patterns {
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        let dict = WideDictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &unique, 1, 16, false, 1776).unwrap();
        let trie = dict.trie();
        let auto = dict.automaton();
        prop_assert_eq!(auto.len(), trie.len());
        prop_assert_eq!(auto.max_depth(), trie.max_depth());
        for start in 0..text.len() {
            let mut got: Vec<(u16, usize)> = Vec::new();
            auto.matches_at(&text, start, |c, l| got.push((c, l)));
            let mut want: Vec<(u16, usize)> = Vec::new();
            trie.matches_at(&text, start, |c, l| want.push((c, l)));
            prop_assert_eq!(got, want, "start {}", start);
        }
        let mut scratch = SpScratch::new();
        let mut via_auto = Vec::new();
        wide::encode_line(auto, &text, &mut scratch, &mut via_auto);
        let mut via_trie = Vec::new();
        wide::encode_line(trie, &text, &mut scratch, &mut via_trie);
        prop_assert_eq!(&via_auto, &via_trie, "wide DP bytes");
        // And the stream still decodes.
        let mut back = Vec::new();
        WideDecompressor::new(&dict).decompress_line(&via_auto, &mut back).unwrap();
        prop_assert_eq!(&back, &text);
    }

    /// Worker-pool parallel compress/decompress is byte-identical to the
    /// serial engine across odd thread counts, including inputs with
    /// interior blank lines (which the buffer loops skip).
    #[test]
    fn parallel_identical_to_serial_any_thread_count(
        raw_lines in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'B'), Just(b'C'), Just(b'D')], 0..20),
            0..40),
    ) {
        let dict = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet,
            [b"AB".as_slice(), b"ABC", b"CCA", b"DD", b"BCD"],
            1, 16, false,
        ).unwrap();
        // Empty inner vecs become interior blank lines.
        let mut input = Vec::new();
        for l in &raw_lines {
            input.extend_from_slice(l);
            input.push(b'\n');
        }
        let mut serial_z = Vec::new();
        let s_stats = zsmiles_core::Compressor::new(&dict)
            .compress_buffer(&input, &mut serial_z);
        let mut serial_back = Vec::new();
        let d_stats = zsmiles_core::Decompressor::new(&dict)
            .decompress_buffer(&serial_z, &mut serial_back).unwrap();
        let any = AnyDictionary::Base(Box::new(dict));
        for threads in [1usize, 3, 7] {
            let (par_z, pc) = any.compress_parallel(&input, threads);
            prop_assert_eq!(&par_z, &serial_z, "compress threads={}", threads);
            prop_assert_eq!(pc, s_stats, "compress stats threads={}", threads);
            let (par_back, pd) = any.decompress_parallel(&serial_z, threads).unwrap();
            prop_assert_eq!(&par_back, &serial_back, "decompress threads={}", threads);
            prop_assert_eq!(pd, d_stats, "decompress stats threads={}", threads);
        }
    }

    /// The reverse automaton the encoder runs is pinned against the
    /// reference sweep over the node trie and the dense automaton on
    /// arbitrary byte text — including bytes outside the dictionary
    /// alphabet, which escape.
    #[test]
    fn reverse_automaton_encodes_identically_to_trie_and_dense(
        patterns in proptest::collection::vec(arb_pattern(), 1..24),
        text in proptest::collection::vec(any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 0..60),
    ) {
        let dict = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &patterns, 1, 16, false).unwrap();
        let reverse = dict.reverse_automaton();
        prop_assert_eq!(reverse.len(), dict.trie().len());
        prop_assert_eq!(reverse.max_depth(), dict.trie().max_depth());
        let mut want = Vec::new();
        let cost = zsmiles_core::Compressor::new(&dict)
            .with_preprocess(false)
            .compress_line(&text, &mut want).0;
        let mut scratch = SpScratch::new();
        let mut dense = Vec::new();
        let c = encode_line(dict.automaton(), &text, &mut scratch, &mut dense);
        prop_assert_eq!(c, cost, "dense cost");
        prop_assert_eq!(&dense, &want, "dense bytes");
        let mut node = Vec::new();
        let c = encode_line(dict.trie(), &text, &mut scratch, &mut node);
        prop_assert_eq!(c, cost, "node-trie cost");
        prop_assert_eq!(&node, &want, "node-trie bytes");
    }

    /// The wide flavour's reverse automaton is pinned against its
    /// reference matchers: the wide encoder emits the bytes the reference
    /// sweep emits over the dense automaton and the node trie, and they
    /// decode.
    #[test]
    fn wide_reverse_identical_to_node_trie(
        patterns in proptest::collection::vec(arb_pattern(), 1..24),
        text in proptest::collection::vec(any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 0..60),
    ) {
        let mut unique: Vec<Vec<u8>> = Vec::new();
        for p in patterns {
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        let dict = WideDictionary::from_patterns(
            Prepopulation::SmilesAlphabet, &unique, 1, 16, false, 1776).unwrap();
        prop_assert_eq!(dict.reverse_automaton().len(), dict.trie().len());
        let mut via_reverse = Vec::new();
        WideCompressor::new(&dict)
            .with_preprocess(false)
            .compress_line(&text, &mut via_reverse);
        let mut scratch = SpScratch::new();
        let mut via_dense = Vec::new();
        wide::encode_line(dict.automaton(), &text, &mut scratch, &mut via_dense);
        prop_assert_eq!(&via_reverse, &via_dense, "dense bytes");
        let mut via_trie = Vec::new();
        wide::encode_line(dict.trie(), &text, &mut scratch, &mut via_trie);
        prop_assert_eq!(&via_reverse, &via_trie, "node-trie bytes");
        let mut back = Vec::new();
        WideDecompressor::new(&dict).decompress_line(&via_reverse, &mut back).unwrap();
        prop_assert_eq!(&back, &text);
    }

    /// The buffer path emits exactly the per-line stream, and the bytes
    /// and stats of the reference sweep over either reference matcher,
    /// interior blank lines included.
    #[test]
    fn buffer_encode_identical_to_per_line_and_every_matcher(
        raw_lines in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'B'), Just(b'C'), Just(b'D')], 0..20),
            0..24),
    ) {
        let dict = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet,
            [b"AB".as_slice(), b"ABC", b"CCA", b"DD", b"BCD"],
            1, 16, false,
        ).unwrap();
        let mut per_line = Vec::new();
        let mut enc = zsmiles_core::Compressor::new(&dict);
        for line in raw_lines.iter().filter(|l| !l.is_empty()) {
            enc.compress_line(line, &mut per_line);
            per_line.push(LINE_SEP);
        }
        let mut input = Vec::new();
        for l in &raw_lines {
            input.extend_from_slice(l);
            input.push(b'\n');
        }
        let mut z = Vec::new();
        let stats = zsmiles_core::Compressor::new(&dict).compress_buffer(&input, &mut z);
        prop_assert_eq!(&z, &per_line);
        for dense in [true, false] {
            let (z_other, s_other) = reference_buffer(&dict, dense, &input);
            prop_assert_eq!(&z, &z_other, "dense={} buffer bytes", dense);
            prop_assert_eq!(stats, s_other, "dense={} buffer stats", dense);
        }
    }

    /// LineIndex finds exactly the lines a split() does.
    #[test]
    fn line_index_equals_split(
        lines in proptest::collection::vec(
            proptest::collection::vec(
                any::<u8>().prop_filter("no nl", |&b| b != b'\n'), 1..30),
            0..30),
    ) {
        let mut buf = Vec::new();
        for l in &lines {
            buf.extend_from_slice(l);
            buf.push(b'\n');
        }
        let idx = LineIndex::build(&buf);
        prop_assert_eq!(idx.len(), lines.len());
        for (i, l) in lines.iter().enumerate() {
            prop_assert_eq!(idx.line(&buf, i), l.as_slice(), "line {}", i);
        }
    }
}

/// A near-maximal wide dictionary (over 1500 two-byte codes, patterns up to
/// 16 bytes) compiles to a reverse automaton whose row indexes run far
/// past 16 bits, and stays byte-identical to the node trie there. (Not a
/// proptest: the compile is too heavy to repeat per case.)
#[test]
fn maximal_wide_reverse_automaton_identical_to_node_trie() {
    let alphabet = b"CNOcn()=1[]";
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let patterns: Vec<Vec<u8>> = (0..1800)
        .map(|_| {
            let len = 3 + (next() % 14) as usize;
            (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect()
        })
        .collect();
    let dict =
        WideDictionary::from_patterns(Prepopulation::SmilesAlphabet, &patterns, 1, 16, false, 1776)
            .unwrap();
    let reverse = dict.reverse_automaton();
    assert!(dict.wide_len() > 1500, "{} wide entries", dict.wide_len());
    assert!(
        reverse.memory_bytes() > 1 << 18,
        "{} bytes",
        reverse.memory_bytes()
    );
    let text: Vec<u8> = (0..20_000)
        .map(|_| match next() % 20 {
            0 => 0xF3,
            1 => b'X',
            _ => alphabet[(next() % alphabet.len() as u64) as usize],
        })
        .collect();
    let mut via_reverse = Vec::new();
    WideCompressor::new(&dict)
        .with_preprocess(false)
        .compress_line(&text, &mut via_reverse);
    let mut via_trie = Vec::new();
    wide::encode_line(dict.trie(), &text, &mut SpScratch::new(), &mut via_trie);
    assert_eq!(via_reverse, via_trie);
}
