//! Trained-dictionary properties: dictionaries produced by the
//! `zsmiles_core::train` subsystem must flow through encoders, archives
//! and sharded decks with zero special-casing — and reproducibly.

use proptest::prelude::*;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::train::{BaseBuilder, DictBuilder, TrainCorpus, WideBuilder};
use zsmiles_core::{
    ArchiveReader, ArchiveWriter, InMemorySink, InMemorySource, ShardPolicy, ShardedReader,
    ShardedWriter, TrainOptions, WriterOptions,
};

/// A SMILES-ish line over the SMILES alphabet (high pattern hit rate).
fn arb_smilesish(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    let alphabet = smiles::alphabet::SMILES_ALPHABET;
    proptest::collection::vec(0..alphabet.len(), 0..max_len)
        .prop_map(move |idxs| idxs.into_iter().map(|i| alphabet[i]).collect())
}

/// A training corpus: a handful of distinct lines, each repeated enough
/// to clear `min_count`.
fn arb_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_smilesish(60), 2..8).prop_map(|lines| {
        let mut corpus = Vec::new();
        for _ in 0..6 {
            corpus.extend(lines.iter().cloned());
        }
        corpus
    })
}

fn opts() -> TrainOptions {
    TrainOptions {
        min_count: 2,
        preprocess: false, // byte-identity round trips
        max_candidates: 2_000,
        ..Default::default()
    }
}

/// Train both flavours on the same corpus.
fn trained_pair(corpus: &[Vec<u8>]) -> Option<(AnyDictionary, AnyDictionary)> {
    let tc = TrainCorpus::from_lines(corpus.iter());
    let base = BaseBuilder { opts: opts() }
        .train(&tc)
        .ok()?
        .into_dictionary()
        .unwrap();
    let wide = WideBuilder {
        opts: opts(),
        wide_size: 64,
    }
    .train(&tc)
    .ok()?
    .into_dictionary()
    .unwrap();
    Some((base, wide))
}

/// A deck buffer with interior blank lines sprinkled in.
fn deck_with_blanks(corpus: &[Vec<u8>], blanks: &[usize]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (i, line) in corpus.iter().enumerate() {
        if blanks.contains(&i) {
            buf.push(b'\n'); // interior blank line
        }
        buf.extend_from_slice(line);
        buf.push(b'\n');
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any trained dictionary round-trips encode/decode byte-identically,
    /// both flavours, including decks with interior blank lines.
    #[test]
    fn trained_dictionaries_round_trip_byte_identically(
        corpus in arb_corpus(),
        blanks in proptest::collection::vec(0usize..12, 0..3),
    ) {
        // Random corpora may have no frequent substrings at all; an
        // EmptyTrainingSet is a legitimate outcome, not a failure.
        let Some((base, wide)) = trained_pair(&corpus) else {
            return;
        };
        let input = deck_with_blanks(&corpus, &blanks);
        // The buffer loops document that empty lines are skipped, so the
        // round trip restores the blank-stripped deck.
        let canonical: Vec<u8> = input
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        for dict in [&base, &wide] {
            let (z, cs) = dict.compress_parallel(&input, 3);
            let (back, ds) = dict.decompress_parallel(&z, 2).unwrap();
            prop_assert_eq!(&back, &canonical, "flavour {:?}", dict.flavor());
            prop_assert_eq!(cs.lines, ds.lines);
            // Per-line access agrees with the buffer loop: the first
            // emitted line is the first non-empty input line.
            if let Some(want) = canonical.split(|&b| b == b'\n').next() {
                let first = z.split(|&b| b == b'\n').next().unwrap();
                let mut one = Vec::new();
                dict.decompress_line(first, &mut one).unwrap();
                prop_assert_eq!(one.as_slice(), want);
            }
        }
    }

    /// Training is a pure function of (corpus, options): two runs write
    /// byte-identical `.dct` serializations, and a reloaded dictionary
    /// decodes streams of the original.
    #[test]
    fn training_is_deterministic_and_reload_compatible(corpus in arb_corpus()) {
        let Some((base, wide)) = trained_pair(&corpus) else {
            return;
        };
        let Some((base2, wide2)) = trained_pair(&corpus) else {
            return;
        };
        for (a, b) in [(&base, &base2), (&wide, &wide2)] {
            let mut ba = Vec::new();
            a.write(&mut ba).unwrap();
            let mut bb = Vec::new();
            b.write(&mut bb).unwrap();
            prop_assert_eq!(&ba, &bb, "two runs, one dictionary");
            // Save/load round trip decodes the original's stream.
            let reloaded = AnyDictionary::read(&ba).unwrap();
            let mut z = Vec::new();
            a.encoder().compress_line(&corpus[0], &mut z);
            let mut back = Vec::new();
            reloaded.decompress_line(&z, &mut back).unwrap();
            prop_assert_eq!(back.as_slice(), corpus[0].as_slice());
        }
    }

    /// A trained dictionary flows through the out-of-core write path and
    /// is read back by `ArchiveReader` and `ShardedReader` unchanged:
    /// same embedded dictionary bytes, same lines.
    #[test]
    fn trained_dict_archives_read_back_unchanged(
        corpus in arb_corpus(),
        blanks in proptest::collection::vec(0usize..12, 0..2),
        shard_lines in 3u64..10,
    ) {
        let Some((base, wide)) = trained_pair(&corpus) else {
            return;
        };
        let input = deck_with_blanks(&corpus, &blanks);
        let expected: Vec<&[u8]> = input
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        for dict in [base, wide] {
            let mut dict_bytes = Vec::new();
            dict.write(&mut dict_bytes).unwrap();

            // Single-file archive through the streaming writer.
            let mut w = ArchiveWriter::with_options(
                InMemorySink::new(),
                dict.clone(),
                WriterOptions { threads: 2, ..Default::default() },
            )
            .unwrap();
            w.write(&input).unwrap();
            let (sink, info) = w.finish().unwrap();
            prop_assert_eq!(info.lines, expected.len());
            let reader =
                ArchiveReader::from_source(InMemorySource::new(sink.into_bytes())).unwrap();
            let mut embedded = Vec::new();
            reader.dictionary().write(&mut embedded).unwrap();
            prop_assert_eq!(&embedded, &dict_bytes, "embedded dictionary unchanged");
            for (i, line) in expected.iter().enumerate() {
                prop_assert_eq!(&reader.get(i).unwrap(), line);
            }

            // Sharded layout with the same dictionary in every shard.
            let dir = std::env::temp_dir().join(format!(
                "ztrain_shard_{}_{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let manifest = dir.join("deck.zsm");
            let mut sw = ShardedWriter::create(
                &manifest,
                dict.clone(),
                ShardPolicy::by_lines(shard_lines),
                WriterOptions { threads: 2, ..Default::default() },
            )
            .unwrap();
            sw.write(&input).unwrap();
            let sinfo = sw.finish().unwrap();
            prop_assert_eq!(sinfo.lines as usize, expected.len());
            let sharded = ShardedReader::open(&manifest).unwrap();
            let mut embedded = Vec::new();
            sharded.dictionary().write(&mut embedded).unwrap();
            prop_assert_eq!(&embedded, &dict_bytes, "sharded dictionary unchanged");
            let got = sharded.get_range(0..expected.len()).unwrap();
            for (line, want) in got.iter().zip(&expected) {
                prop_assert_eq!(&line.as_slice(), want);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
