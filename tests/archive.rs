//! `.zsa` container properties: the single-file random-access story must
//! hold for arbitrary decks, both engines, and survive corruption attempts
//! — through the in-memory [`Archive`] and, byte-identically, through the
//! out-of-core [`ArchiveReader`] over a real file.

use proptest::prelude::*;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::source::{ArchiveSource, CountingSource, FileSource, InMemorySource};
use zsmiles_core::{Archive, ArchiveReader, DictBuilder, WideDictBuilder, ZsmilesError};

/// Train either dictionary flavour on the deck (preprocess off, so round
/// trips are byte-exact).
fn dict_for(deck: &molgen::Dataset, wide_size: usize) -> AnyDictionary {
    let base = DictBuilder {
        min_count: 2,
        preprocess: false,
        ..Default::default()
    };
    if wide_size == 0 {
        AnyDictionary::Base(Box::new(base.train(deck.iter()).unwrap()))
    } else {
        AnyDictionary::Wide(Box::new(
            WideDictBuilder { base, wide_size }
                .train(deck.iter())
                .unwrap(),
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pack → serialize → reopen → get(i) → unpack is byte-identical for
    /// arbitrary generated decks, random probe lines, and both engines.
    #[test]
    fn zsa_round_trip_both_engines(
        seed in 0u64..10_000,
        lines in 1usize..60,
        wide_size in prop_oneof![Just(0usize), Just(48usize)],
        probe in 0usize..1_000,
        threads in 1usize..5,
    ) {
        let deck = molgen::Dataset::generate_mixed(lines, seed);
        let dict = dict_for(&deck, wide_size);
        let archive = Archive::pack(dict, deck.as_bytes(), threads);
        prop_assert_eq!(archive.len(), deck.len());

        // Through the container bytes, as a file would travel.
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        let reopened = Archive::read_from(&blob).unwrap();

        // Random access at an arbitrary in-range line.
        let i = probe % deck.len();
        prop_assert_eq!(reopened.get(i).unwrap(), deck.line(i).to_vec());

        // Full unpack restores the deck byte-for-byte.
        let (back, stats) = reopened.unpack(threads).unwrap();
        prop_assert_eq!(back, deck.as_bytes().to_vec());
        prop_assert_eq!(stats.lines, deck.len());
    }

    /// Any single corrupted byte in the body is caught by the CRC before
    /// content is interpreted (trailer bytes fail the trailer check
    /// instead — either way corruption never parses).
    #[test]
    fn zsa_single_byte_corruption_rejected(
        seed in 0u64..5_000,
        victim in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let deck = molgen::Dataset::generate_mixed(20, seed);
        let dict = dict_for(&deck, 0);
        let archive = Archive::pack(dict, deck.as_bytes(), 1);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();

        let at = victim % blob.len();
        blob[at] ^= flip;
        prop_assert!(
            Archive::read_from(&blob).is_err(),
            "flipping byte {} (of {}) must not parse", at, blob.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The out-of-core reader over a real file returns byte-identical
    /// lines to the in-memory `Archive::get`, for both engine flavours,
    /// single fetches and batched ranges alike.
    #[test]
    fn file_backed_reader_matches_in_memory_archive(
        seed in 0u64..10_000,
        lines in 1usize..60,
        wide_size in prop_oneof![Just(0usize), Just(48usize)],
        probe in 0usize..1_000,
    ) {
        let deck = molgen::Dataset::generate_mixed(lines, seed);
        let dict = dict_for(&deck, wide_size);
        let archive = Archive::pack(dict, deck.as_bytes(), 2);

        let path = std::env::temp_dir().join(format!(
            "zsa_reader_prop_{}_{seed}_{lines}_{wide_size}.zsa",
            std::process::id()
        ));
        archive.save(&path).unwrap();
        let reader = ArchiveReader::open(&path).unwrap();

        prop_assert_eq!(reader.len(), archive.len());
        prop_assert_eq!(reader.flavor(), archive.flavor());
        reader.verify().unwrap();

        let i = probe % deck.len();
        prop_assert_eq!(reader.get(i).unwrap(), archive.get(i).unwrap());
        prop_assert_eq!(
            reader.compressed_line(i).unwrap(),
            archive.compressed_line(i).unwrap().to_vec()
        );

        // A batched range and a full batched iteration both match.
        let hi = (i + 7).min(deck.len());
        prop_assert_eq!(reader.get_range(i..hi).unwrap(), archive.get_range(i..hi).unwrap());
        let streamed: Result<Vec<Vec<u8>>, _> = reader.lines_batched(97).collect();
        let streamed = streamed.unwrap();
        prop_assert_eq!(streamed.len(), deck.len());
        prop_assert_eq!(streamed[i].as_slice(), deck.line(i));

        std::fs::remove_file(&path).ok();
    }
}

/// The acceptance property of the read-path redesign: `get(line)` on a
/// metered source transfers the metadata once at open, then exactly one
/// positioned read of exactly that line's byte range — never the payload.
#[test]
fn counting_source_proves_get_touches_only_metadata_and_one_line() {
    let deck = molgen::Dataset::generate_mixed(500, 41);
    for wide_size in [0usize, 32] {
        let archive = Archive::pack(dict_for(&deck, wide_size), deck.as_bytes(), 2);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        let file_len = blob.len() as u64;

        let src = CountingSource::new(InMemorySource::new(blob));
        let reader = ArchiveReader::from_source(src).unwrap();
        assert_eq!(
            reader.source().bytes_read(),
            reader.metadata_bytes(),
            "open transfers header + footer + dictionary + index, nothing else"
        );
        assert!(
            reader.metadata_bytes() + reader.payload_bytes() <= file_len,
            "payload is not part of the open transfer"
        );

        reader.source().reset();
        let line = 123usize;
        let line_bytes = reader.index().line_range(line).len() as u64;
        let got = reader.get(line).unwrap();
        assert_eq!(got, deck.line(line), "wide={wide_size}");
        assert_eq!(reader.source().reads(), 1, "one positioned read per get");
        assert_eq!(
            reader.source().bytes_read(),
            line_bytes,
            "the transfer is exactly the line's compressed range"
        );
        assert!(
            line_bytes < reader.payload_bytes(),
            "a single line is a strict subset of the payload"
        );
    }
}

/// Parallel encode and decode through `AnyDictionary` produce the bytes
/// of the serial concrete compressors, both flavours, and its encoder
/// round-trips single lines.
#[test]
fn any_dictionary_parallel_matches_concrete_compressors() {
    let deck = molgen::Dataset::generate_mixed(200, 77);
    for wide_size in [0usize, 48] {
        let dict = dict_for(&deck, wide_size);

        // Concrete path: the flavour's own serial compressor.
        let mut concrete = Vec::new();
        let cstats = match &dict {
            AnyDictionary::Base(d) => {
                zsmiles_core::Compressor::new(d).compress_buffer(deck.as_bytes(), &mut concrete)
            }
            AnyDictionary::Wide(d) => {
                zsmiles_core::WideCompressor::new(d).compress_buffer(deck.as_bytes(), &mut concrete)
            }
        };

        // The one codec value, on three workers.
        let (parallel, pstats) = dict.compress_parallel(deck.as_bytes(), 3);
        assert_eq!(parallel, concrete, "wide={wide_size}");
        assert_eq!(pstats.lines, cstats.lines);

        // And the parallel decode round-trips to the original deck.
        let (back, _) = dict.decompress_parallel(&parallel, 2).unwrap();
        assert_eq!(back, deck.as_bytes(), "wide={wide_size}");

        // One line at a time too.
        let mut enc = dict.encoder();
        for i in [0usize, 42, 199] {
            let mut z = Vec::new();
            enc.compress_line(deck.line(i), &mut z);
            let mut out = Vec::new();
            dict.decompress_line(&z, &mut out).unwrap();
            assert_eq!(out, deck.line(i), "wide={wide_size} line {i}");
        }
    }
}

/// Reader failure modes: truncated footer, zero-line archives, and
/// reads past the end of the source are errors, never panics.
#[test]
fn reader_error_cases() {
    let deck = molgen::Dataset::generate_mixed(20, 5);
    let archive = Archive::pack(dict_for(&deck, 0), deck.as_bytes(), 1);
    let mut blob = Vec::new();
    archive.write_to(&mut blob).unwrap();

    // Truncated footer: every truncation of the trailer region fails.
    for cut in 1..24 {
        assert!(
            ArchiveReader::from_source(&blob[..blob.len() - cut]).is_err(),
            "cut={cut}"
        );
    }

    // Zero-line archive opens, reports empty, errors on any fetch.
    let empty = Archive::pack(dict_for(&deck, 0), b"", 1);
    let mut eblob = Vec::new();
    empty.write_to(&mut eblob).unwrap();
    let reader = ArchiveReader::from_source(eblob.as_slice()).unwrap();
    assert_eq!(reader.len(), 0);
    assert!(matches!(
        reader.get(0).unwrap_err(),
        ZsmilesError::LineOutOfRange { line: 0, len: 0 }
    ));
    assert!(reader.get_range(0..1).is_err());

    // Read past EOF at the source level is a typed error.
    let path = std::env::temp_dir().join(format!("zsa_eof_{}.zsa", std::process::id()));
    archive.save(&path).unwrap();
    let src = FileSource::open(&path).unwrap();
    let len = src.len();
    assert!(matches!(
        src.read_range(len, 1).unwrap_err(),
        ZsmilesError::SourceOutOfBounds { .. }
    ));
    assert!(matches!(
        src.read_range(len - 3, 8).unwrap_err(),
        ZsmilesError::SourceOutOfBounds { .. }
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn crc_error_is_reported_as_archive_format() {
    let deck = molgen::Dataset::generate_mixed(30, 7);
    let archive = Archive::pack(dict_for(&deck, 0), deck.as_bytes(), 1);
    let mut blob = Vec::new();
    archive.write_to(&mut blob).unwrap();
    // Corrupt a payload byte (inside the CRC-covered region, after the
    // header and dictionary).
    let at = blob.len() - 64;
    blob[at] ^= 0x10;
    match Archive::read_from(&blob) {
        Err(ZsmilesError::ArchiveFormat { reason }) => {
            assert!(reason.contains("CRC"), "reason: {reason}");
        }
        other => panic!("expected ArchiveFormat CRC error, got {other:?}"),
    }
}

#[test]
fn zsa_is_self_describing_across_engines() {
    // A reader with no out-of-band knowledge decodes archives of either
    // flavour — the property the loose-file triple could not offer.
    let deck = molgen::Dataset::generate_mixed(40, 99);
    for wide_size in [0usize, 32] {
        let archive = Archive::pack(dict_for(&deck, wide_size), deck.as_bytes(), 2);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        let reopened = Archive::read_from(&blob).unwrap();
        let (back, _) = reopened.unpack(1).unwrap();
        assert_eq!(back, deck.as_bytes(), "wide_size={wide_size}");
    }
}
