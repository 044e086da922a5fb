//! The out-of-core write path, end to end: streaming `ArchiveWriter`
//! memory bounds, and sharded `.zsm` archives that are line-for-line
//! byte-identical to single-file packs — the acceptance properties of the
//! write-side redesign.

use proptest::prelude::*;
use std::path::PathBuf;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{
    Archive, ArchiveReader, ArchiveWriter, CountingSink, DeckReader, DictBuilder, FileSource,
    InMemorySink, ShardPolicy, ShardedReader, ShardedWriter, WideDictBuilder, WriterOptions,
    ZsmilesError,
};

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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_it_shard_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Inject a blank line after every `every`-th line (0 = none): sharding
/// must agree with the single-file layout about skipped blanks.
fn with_blank_lines(deck: &[u8], every: usize) -> Vec<u8> {
    if every == 0 {
        return deck.to_vec();
    }
    let mut out = Vec::with_capacity(deck.len() + deck.len() / every + 2);
    for (i, line) in deck.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        out.extend_from_slice(line);
        out.push(b'\n');
        if (i + 1) % every == 0 {
            out.push(b'\n');
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sharded pack at an arbitrary shard budget is line-for-line
    /// byte-identical to a single-file pack of the same deck, for both
    /// dictionary flavours, with interior blank lines in the input, and
    /// including budgets that land a shard boundary exactly on the last
    /// line (`lines % budget == 0` is inside the sampled space).
    #[test]
    fn sharded_pack_identical_to_single_file_pack(
        seed in 0u64..10_000,
        lines in 1usize..50,
        wide_size in prop_oneof![Just(0usize), Just(32usize)],
        budget_lines in 1u64..25,
        by_bytes in prop_oneof![Just(false), Just(true)],
        blank_every in 0usize..5,
    ) {
        let deck = molgen::Dataset::generate_mixed(lines, seed);
        let input = with_blank_lines(deck.as_bytes(), blank_every);
        let dict = dict_for(&deck, wide_size);

        // Reference: the in-memory single-file pack.
        let single = Archive::pack(dict.clone(), &input, 2);
        prop_assert_eq!(single.len(), deck.len());

        // Sharded pack at the sampled budget.
        let dir = tmpdir(&format!("prop_{seed}_{lines}_{wide_size}_{budget_lines}_{blank_every}"));
        let policy = if by_bytes {
            // A byte budget in the same ballpark as the line budget.
            ShardPolicy::by_bytes(budget_lines * 24)
        } else {
            ShardPolicy::by_lines(budget_lines)
        };
        let mut w = ShardedWriter::create(
            &dir.join("deck.zsm"),
            dict,
            policy,
            WriterOptions { threads: 2, batch_bytes: 96 },
        ).unwrap();
        for chunk in input.chunks(13) {
            w.write(chunk).unwrap();
        }
        let info = w.finish().unwrap();
        prop_assert_eq!(info.lines as usize, deck.len());
        if !by_bytes && (deck.len() as u64).is_multiple_of(budget_lines) {
            // Boundary exactly on the last line: no trailing empty shard.
            prop_assert_eq!(
                info.shards.len() as u64,
                (deck.len() as u64 / budget_lines).max(1)
            );
        }

        let sharded = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        prop_assert_eq!(sharded.len(), single.len());
        prop_assert_eq!(sharded.flavor(), single.flavor());
        for i in 0..deck.len() {
            prop_assert_eq!(
                sharded.compressed_line(i).unwrap(),
                single.compressed_line(i).unwrap().to_vec(),
                "line {} compressed bytes", i
            );
            prop_assert_eq!(sharded.get(i).unwrap(), single.get(i).unwrap(), "line {}", i);
        }
        // Batched surfaces agree too.
        let mid = deck.len() / 2;
        prop_assert_eq!(
            sharded.get_range(mid..deck.len()).unwrap(),
            single.get_range(mid..deck.len()).unwrap()
        );
        let mut out = Vec::new();
        sharded.unpack_to(&mut out, 2, 512).unwrap();
        let (expect, _) = single.unpack(1).unwrap();
        prop_assert_eq!(&out, &expect);

        // The same pack as a bare `.zsa` opens as a one-shard deck that
        // reads exactly as the in-memory archive.
        single.save(&dir.join("deck.zsa")).unwrap();
        let bare = ShardedReader::open(&dir.join("deck.zsa")).unwrap();
        prop_assert_eq!(bare.shard_count(), 1);
        prop_assert_eq!(bare.flavor(), single.flavor());
        for i in 0..deck.len() {
            prop_assert_eq!(bare.get(i).unwrap(), single.get(i).unwrap(), "bare line {}", i);
        }
        prop_assert_eq!(
            bare.get_range(0..deck.len()).unwrap(),
            single.get_range(0..deck.len()).unwrap()
        );
        let mut out = Vec::new();
        bare.unpack_to(&mut out, 2, 512).unwrap();
        prop_assert_eq!(out, expect);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance property of the write-path redesign: a deck of ≥100k
/// lines streams through the writer while the writer's buffered payload
/// stays under a fixed bound — and the resulting sharded manifest reads
/// byte-identically to the single-file pack of the same deck.
#[test]
fn writer_packs_100k_lines_in_bounded_memory_and_shards_match_single_file() {
    // ~2.3 MB of deck: far more than the writer's 64 KiB batch budget.
    let patterns: [&[u8]; 6] = [
        b"COc1cc(C=O)ccc1O",
        b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
        b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
        b"CCN(CC)CC",
        b"CC(=O)Oc1ccccc1C(=O)O",
        b"c1ccc2c(c1)cccc2N",
    ];
    const LINES: usize = 100_000;
    let mut input = Vec::new();
    let mut expected_lines: Vec<&[u8]> = Vec::with_capacity(LINES);
    for i in 0..LINES {
        let line = patterns[i % patterns.len()];
        input.extend_from_slice(line);
        input.push(b'\n');
        expected_lines.push(line);
        if i % 97 == 0 {
            input.push(b'\n'); // interior blank lines, skipped everywhere
        }
    }
    let dict = {
        let base = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        };
        AnyDictionary::Base(Box::new(
            base.train(patterns.iter().copied().cycle().take(64))
                .unwrap(),
        ))
    };

    // Single-file pack through a metering sink with a 64 KiB batch
    // budget: the deck (and container) are megabytes, the writer's
    // buffering must stay under a fixed 4x-budget bound.
    const BATCH: usize = 64 << 10;
    let mut w = ArchiveWriter::with_options(
        CountingSink::new(InMemorySink::new()),
        dict.clone(),
        WriterOptions {
            threads: 2,
            batch_bytes: BATCH,
        },
    )
    .unwrap();
    for chunk in input.chunks(50_000) {
        w.write(chunk).unwrap();
    }
    let (sink, info) = w.finish().unwrap();
    assert_eq!(info.lines, LINES);
    assert!(
        info.payload_bytes as usize > 4 * BATCH,
        "the deck is larger than the writer's memory budget ({} payload bytes)",
        info.payload_bytes
    );
    assert!(
        info.peak_buffered_bytes <= 4 * BATCH,
        "peak buffered payload {} exceeds the fixed bound {}",
        info.peak_buffered_bytes,
        4 * BATCH
    );
    assert!(
        sink.appends() > 10,
        "payload streamed out across many spans"
    );
    assert_eq!(sink.patches(), 1, "one header patch at finalize");
    let single_bytes = sink.into_inner().into_bytes();
    assert_eq!(single_bytes.len() as u64, info.container_bytes);

    // The metered streaming pack equals the in-memory pack byte-for-byte.
    let reference = Archive::pack(dict.clone(), &input, 2);
    let mut reference_bytes = Vec::new();
    reference.write_to(&mut reference_bytes).unwrap();
    assert_eq!(single_bytes, reference_bytes);

    // Sharded pack of the same deck: 10k lines per shard.
    let dir = tmpdir("acceptance");
    let mut sw = ShardedWriter::create(
        &dir.join("deck.zsm"),
        dict,
        ShardPolicy::by_lines(10_000),
        WriterOptions {
            threads: 2,
            batch_bytes: BATCH,
        },
    )
    .unwrap();
    for chunk in input.chunks(50_000) {
        sw.write(chunk).unwrap();
    }
    let sinfo = sw.finish().unwrap();
    assert_eq!(sinfo.lines as usize, LINES);
    assert_eq!(sinfo.shards.len(), 10);
    assert!(sinfo.peak_buffered_bytes <= 4 * BATCH);

    // ShardedReader vs ArchiveReader over the single-file pack:
    // byte-identical gets (across shard boundaries) and unpacks.
    let single = ArchiveReader::from_source(single_bytes.as_slice()).unwrap();
    let sharded = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
    assert_eq!(sharded.len(), single.len());
    for i in [0usize, 9_999, 10_000, 10_001, 49_999, 50_000, 99_999] {
        assert_eq!(sharded.get(i).unwrap(), single.get(i).unwrap(), "line {i}");
        assert_eq!(sharded.get(i).unwrap(), expected_lines[i], "line {i}");
        assert_eq!(
            sharded.compressed_line(i).unwrap(),
            single.compressed_line(i).unwrap(),
            "line {i}"
        );
    }
    assert_eq!(
        sharded.get_range(9_990..10_010).unwrap(),
        single.get_range(9_990..10_010).unwrap()
    );
    let mut a = Vec::new();
    sharded.unpack_to(&mut a, 2, 1 << 20).unwrap();
    let mut b = Vec::new();
    single.unpack_to(&mut b, 2, 1 << 20).unwrap();
    assert_eq!(a, b, "sharded unpack == single-file unpack");

    // And both equal the deck minus its blank lines.
    let expect: Vec<u8> = expected_lines
        .iter()
        .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
        .collect();
    assert_eq!(a, expect);

    // The layout enum serves the same deck from either file, tagged the
    // way the benchmark harness matches on it.
    let via_manifest = DeckReader::open(&dir.join("deck.zsm")).unwrap();
    assert!(matches!(via_manifest, DeckReader::Sharded(_)));
    assert_eq!(via_manifest.len(), LINES);
    assert_eq!(via_manifest.shard_count(), 10);
    assert_eq!(via_manifest.get(10_000).unwrap(), expected_lines[10_000]);
    std::fs::write(dir.join("deck.zsa"), &single_bytes).unwrap();
    let via_file = DeckReader::open(&dir.join("deck.zsa")).unwrap();
    assert!(matches!(via_file, DeckReader::Single(_)));
    assert_eq!(via_file.len(), LINES);
    assert_eq!(via_file.shard_count(), 1);
    assert_eq!(via_file.get(10_000).unwrap(), expected_lines[10_000]);

    std::fs::remove_dir_all(&dir).ok();
}

/// An empty deck packed as a bare `.zsa` opens as an empty one-shard
/// deck; a damaged bare `.zsa` fails the strict and the degraded open
/// alike, with the container's own error — one file is the whole deck,
/// so there is nothing to quarantine.
#[test]
fn bare_files_open_as_one_shard_decks_or_fail_as_containers() {
    let dir = tmpdir("bare");
    let deck = molgen::Dataset::generate_mixed(40, 77);
    let empty = dir.join("empty.zsa");
    Archive::pack(dict_for(&deck, 0), b"", 1)
        .save(&empty)
        .unwrap();
    for reader in [
        ShardedReader::open(&empty).unwrap(),
        ShardedReader::open_degraded(&empty).unwrap(),
    ] {
        assert!(reader.is_empty());
        assert_eq!(reader.shard_count(), 1);
        assert!(!reader.is_degraded());
        assert!(matches!(
            reader.get(0).unwrap_err(),
            ZsmilesError::LineOutOfRange { line: 0, len: 0 }
        ));
        assert_eq!(reader.lines().count(), 0);
        let mut out = Vec::new();
        reader.unpack_to(&mut out, 2, 512).unwrap();
        assert!(out.is_empty());
        reader.verify().unwrap();
    }

    let good = dir.join("deck.zsa");
    Archive::pack(dict_for(&deck, 0), deck.as_bytes(), 1)
        .save(&good)
        .unwrap();
    let bytes = std::fs::read(&good).unwrap();
    let n = bytes.len();
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x01;
    let mut huge_dict = bytes.clone();
    huge_dict[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    let damaged = dir.join("damaged.zsa");
    for (what, m) in [
        ("truncated trailer", bytes[..n - 1].to_vec()),
        ("truncated to the header", bytes[..40].to_vec()),
        ("bad magic", bad_magic),
        ("dict_len past the bound", huge_dict),
    ] {
        std::fs::write(&damaged, &m).unwrap();
        let want = ArchiveReader::from_source(FileSource::open(&damaged).unwrap())
            .unwrap_err()
            .to_string();
        for err in [
            ShardedReader::open(&damaged).unwrap_err(),
            ShardedReader::open_degraded(&damaged).unwrap_err(),
        ] {
            assert!(
                matches!(err, ZsmilesError::ArchiveFormat { .. }),
                "{what}: {err}"
            );
            assert_eq!(err.to_string(), want, "{what}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file a sharded pack produces, as `(name, bytes)` in name order.
fn dir_snapshot(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The acceptance property of cross-shard parallel packing: `--threads N`
/// must be invisible in the output. Serial (threads=1) and parallel
/// (threads=3, threads=7) packs of the same deck — with interior blank
/// lines and both dictionary flavours — produce byte-identical manifests
/// and byte-identical shard files.
#[test]
fn parallel_sharded_pack_is_byte_identical_to_serial_across_thread_counts() {
    let deck = molgen::Dataset::generate_mixed(61, 314);
    let input = with_blank_lines(deck.as_bytes(), 4);

    for wide_size in [0usize, 32] {
        let dict = dict_for(&deck, wide_size);
        let mut snapshots = Vec::new();
        for threads in [1usize, 3, 7] {
            let dir = tmpdir(&format!("par_{wide_size}_{threads}"));
            let mut w = ShardedWriter::create(
                &dir.join("deck.zsm"),
                dict.clone(),
                ShardPolicy::by_lines(17),
                WriterOptions {
                    threads,
                    batch_bytes: 96,
                },
            )
            .unwrap();
            // Awkward chunk granularity: writes split lines mid-byte.
            for chunk in input.chunks(13) {
                w.write(chunk).unwrap();
            }
            let info = w.finish().unwrap();
            assert_eq!(info.lines as usize, deck.len(), "threads={threads}");

            // The pack still reads back line-for-line before comparison.
            let reader = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
            assert_eq!(reader.len(), deck.len());
            for i in [0usize, 16, 17, deck.len() - 1] {
                assert_eq!(
                    reader.get(i).unwrap(),
                    deck.line(i),
                    "wide={wide_size} threads={threads} line {i}"
                );
            }
            drop(reader);

            snapshots.push((threads, dir_snapshot(&dir)));
            std::fs::remove_dir_all(&dir).ok();
        }

        let (_, serial) = &snapshots[0];
        assert!(serial.len() > 2, "the deck must cut into multiple shards");
        for (threads, parallel) in &snapshots[1..] {
            assert_eq!(
                serial.len(),
                parallel.len(),
                "wide={wide_size} threads={threads}: same file set"
            );
            for ((sn, sb), (pn, pb)) in serial.iter().zip(parallel.iter()) {
                assert_eq!(sn, pn, "wide={wide_size} threads={threads}: file names");
                assert_eq!(
                    sb, pb,
                    "wide={wide_size} threads={threads}: {sn} bytes differ"
                );
            }
        }
    }
}
