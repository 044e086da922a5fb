//! Corruption hardening, end to end: flip any single byte of a packed
//! container and every read path — direct file I/O, mmap, the shared
//! block cache, and the wire — returns correct bytes or a typed error,
//! never a panic, a hang, or *undetected* wrong bytes (the container CRC
//! catches every single-byte flip that the open itself does not). A pack
//! killed at any injected fault point publishes nothing that parses as a
//! valid deck.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::serve::{QueryClient, ServeOptions, Server};
use zsmiles_core::shard::ShardPolicy;
use zsmiles_core::{
    check_deck, Archive, ArchiveReader, ArchiveWriter, AutoSource, BlockCache, DictBuilder, Fault,
    FaultySink, FaultySource, FileSink, InMemorySink, InMemorySource, ShardedWriter,
    WideDictBuilder, WriterOptions, ZsmilesError,
};

fn deck_lines() -> Vec<&'static [u8]> {
    let lines: [&[u8]; 5] = [
        b"COc1cc(C=O)ccc1O",
        b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
        b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
        b"CCN(CC)CC",
        b"CC(=O)Oc1ccccc1C(=O)O",
    ];
    lines.iter().copied().cycle().take(60).collect()
}

fn deck_bytes() -> Vec<u8> {
    deck_lines()
        .iter()
        .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
        .collect()
}

fn dict(wide: bool) -> AnyDictionary {
    let base = DictBuilder {
        min_count: 2,
        preprocess: false,
        ..Default::default()
    };
    if wide {
        AnyDictionary::Wide(Box::new(
            WideDictBuilder {
                base,
                wide_size: 32,
            }
            .train(deck_lines())
            .unwrap(),
        ))
    } else {
        AnyDictionary::Base(Box::new(base.train(deck_lines()).unwrap()))
    }
}

/// A complete `.zsa` container in memory, either flavour.
fn packed(wide: bool) -> Vec<u8> {
    let mut w =
        ArchiveWriter::with_options(InMemorySink::new(), dict(wide), WriterOptions::default())
            .unwrap();
    w.write(&deck_bytes()).unwrap();
    let (sink, _) = w.finish().unwrap();
    sink.into_bytes()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_it_corrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The hardening contract for one corrupted container on one source:
/// every line either reads back correct or errors typed, and the
/// corruption never goes *undetected* — if the open succeeds, the CRC
/// pass must catch the flip.
fn assert_detected_or_typed<S: zsmiles_core::ArchiveSource>(source: S, expected: &[&[u8]]) {
    match ArchiveReader::from_source(source) {
        Err(_) => {} // typed refusal at open is a pass
        Ok(reader) => {
            assert!(
                reader.verify().is_err(),
                "a single-byte flip must fail the CRC pass when the open accepts the file"
            );
            // Reads still never panic — correct bytes or typed errors.
            for (i, want) in expected.iter().enumerate() {
                if let Ok(got) = reader.get(i) {
                    // Wrong bytes are tolerable only because verify()
                    // above already flagged the container.
                    let _ = got == *want;
                }
            }
            let _ = reader.get_range(0..expected.len().min(7));
            let _ = reader.get_many(&[0, expected.len() - 1]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip any single byte of a packed `.zsa`: the in-memory, file,
    /// mmap and cached read paths all refuse at open or fail the CRC
    /// pass, and no access panics. Both dictionary flavours.
    #[test]
    fn single_byte_flip_is_always_detected(
        pos_seed in any::<u64>(),
        bit in 0u8..8,
        wide in any::<bool>(),
    ) {
        let mut bytes = packed(wide);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let expected = deck_lines();

        // In-memory source (the pure-logic path).
        assert_detected_or_typed(InMemorySource::new(bytes.clone()), &expected);
        // The all-in-memory convenience view must also refuse.
        prop_assert!(Archive::read_from(&bytes).is_err());

        // On-disk paths: mmap-or-platform-default and the block cache.
        let dir = tmpdir("flip");
        let path = dir.join(format!("flip_{pos}_{bit}_{wide}.zsa"));
        std::fs::write(&path, &bytes).unwrap();
        assert_detected_or_typed(AutoSource::open(&path).unwrap(), &expected);
        let cache = Arc::new(BlockCache::new(64, 1 << 20));
        assert_detected_or_typed(
            AutoSource::open_cached_with(&path, cache).unwrap(),
            &expected,
        );
        // The fsck walk agrees and names the damage instead of panicking.
        let report = check_deck(&path).unwrap();
        prop_assert!(!report.is_ok(), "check must flag the flip: {}", report.to_json());
        std::fs::remove_file(&path).ok();
    }

    /// A storage layer that injects faults *under* a valid container —
    /// flipped bits, silent short reads, errors, truncation — surfaces
    /// only correct bytes or typed errors through the reader.
    #[test]
    fn faulty_source_reads_never_panic(
        seed in any::<u64>(),
        at_op in 0u64..24,
        fault_pick in 0u8..3,
        wide in any::<bool>(),
    ) {
        let bytes = packed(wide);
        let fault = match fault_pick {
            0 => Fault::Error,
            1 => Fault::FlipBit,
            _ => Fault::Short,
        };
        let src = FaultySource::new(InMemorySource::new(bytes.clone()), seed)
            .with_fault(at_op, fault);
        let expected = deck_lines();
        if let Ok(reader) = ArchiveReader::from_source(src) {
            for (i, want) in expected.iter().enumerate() {
                match reader.get(i) {
                    Ok(got) => {
                        if got != *want {
                            // Wrong bytes require the fault to be
                            // detectable by the CRC pass on a clean
                            // re-walk... but the fault here is transient
                            // (one op), so re-reading must self-heal.
                            prop_assert_eq!(reader.get(i).unwrap(), want.to_vec());
                        }
                    }
                    Err(e) => prop_assert!(
                        !matches!(e, ZsmilesError::Preprocess(_)),
                        "storage faults surface as storage-shaped errors, got {e}"
                    ),
                }
            }
            let _ = reader.verify();
        }

        // A truncated view is a typed refusal, never a panic or a hang.
        let cut = (seed % bytes.len() as u64).max(1);
        let truncated = FaultySource::new(InMemorySource::new(bytes), seed).truncated(cut);
        let _ = ArchiveReader::from_source(truncated);
    }
}

// ---------------------------------------------------------------------------
// Crash-safe packing
// ---------------------------------------------------------------------------

/// Kill a pack at every fault point, for every fault kind: whatever
/// reached the medium is either byte-identical to a *complete* clean
/// container or does not parse as one. (In the real flow the
/// `AtomicFileSink` rename additionally unpublishes every failed case —
/// this sweep proves even the torn bytes themselves are safe.)
#[test]
fn killed_pack_never_leaves_a_parseable_container() {
    let dir = tmpdir("killpack");
    for wide in [false, true] {
        let clean = packed(wide);
        let total_ops = {
            // Count a clean pack's sink ops so the sweep covers them all.
            let mut w = ArchiveWriter::with_options(
                FaultySink::new(InMemorySink::new(), 1),
                dict(wide),
                WriterOptions::default(),
            )
            .unwrap();
            w.write(&deck_bytes()).unwrap();
            let (sink, _) = w.finish().unwrap();
            assert!(Archive::read_from(sink.inner().bytes()).is_ok());
            sink.ops()
        };
        assert!(total_ops > 4, "sweep has fault points to cover");
        for kill_at in 0..total_ops {
            for fault in [Fault::Error, Fault::Short, Fault::FlipBit] {
                let path = dir.join(format!("kill_{wide}_{kill_at}_{fault:?}.zsa"));
                let result = FileSink::create(&path)
                    .map(|f| FaultySink::new(f, 7).with_fault(kill_at, fault))
                    .and_then(|sink| {
                        ArchiveWriter::with_options(sink, dict(wide), WriterOptions::default())
                    })
                    .and_then(|mut w| {
                        w.write(&deck_bytes())?;
                        w.finish().map(|_| ())
                    });
                let leftover = std::fs::read(&path).unwrap_or_default();
                if result.is_ok() && !matches!(fault, Fault::FlipBit) {
                    // Error/Short only pass through on a payload-free op
                    // (a flush) — then the pack must be byte-perfect.
                    assert_eq!(
                        leftover, clean,
                        "a {fault:?} at op {kill_at} of {total_ops} reported success"
                    );
                }
                assert!(
                    leftover == clean || Archive::read_from(&leftover).is_err(),
                    "{fault:?} at op {kill_at} left a half-valid container \
                     ({} bytes, clean is {})",
                    leftover.len(),
                    clean.len()
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The filesystem-level guarantee: a pack that never reaches `finish`
/// leaves no deck at the destination — only inert temp files — and a
/// re-pack over an existing deck replaces it atomically.
#[test]
fn unfinished_pack_publishes_nothing() {
    let dir = tmpdir("unfinished");
    let zsm = dir.join("deck.zsm");

    // Abandon a pack mid-flight (simulates a crash before finish()).
    {
        let mut w = ShardedWriter::create(
            &zsm,
            dict(false),
            ShardPolicy::by_lines(16),
            WriterOptions::default(),
        )
        .unwrap();
        w.write(&deck_bytes()).unwrap();
        // dropped without finish()
    }
    assert!(!zsm.exists(), "no manifest published");
    // Completed shards are published individually (each rename is its own
    // atomic commit) — but the *deck* commit point is the manifest, so
    // nothing opens, and every published shard must be a complete
    // container, never a torn one. The in-progress shard stays a `.tmp`.
    let published: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "zsa" || x == "zsm"))
        .collect();
    for shard in &published {
        let reader = ArchiveReader::from_source(AutoSource::open(shard).unwrap())
            .unwrap_or_else(|e| panic!("published shard {shard:?} is torn: {e}"));
        reader.verify().unwrap();
    }
    assert!(
        zsmiles_core::ShardedReader::open(&zsm).is_err(),
        "the deck must not open without its manifest"
    );

    // A completed pack publishes; an abandoned re-pack leaves it intact.
    let mut w = ShardedWriter::create(
        &zsm,
        dict(false),
        ShardPolicy::by_lines(16),
        WriterOptions::default(),
    )
    .unwrap();
    w.write(&deck_bytes()).unwrap();
    w.finish().unwrap();
    assert!(check_deck(&zsm).unwrap().is_ok());
    let before = std::fs::read(&zsm).unwrap();

    {
        let mut w2 = ShardedWriter::create(
            &zsm,
            dict(false),
            ShardPolicy::by_lines(16),
            WriterOptions::default(),
        )
        .unwrap();
        w2.write(&deck_bytes()[..40]).unwrap();
        // dropped without finish()
    }
    assert_eq!(
        std::fs::read(&zsm).unwrap(),
        before,
        "the old manifest survives an abandoned re-pack"
    );
    assert!(check_deck(&zsm).unwrap().is_ok(), "old deck still sound");

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Degraded serving over the wire
// ---------------------------------------------------------------------------

/// One quarantined shard: the deck serves every other shard over TCP
/// byte-exactly, health reports degraded, unavailable lines come back as
/// typed errors, and a flip to a repaired deck restores ok.
#[test]
fn degraded_deck_serves_healthy_shards_over_the_wire() {
    let dir = tmpdir("degraded_wire");
    let pack_at = |name: &str, generation: u64| {
        let path = dir.join(name);
        let mut w = ShardedWriter::create(
            &path,
            dict(false),
            ShardPolicy::by_lines(20),
            WriterOptions::default(),
        )
        .unwrap();
        w.set_generation(generation);
        w.write(&deck_bytes()).unwrap();
        w.finish().unwrap();
        path
    };
    let zsm = pack_at("deck.zsm", 1);
    let repaired = pack_at("repaired.zsm", 2);
    let expected = deck_lines();

    // Quarantine the middle shard (lines 20..40) by moving it aside.
    std::fs::rename(
        dir.join("deck.00001.zsa"),
        dir.join("deck.00001.zsa.quarantined"),
    )
    .unwrap();

    let handle = Server::start(
        &zsm,
        "127.0.0.1:0",
        ServeOptions {
            degraded: true,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = QueryClient::connect(handle.addr()).unwrap();

    let health = client.health().unwrap();
    assert!(!health.ok);
    assert_eq!(health.generation, 1);
    assert_eq!(health.total_shards, 3);
    assert_eq!(health.quarantined_shards, 1);
    assert_eq!(health.unavailable_lines, 20);

    // Every healthy line byte-matches the original; every quarantined
    // line is a typed error that names the shard.
    for (i, want) in expected.iter().enumerate() {
        if (20..40).contains(&i) {
            let err = client.get(i as u64).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("Unavailable") && msg.contains("deck.00001.zsa"),
                "line {i}: {msg}"
            );
        } else {
            assert_eq!(client.get(i as u64).unwrap(), *want, "line {i}");
        }
    }
    // Batched reads spanning the hole fail typed, not partially.
    assert!(client.get_range(10, 30).is_err());
    assert!(client.get_many(&[0, 25, 59]).is_err());

    // Flip to the repaired generation: health is ok, the hole is gone.
    assert_eq!(client.flip(repaired.to_str().unwrap()).unwrap(), 2);
    let health = client.health().unwrap();
    assert!(health.ok);
    assert_eq!(health.quarantined_shards, 0);
    assert_eq!(client.get(25).unwrap(), expected[25]);

    client.shutdown().unwrap();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
