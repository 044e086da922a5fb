//! Decks packed by an earlier release keep opening. `tests/fixtures/v3/`
//! holds a 300-line deck packed when every writer emitted the v3 line
//! index (two `u64`s per line): a single `.zsa`, a 3-shard `.zsm`, and a
//! loose `.zsmi` with its `.zsx` sidecar (see the README there). Every
//! line must read back byte-identical to the source `.smi` through every
//! read surface.

use std::path::{Path, PathBuf};
use zsmiles::zsmiles_core::{
    check_deck, AnyDictionary, Archive, ArchiveReader, Compressor, ShardMeta, ShardedReader,
};

fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3")
}

fn expected() -> Vec<Vec<u8>> {
    let smi = std::fs::read(dir().join("deck.smi")).unwrap();
    let lines: Vec<Vec<u8>> = smi.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    // A trailing newline leaves one empty tail.
    let lines = lines[..lines.len() - 1].to_vec();
    assert_eq!(lines.len(), 300);
    lines
}

#[test]
fn v3_single_file_deck_reads_byte_identically() {
    let want = expected();
    let path = dir().join("deck.zsa");

    let archive = Archive::open(&path).unwrap();
    assert_eq!(archive.index().wire_version(), Some(3), "fixture is v3");
    assert_eq!(archive.get_range(0..want.len()).unwrap(), want);

    let reader = ArchiveReader::open(&path).unwrap();
    assert_eq!(reader.index().wire_version(), Some(3));
    reader.verify().unwrap();
    for (i, line) in want.iter().enumerate() {
        assert_eq!(&reader.get(i).unwrap(), line, "ArchiveReader line {i}");
    }
    let streamed: Vec<Vec<u8>> = reader.lines().map(Result::unwrap).collect();
    assert_eq!(streamed, want);

    // The one deck reader opens the bare file as a one-shard deck whose
    // manifest row is the container's own metadata.
    let deck = ShardedReader::open(&path).unwrap();
    assert_eq!(deck.shard_count(), 1);
    assert_eq!(
        deck.manifest().shards(),
        [ShardMeta {
            file: "deck.zsa".into(),
            lines: 300,
            file_bytes: std::fs::metadata(&path).unwrap().len(),
            crc32: reader.container_crc(),
        }]
    );
    for (i, line) in want.iter().enumerate() {
        assert_eq!(&deck.get(i).unwrap(), line, "ShardedReader line {i}");
    }
    let streamed: Vec<Vec<u8>> = deck.lines().map(Result::unwrap).collect();
    assert_eq!(streamed, want);
    let mut unpacked = Vec::new();
    deck.unpack_to(&mut unpacked, 2, 1024).unwrap();
    assert_eq!(unpacked, std::fs::read(dir().join("deck.smi")).unwrap());
    deck.verify().unwrap();

    let report = check_deck(&path).unwrap();
    assert!(report.is_ok(), "{}", report.to_json());
    assert_eq!(report.lines_ok, 300);
}

#[test]
fn v3_sharded_deck_reads_byte_identically() {
    let want = expected();
    let path = dir().join("sharded.zsm");

    let sharded = ShardedReader::open(&path).unwrap();
    assert_eq!(sharded.shard_count(), 3);
    for s in 0..3 {
        let shard = sharded.shard_reader(s).unwrap();
        assert_eq!(shard.index().wire_version(), Some(3), "shard {s}");
    }
    sharded.verify().unwrap();
    assert_eq!(sharded.get_range(0..want.len()).unwrap(), want);

    let deck = ShardedReader::open(&path).unwrap();
    for (i, line) in want.iter().enumerate() {
        assert_eq!(&deck.get(i).unwrap(), line, "ShardedReader line {i}");
    }
    let mut unpacked = Vec::new();
    deck.unpack_to(&mut unpacked, 2, 1024).unwrap();
    assert_eq!(unpacked, std::fs::read(dir().join("deck.smi")).unwrap());

    let report = check_deck(&path).unwrap();
    assert!(report.is_ok(), "{}", report.to_json());
    assert_eq!(report.lines_ok, 300);
}

#[test]
fn v3_sidecar_reads_byte_identically_through_cli_get() {
    let want = expected();
    let zsmi = dir().join("deck.zsmi");
    let sidecar = dir().join("deck.zsmi.zsx");
    assert_eq!(&std::fs::read(&sidecar).unwrap()[..8], b"ZSXIDX03");
    let dict = AnyDictionary::load(&dir().join("deck.dct")).unwrap();
    for (i, line) in want.iter().enumerate() {
        let got = zsmiles_cli::commands::get_loose_line(&zsmi, &dict, i).unwrap();
        assert_eq!(&got, line, "get -i deck.zsmi line {i}");
    }
    assert!(zsmiles_cli::commands::get_loose_line(&zsmi, &dict, want.len()).is_err());
}

/// The encoder's output is pinned to archives earlier builds wrote: every
/// line of `deck.smi`, re-encoded with `deck.dct` (trained with `lmax
/// 12`, so patterns reach past 8 bytes), must equal the committed
/// `deck.zsa` line and the committed `deck.zsmi` line byte for byte.
#[test]
fn v3_decks_reencode_byte_identically() {
    let want = expected();
    let dict = AnyDictionary::load(&dir().join("deck.dct")).unwrap();
    let AnyDictionary::Base(dict) = &dict else {
        panic!("fixture dictionary is base");
    };
    assert!(dict.trie().max_depth() > 8, "lanes past 8 are exercised");
    let archive = Archive::open(&dir().join("deck.zsa")).unwrap();
    let zsmi = std::fs::read(dir().join("deck.zsmi")).unwrap();
    let loose: Vec<&[u8]> = zsmi.split(|&b| b == b'\n').take(want.len()).collect();
    let mut enc = Compressor::new(dict);
    for (i, line) in want.iter().enumerate() {
        let mut z = Vec::new();
        enc.compress_line(line, &mut z);
        assert_eq!(z, archive.compressed_line(i).unwrap(), ".zsa line {i}");
        assert_eq!(z, loose[i], ".zsmi line {i}");
    }
}
