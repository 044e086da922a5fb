//! What a deck costs on disk, as the `zsmiles` binary reports it: `pack`
//! prints the stored ratio (bytes on disk ÷ raw input bytes) beside the
//! payload ratio, and `inspect --archive` prints the line index's wire
//! version and bytes per line, per shard under `--verbose`, and what the
//! open index holds in memory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn zsmiles(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_zsmiles"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "zsmiles {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The decks an earlier release packed, with the v3 line index.
const V3: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/v3");

/// A fresh temporary directory holding a 3000-line deck and, as
/// `deck.dct`, the dictionary the v3 fixture deck was packed with.
fn deck(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_footprint_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let smi = dir.join("deck.smi").to_string_lossy().into_owned();
    zsmiles(&[
        "gen",
        "--profile",
        "mixed",
        "-n",
        "3000",
        "--seed",
        "5",
        "-o",
        &smi,
    ]);
    std::fs::copy(format!("{V3}/deck.dct"), dir.join("deck.dct")).unwrap();
    dir
}

/// The number after `key` in `text`, e.g. `field("... (stored ratio 0.4 ...", "stored ratio ")`.
fn field(text: &str, key: &str) -> f64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no '{key}' in {text}"))
        + key.len();
    let num: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().unwrap()
}

/// Bytes per line the open line index holds in memory, from the
/// `index in memory: N bytes, X B/line` line of `inspect --archive`.
fn in_memory_per_line(text: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.starts_with("index in memory: "))
        .unwrap_or_else(|| panic!("no in-memory index line in {text}"));
    field(line, "bytes, ")
}

fn size(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

#[test]
fn pack_reports_the_stored_ratio_beside_the_payload_ratio() {
    let dir = deck("pack");
    let p = |f: &str| dir.join(f).to_string_lossy().into_owned();
    let raw = size(&dir.join("deck.smi"));

    let out = zsmiles(&[
        "pack",
        "-i",
        &p("deck.smi"),
        "-d",
        &p("deck.dct"),
        "-o",
        &p("deck.zsa"),
    ]);
    let on_disk = size(&dir.join("deck.zsa"));
    assert_eq!(field(&out, "), ") as u64, on_disk, "{out}");
    assert_eq!(field(&out, " of ") as u64, raw, "{out}");
    let stored = field(&out, "stored ratio ");
    assert!(
        (stored - on_disk as f64 / raw as f64).abs() < 0.0005,
        "{out}"
    );
    // The index and dictionary cost something, but far less than the
    // 16 bytes a line the v3 index spent.
    let payload = field(&out, "(ratio ");
    assert!(payload < stored && stored < payload + 0.15, "{out}");

    let out = zsmiles(&[
        "pack",
        "-i",
        &p("deck.smi"),
        "-d",
        &p("deck.dct"),
        "-o",
        &p("deck.zsm"),
        "--shard-lines",
        "1000",
    ]);
    let shards: u64 = (0..3)
        .map(|s| size(&dir.join(format!("deck.{s:05}.zsa"))))
        .sum();
    let on_disk = shards + size(&dir.join("deck.zsm"));
    assert_eq!(field(&out, "shard(s), ") as u64, on_disk, "{out}");
    let stored = field(&out, "stored ratio ");
    assert!(
        (stored - on_disk as f64 / raw as f64).abs() < 0.0005,
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_reports_the_index_wire_version_and_bytes_per_line() {
    let dir = deck("inspect");
    let p = |f: &str| dir.join(f).to_string_lossy().into_owned();
    zsmiles(&[
        "pack",
        "-i",
        &p("deck.smi"),
        "-d",
        &p("deck.dct"),
        "-o",
        &p("deck.zsa"),
        "--quiet",
    ]);
    let out = zsmiles(&["inspect", "--archive", &p("deck.zsa")]);
    assert!(out.contains("index v4, "), "{out}");
    assert!(field(&out, "bytes, ") <= 1.05, "{out}");
    // Held as block anchors and one length byte a line, not two u64s.
    assert!(in_memory_per_line(&out) <= 2.0, "{out}");
    // At least one byte a line, plus the 24-byte head and the CRC.
    assert!(
        field(&out, "index v4, ") >= field(&out, "archive: ") + 28.0,
        "{out}"
    );

    zsmiles(&[
        "pack",
        "-i",
        &p("deck.smi"),
        "-d",
        &p("deck.dct"),
        "-o",
        &p("deck.zsm"),
        "--shard-lines",
        "1000",
        "--quiet",
    ]);
    let out = zsmiles(&["inspect", "--archive", &p("deck.zsm"), "--verbose"]);
    assert!(in_memory_per_line(&out) <= 2.0, "{out}");
    let per_shard: Vec<&str> = out.lines().filter(|l| l.contains(".zsa")).collect();
    assert_eq!(per_shard.len(), 3, "{out}");
    for line in per_shard {
        assert!(line.contains("index v4, "), "{line}");
        assert!(field(line, "bytes, ") <= 1.05, "{line}");
    }

    // A deck packed before version 4 says so, at its old cost.
    let out = zsmiles(&["inspect", "--archive", &format!("{V3}/deck.zsa")]);
    assert!(out.contains("index v3, 4824 bytes, 16.08 B/line"), "{out}");
    let out = zsmiles(&[
        "inspect",
        "--archive",
        &format!("{V3}/sharded.zsm"),
        "--verbose",
    ]);
    assert_eq!(out.matches("index v3, 1624 bytes").count(), 3, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}
