//! The `.zsm` shard manifest as untrusted input: a seeded mutation fuzz
//! of `ShardManifest::read_from` over v1 and v2 manifests and the
//! committed `tests/fixtures/v3/sharded.zsm`, plus the named crashers it
//! keeps. Each mutant must parse or fail with a typed error, never
//! panic; every manifest that parses must write back and re-parse to
//! itself; and a deck opened through a mutant placed beside the real
//! shards must either refuse to open, or serve every line exactly as the
//! source `.smi` has it, or answer a quarantined line with a typed
//! `ShardUnavailable`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use proptest::test_runner::TestRng;
use zsmiles_core::{
    AnyDictionary, ShardManifest, ShardPolicy, ShardedReader, ShardedWriter, WriterOptions,
    ZsmilesError,
};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_manifest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fixture deck's 300 lines, newline excluded.
fn expected() -> Vec<Vec<u8>> {
    let smi = std::fs::read(fixtures().join("deck.smi")).unwrap();
    smi.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect()
}

/// Pack the fixture deck into `dir` as `deck.zsm` with 64-line shards:
/// a v1 manifest, or a v2 one when `generation` is set.
fn pack(dir: &Path, generation: u64) -> Vec<u8> {
    let dict = AnyDictionary::read(&std::fs::read(fixtures().join("deck.dct")).unwrap()).unwrap();
    let manifest = dir.join("deck.zsm");
    let mut w = ShardedWriter::create(
        &manifest,
        dict,
        ShardPolicy::by_lines(64),
        WriterOptions::default(),
    )
    .unwrap();
    w.set_generation(generation);
    w.write(&std::fs::read(fixtures().join("deck.smi")).unwrap())
        .unwrap();
    w.finish().unwrap();
    std::fs::read(manifest).unwrap()
}

/// The fixture's three shards copied into `dir`, and its manifest.
fn fixture_deck(dir: &Path) -> Vec<u8> {
    for s in 0..3 {
        let name = format!("sharded.{s:05}.zsa");
        std::fs::copy(fixtures().join(&name), dir.join(&name)).unwrap();
    }
    std::fs::read(fixtures().join("sharded.zsm")).unwrap()
}

/// Values a numeric field is set to: the edges of the line-count sum.
const FIELD_VALUES: [u64; 4] = [0, 1, 1 << 63, u64::MAX];

/// Seeded text mutations of one manifest: truncation at every offset,
/// then bit flips, inserted and deleted bytes at random offsets, then
/// every numeric field (line counts, byte sizes, CRCs, the generation)
/// set to each of [`FIELD_VALUES`], then every row that is not a comment
/// repeated (named "duplicate row r"; the fuzz requires each to be
/// refused).
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
    let text = std::str::from_utf8(raw).unwrap();
    let rows: Vec<&str> = text.lines().collect();
    for (r, row) in rows.iter().enumerate() {
        let fields: Vec<&str> = row.split(' ').collect();
        let numeric = match fields[0] {
            "lines" | "generation" => 1..2,
            "shard" => 2..fields.len(),
            _ => continue,
        };
        for f in numeric {
            for v in FIELD_VALUES {
                let mut edited = fields.clone();
                let v = v.to_string();
                edited[f] = &v;
                let mut rows = rows.clone();
                let joined = edited.join(" ");
                rows[r] = &joined;
                let m = format!("{}\n", rows.join("\n")).into_bytes();
                out.push((format!("row {r} field {f} = {v}"), m));
            }
        }
    }
    for (r, row) in rows.iter().enumerate() {
        if row.starts_with('#') {
            continue;
        }
        let mut rows = rows.clone();
        rows.insert(r, row);
        let m = format!("{}\n", rows.join("\n")).into_bytes();
        out.push((format!("duplicate row {r}"), m));
    }
    out
}

/// Parse one mutant: no panic, and an accepted manifest writes back to
/// text that parses to the same manifest.
fn parse_mutant(what: &str, m: &[u8]) -> bool {
    let parsed = catch_unwind(|| ShardManifest::read_from(m))
        .unwrap_or_else(|_| panic!("{what}: read_from panicked"));
    let Ok(manifest) = parsed else {
        return false;
    };
    let mut text = Vec::new();
    manifest.write_to(&mut text).unwrap();
    let back = ShardManifest::read_from(&text)
        .unwrap_or_else(|e| panic!("{what}: re-serialised manifest rejected: {e}"));
    assert_eq!(back, manifest, "{what}: re-parse differs");
    true
}

/// Open the deck through `manifest` both ways. Each open errors, or
/// serves every line as the `.smi` has it, a quarantined one as a typed
/// `ShardUnavailable`. Returns how many opens succeeded.
fn open_mutant(what: &str, manifest: &Path, want: &[Vec<u8>]) -> usize {
    let mut opened = 0;
    for degraded in [false, true] {
        let reader = catch_unwind(|| match degraded {
            false => ShardedReader::open(manifest),
            true => ShardedReader::open_degraded(manifest),
        })
        .unwrap_or_else(|_| panic!("{what}: open (degraded={degraded}) panicked"));
        let Ok(reader) = reader else {
            continue;
        };
        opened += 1;
        let read = catch_unwind(AssertUnwindSafe(|| {
            assert_eq!(reader.len(), want.len(), "{what}: line count");
            assert!(degraded || !reader.is_degraded(), "{what}: healthy open");
            for (i, line) in want.iter().enumerate() {
                match reader.get(i) {
                    Ok(got) => assert_eq!(&got, line, "{what}: line {i}"),
                    Err(ZsmilesError::ShardUnavailable { .. }) if degraded => {}
                    Err(e) => panic!("{what}: line {i}: {e}"),
                }
            }
            match reader.get_range(0..reader.len()) {
                Ok(all) => assert_eq!(all, want, "{what}: get_range"),
                Err(ZsmilesError::ShardUnavailable { .. }) if degraded => {}
                Err(e) => panic!("{what}: get_range: {e}"),
            }
        }));
        if read.is_err() {
            panic!("{what}: reading the opened deck (degraded={degraded}) failed");
        }
    }
    opened
}

#[test]
fn mutated_manifests_error_or_open_to_the_source_deck() {
    let want = expected();
    let v1_dir = tmpdir("v1");
    let v2_dir = tmpdir("v2");
    let fixture_dir = tmpdir("fixture");
    let inputs = [
        ("v1", pack(&v1_dir, 0), &v1_dir),
        ("v2", pack(&v2_dir, 7), &v2_dir),
        ("v3 fixture", fixture_deck(&fixture_dir), &fixture_dir),
    ];
    assert!(inputs[0].1.starts_with(b"#zsmiles-shards v1\n"));
    assert!(inputs[1].1.starts_with(b"#zsmiles-shards v2\n"));

    for (k, (name, raw, dir)) in inputs.iter().enumerate() {
        let path = dir.join("mutant.zsm");
        std::fs::write(&path, raw).unwrap();
        assert_eq!(
            open_mutant(name, &path, &want),
            2,
            "{name}: the original opens"
        );
        let (mut parsed, mut opened, mut cases) = (0, 0, 0);
        for (what, m) in mutants(raw, 0x25E + k as u64, 100) {
            let what = format!("{name}: {what}");
            cases += 1;
            let accepted = parse_mutant(&what, &m);
            assert!(
                !(accepted && what.contains(": duplicate row")),
                "{what}: a repeated row was accepted"
            );
            if accepted {
                parsed += 1;
                std::fs::write(&path, &m).unwrap();
                opened += open_mutant(&what, &path, &want);
            }
        }
        // The fuzz reaches past the parser: some mutants parse, some of
        // those still open (degraded, or a generation or a comment).
        assert!(
            0 < parsed && parsed < cases,
            "{name}: {parsed} of {cases} parsed"
        );
        assert!(opened > 0, "{name}: no mutant opened");
    }
    for dir in [v1_dir, v2_dir, fixture_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Regression: the shard rows' line counts were summed unchecked, so a
/// manifest whose counts add up past `u64::MAX` panicked with an overflow
/// in debug builds and, in release builds, wrapped to a 1-line deck.
#[test]
fn line_counts_summing_past_u64_are_a_format_error() {
    let text = "#zsmiles-shards v1\nflavor base\n\
                shard a.zsa 18446744073709551615 10 0\nshard b.zsa 2 10 0\n";
    let err = catch_unwind(|| ShardManifest::read_from(text.as_bytes()))
        .expect("read_from must not panic")
        .unwrap_err();
    assert!(
        matches!(&err, ZsmilesError::ManifestFormat { reason } if reason.contains("2^64")),
        "got {err}"
    );
    // The same rows with a declared total fail the same way.
    let declared = text.replace("flavor base\n", "flavor base\nlines 1\n");
    assert!(matches!(
        ShardManifest::read_from(declared.as_bytes()),
        Err(ZsmilesError::ManifestFormat { .. })
    ));
    // One line fewer fits, and is kept exactly.
    let fits = text.replace(" 2 10 0", " 0 10 0");
    let m = ShardManifest::read_from(fits.as_bytes()).unwrap();
    assert_eq!(m.total_lines(), u64::MAX);
}

/// Regression: a repeated `flavor` or `lines` row was taken silently, the
/// last one winning, while a repeated `generation` row was an error. Over
/// the fixture's shards, a manifest holding `lines 7`, `lines 300`,
/// `flavor wide` and `flavor base` opened as a 300-line base deck.
#[test]
fn repeated_flavor_or_lines_rows_are_a_format_error() {
    let dir = tmpdir("repeated");
    let raw = String::from_utf8(fixture_deck(&dir)).unwrap();
    let shard_rows: String = raw
        .lines()
        .filter(|l| l.starts_with("shard "))
        .map(|l| format!("{l}\n"))
        .collect();
    let path = dir.join("repeated.zsm");
    for (header, want) in [
        (
            "lines 7\nlines 300\nflavor wide\nflavor base\n",
            "duplicate 'lines'",
        ),
        (
            "flavor wide\nflavor base\nlines 7\nlines 300\n",
            "duplicate 'flavor'",
        ),
        ("flavor base\nlines 300\nlines 300\n", "duplicate 'lines'"),
        (
            "flavor base\nflavor base\nlines 300\n",
            "duplicate 'flavor'",
        ),
    ] {
        let text = format!("#zsmiles-shards v1\n{header}{shard_rows}");
        let err = ShardManifest::read_from(text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ZsmilesError::ManifestFormat { reason } if reason.contains(want)),
            "{header:?}: got {err}"
        );
        std::fs::write(&path, &text).unwrap();
        assert!(ShardedReader::open(&path).is_err(), "{header:?} opened");
    }
    // Each row once: the 300-line base deck.
    std::fs::write(
        &path,
        format!("#zsmiles-shards v1\nflavor base\nlines 300\n{shard_rows}"),
    )
    .unwrap();
    assert_eq!(ShardedReader::open(&path).unwrap().len(), 300);
    std::fs::remove_dir_all(dir).ok();
}
