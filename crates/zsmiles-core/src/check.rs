//! Deep verify and repair — `fsck` for decks.
//!
//! The reader's open-time cross-checks and opt-in `verify()` CRC pass
//! catch most damage lazily, at the moment a read trips over it. This
//! module is the eager counterpart: [`check_deck`] walks **everything**
//! — container header/footer/layout, embedded dictionary, line index,
//! streaming CRC, a full per-line decode, and (for sharded decks) every
//! manifest cross-check — and reports per-shard findings instead of
//! stopping at the first, so an operator sees the whole blast radius of
//! an incident in one pass.
//!
//! Two recovery verbs operate on a report:
//!
//! * [`repair_deck`] — *metadata* repair. A shard that is internally
//!   sound but disagrees with its manifest row (stale `lines`/`bytes`/
//!   `crc32` after a partial restore, a corrupted manifest rewritten
//!   from backup) gets its row rewritten from the actual file,
//!   atomically. Payload damage is untouched: repair never invents
//!   bytes.
//! * [`quarantine_shards`] — move each damaged shard file aside to
//!   `<name>.quarantined`. The manifest keeps its row, so global line
//!   numbering is stable and a degraded open
//!   ([`crate::shard::ShardedReader::open_degraded`]) serves everything
//!   else while the quarantined lines answer
//!   [`crate::error::ZsmilesError::ShardUnavailable`].
//!
//! The report renders as JSON ([`CheckReport::to_json`]) so orchestration
//! can parse it without scraping log lines.

use crate::error::ZsmilesError;
use crate::reader::ArchiveReader;
use crate::shard::{check_shard_meta, is_manifest, ShardManifest, ShardMeta};
use crate::source::AutoSource;
use std::path::{Path, PathBuf};

/// One checked container (a single `.zsa`, or one shard of a `.zsm`).
#[derive(Debug, Clone)]
pub struct ShardCheck {
    /// File name (manifest-relative for shards, the input path for a
    /// single archive).
    pub file: String,
    /// Lines the container actually decodes (0 when it would not open).
    pub lines: u64,
    /// Container bytes on disk (0 when the file is missing).
    pub file_bytes: u64,
    /// Every integrity failure found, in check order. Empty = sound.
    pub errors: Vec<String>,
    /// Whether the shard is internally sound (opens, CRC passes, every
    /// line decodes) even if its manifest row disagrees — the class
    /// [`repair_deck`] can fix by rewriting the row.
    pub internally_sound: bool,
}

impl ShardCheck {
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// What [`check_deck`] found.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The deck path checked.
    pub path: PathBuf,
    /// `"single"` or `"sharded"`.
    pub layout: &'static str,
    /// Manifest generation (0 for single files / v1 manifests).
    pub generation: u64,
    /// Total decodable lines across sound containers.
    pub lines_ok: u64,
    /// Per-container findings, manifest order.
    pub shards: Vec<ShardCheck>,
}

impl CheckReport {
    /// Containers with at least one failure.
    pub fn bad_shards(&self) -> impl Iterator<Item = &ShardCheck> {
        self.shards.iter().filter(|s| !s.is_ok())
    }

    pub fn bad_count(&self) -> usize {
        self.bad_shards().count()
    }

    pub fn is_ok(&self) -> bool {
        self.bad_count() == 0
    }

    /// Render as JSON for orchestration. Hand-rolled (the workspace is
    /// hermetic — no serde); strings are escaped per RFC 8259.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.shards.len() * 128);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"path\": {},\n",
            json_str(&self.path.to_string_lossy())
        ));
        out.push_str(&format!("  \"layout\": {},\n", json_str(self.layout)));
        out.push_str(&format!("  \"generation\": {},\n", self.generation));
        out.push_str(&format!(
            "  \"status\": {},\n",
            json_str(if self.is_ok() { "ok" } else { "bad" })
        ));
        out.push_str(&format!("  \"shards_total\": {},\n", self.shards.len()));
        out.push_str(&format!("  \"shards_bad\": {},\n", self.bad_count()));
        out.push_str(&format!("  \"lines_ok\": {},\n", self.lines_ok));
        out.push_str("  \"shards\": [\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"file\": {}, ", json_str(&s.file)));
            out.push_str(&format!(
                "\"status\": {}, ",
                json_str(if s.is_ok() { "ok" } else { "bad" })
            ));
            out.push_str(&format!("\"lines\": {}, ", s.lines));
            out.push_str(&format!("\"bytes\": {}, ", s.file_bytes));
            out.push_str(&format!("\"internally_sound\": {}, ", s.internally_sound));
            out.push_str("\"errors\": [");
            for (j, e) in s.errors.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(e));
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.shards.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The internal soundness pass every container gets: open (header /
/// dictionary / line-index / layout cross-checks), streaming CRC, and a
/// decode of every line. Returns the reader (for callers that go on to
/// cross-check the manifest row) plus the findings.
fn check_container(path: &Path, name: &str) -> (Option<ArchiveReader<AutoSource>>, ShardCheck) {
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut check = ShardCheck {
        file: name.to_string(),
        lines: 0,
        file_bytes,
        errors: Vec::new(),
        internally_sound: false,
    };
    let reader = match AutoSource::open(path).and_then(ArchiveReader::from_source) {
        Ok(r) => r,
        Err(e) => {
            check.errors.push(format!("open: {e}"));
            return (None, check);
        }
    };
    check.lines = reader.len() as u64;
    let mut sound = true;
    if let Err(e) = reader.verify() {
        check.errors.push(format!("crc: {e}"));
        sound = false;
    }
    // Per-line decode: the CRC can pass while the *index* lies about line
    // boundaries only if the container was re-signed; decode catches
    // payload that no dictionary walk accepts either way.
    let mut decoded = 0u64;
    for line in reader.lines_batched(crate::reader::DEFAULT_BATCH_BYTES) {
        match line {
            Ok(_) => decoded += 1,
            Err(e) => {
                check.errors.push(format!("decode at line {decoded}: {e}"));
                sound = false;
                break;
            }
        }
    }
    if sound && decoded != reader.len() as u64 {
        check.errors.push(format!(
            "decode: {decoded} of {} lines produced",
            reader.len()
        ));
        sound = false;
    }
    check.internally_sound = sound;
    (Some(reader), check)
}

/// Deep-verify a deck — single `.zsa` or sharded `.zsm` — and report
/// every finding. Only an unreadable/unparseable manifest (there is no
/// shard table to walk) or a missing input is a hard error; everything
/// else lands in the report.
pub fn check_deck(path: &Path) -> Result<CheckReport, ZsmilesError> {
    if !is_manifest(path)? {
        // A single file carries no manifest row to disagree with:
        // internally sound IS sound.
        let (_, check) = check_container(path, &path.to_string_lossy());
        let lines_ok = if check.is_ok() { check.lines } else { 0 };
        return Ok(CheckReport {
            path: path.to_path_buf(),
            layout: "single",
            generation: 0,
            lines_ok,
            shards: vec![check],
        });
    }

    let manifest = ShardManifest::load(path)?;
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
    let mut shards = Vec::with_capacity(manifest.shards().len());
    let mut lines_ok = 0u64;
    // Reference dictionary: the first sound shard whose row also
    // matches, same rule the degraded open uses.
    let mut first_dict: Option<(String, Vec<u8>)> = None;
    for meta in manifest.shards() {
        let (reader, mut check) = check_container(&dir.join(&meta.file), &meta.file);
        if let Some(reader) = reader {
            if let Err(e) = check_shard_meta(&reader, meta, manifest.flavor()) {
                check.errors.push(format!("manifest: {e}"));
            }
            let mut dict_bytes = Vec::new();
            if let Err(e) = reader.dictionary().write(&mut dict_bytes) {
                check.errors.push(format!("dictionary: {e}"));
            } else {
                match &first_dict {
                    None => first_dict = Some((meta.file.clone(), dict_bytes)),
                    Some((ref_file, first)) if *first != dict_bytes => {
                        check.errors.push(format!(
                            "dictionary: embedded dictionary differs from shard {ref_file}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        if check.is_ok() {
            lines_ok += check.lines;
        }
        shards.push(check);
    }
    Ok(CheckReport {
        path: path.to_path_buf(),
        layout: "sharded",
        generation: manifest.generation(),
        lines_ok,
        shards,
    })
}

/// What a repair pass did.
#[derive(Debug, Clone, Default)]
pub struct RepairOutcome {
    /// Manifest rows rewritten from internally-sound shard files.
    pub rows_rewritten: Vec<String>,
    /// Shards too damaged for metadata repair (payload corrupt or file
    /// missing) — candidates for [`quarantine_shards`].
    pub unrepairable: Vec<String>,
}

/// Metadata repair: for every shard the report flags as *internally
/// sound* but mismatching its manifest row, rewrite the row
/// (`lines`/`bytes`/`crc32`) from the actual file and atomically save
/// the manifest. Shards with payload damage are reported, not touched —
/// repair never invents data. Returns what changed.
pub fn repair_deck(path: &Path, report: &CheckReport) -> Result<RepairOutcome, ZsmilesError> {
    if report.layout != "sharded" {
        return Err(ZsmilesError::Unsupported {
            what: "repair of single-file archives (re-pack from the source deck instead)".into(),
        });
    }
    let manifest = ShardManifest::load(path)?;
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
    let mut outcome = RepairOutcome::default();
    let mut rows: Vec<ShardMeta> = manifest.shards().to_vec();
    for (row, check) in rows.iter_mut().zip(&report.shards) {
        debug_assert_eq!(row.file, check.file, "report rows parallel the manifest");
        if check.is_ok() {
            continue;
        }
        if !check.internally_sound {
            outcome.unrepairable.push(check.file.clone());
            continue;
        }
        // Internally sound, row wrong: re-derive the row from the file.
        let reader = ArchiveReader::from_source(AutoSource::open(&dir.join(&row.file))?)?;
        *row = ShardMeta::of(std::mem::take(&mut row.file), &reader);
        outcome.rows_rewritten.push(check.file.clone());
    }
    if !outcome.rows_rewritten.is_empty() {
        ShardManifest::new(manifest.flavor(), rows)
            .with_generation(manifest.generation())
            .save(path)?;
    }
    Ok(outcome)
}

/// Move every damaged shard in `report` aside to `<name>.quarantined`
/// (the manifest row stays, so global line numbering is preserved and a
/// degraded open serves the rest). Returns the shard names moved.
pub fn quarantine_shards(path: &Path, report: &CheckReport) -> Result<Vec<String>, ZsmilesError> {
    if report.layout != "sharded" {
        return Err(ZsmilesError::Unsupported {
            what: "quarantining a single-file archive (it is the whole deck)".into(),
        });
    }
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
    let mut moved = Vec::new();
    for check in report.bad_shards() {
        let from = dir.join(&check.file);
        if !from.exists() {
            continue; // already gone — nothing to move aside
        }
        std::fs::rename(&from, dir.join(format!("{}.quarantined", check.file)))?;
        moved.push(check.file.clone());
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::builder::DictBuilder;
    use crate::engine::AnyDictionary;
    use crate::shard::{ShardPolicy, ShardedReader, ShardedWriter};
    use crate::writer::WriterOptions;

    fn deck_lines() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 5] = [
            b"COc1cc(C=O)ccc1O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(120).collect()
    }

    fn deck_bytes() -> Vec<u8> {
        deck_lines()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect()
    }

    fn dict() -> AnyDictionary {
        AnyDictionary::Base(Box::new(
            DictBuilder {
                min_count: 2,
                preprocess: false,
                ..Default::default()
            }
            .train(deck_lines())
            .unwrap(),
        ))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zsmiles_check_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pack(dir: &Path) -> PathBuf {
        let zsm = dir.join("deck.zsm");
        let mut w = ShardedWriter::create(
            &zsm,
            dict(),
            ShardPolicy::by_lines(40),
            WriterOptions {
                threads: 1,
                batch_bytes: 256,
            },
        )
        .unwrap();
        w.write(&deck_bytes()).unwrap();
        w.finish().unwrap();
        zsm
    }

    #[test]
    fn clean_deck_checks_ok_and_reports_json() {
        let dir = tmpdir("clean");
        let zsm = pack(&dir);
        let report = check_deck(&zsm).unwrap();
        assert!(report.is_ok(), "{:?}", report);
        assert_eq!(report.layout, "sharded");
        assert_eq!(report.lines_ok, 120);
        assert_eq!(report.shards.len(), 3);
        let json = report.to_json();
        assert!(json.contains("\"status\": \"ok\""), "{json}");
        assert!(json.contains("\"shards_bad\": 0"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_corruption_is_found_named_and_quarantinable() {
        let dir = tmpdir("corrupt");
        let zsm = pack(&dir);
        // Flip one payload bit in the middle shard.
        let victim = dir.join("deck.00001.zsa");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).unwrap();

        let report = check_deck(&zsm).unwrap();
        assert_eq!(report.bad_count(), 1);
        let bad = report.bad_shards().next().unwrap();
        assert_eq!(bad.file, "deck.00001.zsa");
        assert!(!bad.internally_sound);
        assert!(report.to_json().contains("deck.00001.zsa"));

        // Metadata repair refuses to touch payload damage.
        let outcome = repair_deck(&zsm, &report).unwrap();
        assert!(outcome.rows_rewritten.is_empty());
        assert_eq!(outcome.unrepairable, vec!["deck.00001.zsa".to_string()]);

        // Quarantine moves it aside; degraded open serves the rest.
        let moved = quarantine_shards(&zsm, &report).unwrap();
        assert_eq!(moved, vec!["deck.00001.zsa".to_string()]);
        assert!(dir.join("deck.00001.zsa.quarantined").exists());
        let reader = ShardedReader::open_degraded(&zsm).unwrap();
        assert!(reader.is_degraded());
        assert_eq!(reader.len(), 120);
        assert!(reader.get(0).is_ok());
        assert!(matches!(
            reader.get(50),
            Err(ZsmilesError::ShardUnavailable { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_manifest_rows_are_repaired_from_sound_shards() {
        let dir = tmpdir("repair");
        let zsm = pack(&dir);
        // Corrupt the manifest's CRC column for shard 2 (the shard file
        // itself is untouched — this is metadata damage).
        let text = std::fs::read_to_string(&zsm).unwrap();
        let bent: String = text
            .lines()
            .map(|l| {
                if l.starts_with("shard deck.00002.zsa") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    parts[4] = "deadbeef";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&zsm, bent + "\n").unwrap();
        assert!(ShardedReader::open(&zsm).is_err(), "strict open refuses");

        let report = check_deck(&zsm).unwrap();
        let bad = report.bad_shards().next().unwrap();
        assert_eq!(bad.file, "deck.00002.zsa");
        assert!(bad.internally_sound, "shard file itself is fine");

        let outcome = repair_deck(&zsm, &report).unwrap();
        assert_eq!(outcome.rows_rewritten, vec!["deck.00002.zsa".to_string()]);
        assert!(outcome.unrepairable.is_empty());

        // Repaired deck is fully healthy again.
        assert!(check_deck(&zsm).unwrap().is_ok());
        let reader = ShardedReader::open(&zsm).unwrap();
        assert_eq!(reader.len(), 120);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_file_deck_checks_and_refuses_shard_verbs() {
        let dir = tmpdir("single");
        let zsa = dir.join("deck.zsa");
        let sink = crate::sink::FileSink::create(&zsa).unwrap();
        let mut w =
            crate::writer::ArchiveWriter::with_options(sink, dict(), WriterOptions::default())
                .unwrap();
        w.write(&deck_bytes()).unwrap();
        w.finish().unwrap();

        let report = check_deck(&zsa).unwrap();
        assert!(report.is_ok());
        assert_eq!(report.layout, "single");
        assert_eq!(report.lines_ok, 120);
        assert!(matches!(
            repair_deck(&zsa, &report),
            Err(ZsmilesError::Unsupported { .. })
        ));
        assert!(matches!(
            quarantine_shards(&zsa, &report),
            Err(ZsmilesError::Unsupported { .. })
        ));

        // Corrupt it: check names the damage instead of panicking.
        let mut bytes = std::fs::read(&zsa).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&zsa, &bytes).unwrap();
        let report = check_deck(&zsa).unwrap();
        assert_eq!(report.bad_count(), 1);
        assert_eq!(report.lines_ok, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
