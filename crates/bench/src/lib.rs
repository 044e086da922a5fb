//! Shared experiment harness: fixed datasets, option parsing, table
//! rendering.
//!
//! Every table/figure binary uses the same seeded datasets so results are
//! reproducible run-to-run and comparable across experiments. The default
//! scale (20 000 lines per dataset) keeps a full harness run under a
//! minute in release mode; pass `--lines 50000` to match the paper's
//! sample size exactly.

use molgen::{profiles, Dataset};
use zsmiles_core::engine::PreprocessStage;
use zsmiles_core::sp::SpScratch;
use zsmiles_core::{CompressStats, Compressor, Dictionary, LINE_SEP};

/// Common experiment configuration parsed from argv.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Lines per dataset.
    pub lines: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            lines: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

impl ExpConfig {
    /// Parse `--lines N --seed S` (both optional) from argv.
    pub fn from_args() -> ExpConfig {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut cfg = ExpConfig::default();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--lines" => {
                    if let Some(v) = argv.get(i + 1).and_then(|v| v.parse().ok()) {
                        cfg.lines = v;
                    }
                    i += 2;
                }
                "--seed" => {
                    if let Some(v) = argv.get(i + 1).and_then(|v| v.parse().ok()) {
                        cfg.seed = v;
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        cfg
    }
}

/// The four datasets of the paper's evaluation, freshly generated with
/// profile-specific seeds derived from the master seed.
pub struct Decks {
    pub gdb17: Dataset,
    pub mediate: Dataset,
    pub exscalate: Dataset,
    pub mixed: Dataset,
}

impl Decks {
    pub fn generate(cfg: &ExpConfig) -> Decks {
        Decks {
            gdb17: Dataset::generate(profiles::GDB17, cfg.lines, cfg.seed),
            mediate: Dataset::generate(profiles::MEDIATE, cfg.lines, cfg.seed.wrapping_add(1)),
            exscalate: Dataset::generate(profiles::EXSCALATE, cfg.lines, cfg.seed.wrapping_add(2)),
            // Distinct seed space so MIXED is not the union of the above
            // (matching the paper, where MIXED takes the first million of
            // each library while tests sample elsewhere).
            mixed: Dataset::generate_mixed(cfg.lines, cfg.seed.wrapping_add(100)),
        }
    }

    pub fn by_name(&self, name: &str) -> &Dataset {
        match name {
            "GDB-17" => &self.gdb17,
            "MEDIATE" => &self.mediate,
            "EXSCALATE" => &self.exscalate,
            "MIXED" => &self.mixed,
            _ => panic!("unknown deck {name}"),
        }
    }

    pub const NAMES: [&'static str; 4] = ["GDB-17", "MEDIATE", "EXSCALATE", "MIXED"];
}

/// Compress a whole dataset with a dictionary; returns the stats.
pub fn compress_dataset(dict: &Dictionary, ds: &Dataset) -> CompressStats {
    let mut out = Vec::with_capacity(ds.total_bytes() / 2);
    Compressor::new(dict).compress_buffer(ds.as_bytes(), &mut out)
}

/// Encode a newline-separated buffer through a reference engine: each
/// non-empty line ring-ID preprocessed if `preprocess` is set, then
/// encoded by `encode_line` — `sp::encode_line` or `wide::encode_line`
/// over a dictionary's node trie or dense automaton — and
/// newline-terminated. The same work, bytes and stats as the production
/// buffer loop, with the reference sweep in place of the kernel.
pub fn reference_encode_buffer(
    preprocess: bool,
    input: &[u8],
    out: &mut Vec<u8>,
    mut encode_line: impl FnMut(&[u8], &mut SpScratch, &mut Vec<u8>) -> usize,
) -> CompressStats {
    let mut pp = PreprocessStage::new(preprocess);
    let mut scratch = SpScratch::new();
    let mut stats = CompressStats::default();
    for line in input.split(|&b| b == LINE_SEP).filter(|l| !l.is_empty()) {
        let (src, failed) = pp.apply(line);
        stats.out_bytes += encode_line(src, &mut scratch, out);
        out.push(LINE_SEP);
        stats.lines += 1;
        stats.in_bytes += line.len();
        stats.preprocess_failures += failed as usize;
    }
    stats
}

/// Render one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// An ASCII bar for figure-style output, scaled to `width` chars at 1.0.
pub fn bar(value: f64, width: usize) -> String {
    let n = (value.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!(
        "{:#<n$}{:.<rest$}",
        "",
        "",
        n = n,
        rest = width.saturating_sub(n)
    )
}

/// Machine-readable result line (consumed when updating EXPERIMENTS.md).
pub fn emit_datum(experiment: &str, key: &str, value: f64) {
    println!("@DATA {experiment} {key} {value:.4}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_generate_and_differ() {
        let cfg = ExpConfig { lines: 50, seed: 7 };
        let d = Decks::generate(&cfg);
        assert_eq!(d.gdb17.len(), 50);
        assert_eq!(d.mixed.len(), 50);
        assert_ne!(d.gdb17.as_bytes(), d.mediate.as_bytes());
        for name in Decks::NAMES {
            assert_eq!(d.by_name(name).len(), 50);
        }
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(0.0, 10).len(), 10);
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
