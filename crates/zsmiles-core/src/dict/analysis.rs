//! Dictionary introspection: how well does a dictionary fit a corpus?
//!
//! A shared dictionary is an artifact teams version and argue about; this
//! module gives the argument numbers — per-code usage, coverage, escape
//! pressure, dead entries — by running the real encoder over a corpus and
//! attributing every output byte.

use crate::codec::{ESCAPE, LINE_SEP};
use crate::compress::Compressor;
use crate::dict::Dictionary;
use crate::engine::{AnyCompressor, AnyDictionary};
use crate::wide::page_index;

/// Where the output bytes of a corpus went.
#[derive(Debug, Clone)]
pub struct DictReport {
    /// Output occurrences per code (identity and pattern alike).
    pub uses: [u64; 256],
    /// Input bytes covered per code.
    pub covered: [u64; 256],
    /// Escape sequences emitted (2 output bytes each).
    pub escapes: u64,
    /// Total input payload bytes.
    pub in_bytes: u64,
    /// Total output payload bytes.
    pub out_bytes: u64,
    /// Lines analyzed.
    pub lines: u64,
}

impl DictReport {
    /// Fraction of input bytes covered by multi-byte patterns (as opposed
    /// to identity codes or escapes).
    pub fn pattern_coverage(&self, dict: &Dictionary) -> f64 {
        if self.in_bytes == 0 {
            return 0.0;
        }
        let pattern_bytes: u64 = dict
            .pattern_entries()
            .map(|(c, _)| self.covered[c as usize])
            .sum();
        pattern_bytes as f64 / self.in_bytes as f64
    }

    /// Codes installed but never used on this corpus.
    pub fn dead_codes<'d>(&self, dict: &'d Dictionary) -> Vec<(u8, &'d [u8])> {
        dict.pattern_entries()
            .filter(|(c, _)| self.uses[*c as usize] == 0)
            .collect()
    }

    /// Compression ratio implied by the analysis run.
    pub fn ratio(&self) -> f64 {
        if self.in_bytes == 0 {
            1.0
        } else {
            self.out_bytes as f64 / self.in_bytes as f64
        }
    }

    /// The `k` most productive entries by input bytes covered.
    pub fn top_entries<'d>(&self, dict: &'d Dictionary, k: usize) -> Vec<(u8, &'d [u8], u64)> {
        let mut rows: Vec<(u8, &[u8], u64)> = dict
            .all_entries()
            .map(|(c, p)| (c, p, self.covered[c as usize]))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self, dict: &Dictionary) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} lines, {} -> {} bytes (ratio {:.3})",
            self.lines,
            self.in_bytes,
            self.out_bytes,
            self.ratio()
        );
        let _ = writeln!(
            s,
            "pattern coverage {:.1}% | escapes {} ({:.2}% of output)",
            self.pattern_coverage(dict) * 100.0,
            self.escapes,
            if self.out_bytes == 0 {
                0.0
            } else {
                self.escapes as f64 * 2.0 / self.out_bytes as f64 * 100.0
            }
        );
        let dead = self.dead_codes(dict);
        let _ = writeln!(
            s,
            "dead patterns: {} of {}",
            dead.len(),
            dict.pattern_entries().count()
        );
        let _ = writeln!(s, "top entries by bytes covered:");
        for (code, pat, covered) in self.top_entries(dict, 10) {
            let printable: String = pat
                .iter()
                .map(|&b| if b.is_ascii_graphic() { b as char } else { '?' })
                .collect();
            let _ = writeln!(s, "  0x{code:02x} {printable:<12} {covered:>10} B");
        }
        s
    }
}

/// Run the encoder over a newline-separated corpus and attribute output.
pub fn analyze(dict: &Dictionary, corpus: &[u8]) -> DictReport {
    let mut report = DictReport {
        uses: [0; 256],
        covered: [0; 256],
        escapes: 0,
        in_bytes: 0,
        out_bytes: 0,
        lines: 0,
    };
    let mut compressor = Compressor::new(dict);
    let mut z = Vec::new();
    for line in corpus.split(|&b| b == LINE_SEP).filter(|l| !l.is_empty()) {
        z.clear();
        let (n, _) = compressor.compress_line(line, &mut z);
        report.lines += 1;
        report.in_bytes += line.len() as u64;
        report.out_bytes += n as u64;
        // Walk the code stream and attribute.
        let mut i = 0;
        while i < z.len() {
            let b = z[i];
            if b == ESCAPE {
                report.escapes += 1;
                i += 2;
            } else {
                report.uses[b as usize] += 1;
                report.covered[b as usize] += dict.entry(b).map(|p| p.len() as u64).unwrap_or(0);
                i += 1;
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Flavour-independent stats (the `inspect --dict-stats` surface)
// ---------------------------------------------------------------------------

/// Shape statistics of a dictionary, independent of its code width:
/// entry counts and a pattern-length histogram.
#[derive(Debug, Clone)]
pub struct DictStats {
    /// Pre-population identity entries.
    pub identity: usize,
    /// Trained multi-byte (or single-byte non-identity) pattern entries.
    pub patterns: usize,
    /// `len_histogram[l]` = trained patterns of length `l` (index 0 unused).
    pub len_histogram: Vec<usize>,
    /// Longest installed pattern.
    pub max_len: usize,
}

impl DictStats {
    /// Total entries across identity and patterns.
    pub fn symbols(&self) -> usize {
        self.identity + self.patterns
    }

    /// One histogram row per populated length: `(len, count, bar)`.
    pub fn histogram_rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.len_histogram
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, &n)| n > 0)
            .map(|(l, &n)| (l, n))
    }
}

/// Shape statistics for either dictionary flavour.
pub fn dict_stats(dict: &AnyDictionary) -> DictStats {
    let mut len_histogram = vec![0usize; crate::dict::MAX_PATTERN_LEN + 1];
    let mut patterns = 0usize;
    let mut max_len = 0usize;
    let mut count = |pat: &[u8]| {
        len_histogram[pat.len()] += 1;
        patterns += 1;
        max_len = max_len.max(pat.len());
    };
    let identity = match dict {
        AnyDictionary::Base(d) => {
            for (_, pat) in d.pattern_entries() {
                count(pat);
            }
            d.len() - d.pattern_entries().count()
        }
        AnyDictionary::Wide(d) => {
            for (_, pat) in d.pattern_entries() {
                count(pat);
            }
            d.len() - d.pattern_entries().count()
        }
    };
    DictStats {
        identity,
        patterns,
        len_histogram,
        max_len,
    }
}

/// Footprint of one compiled matcher layout, for the `inspect
/// --dict-stats` layout comparison.
#[derive(Debug, Clone)]
pub struct MatcherLayoutStats {
    /// Layout name: `"dense"` (the reference) or `"reverse"` (the
    /// encoder's kernel).
    pub name: &'static str,
    /// Compiled automaton states (the dense layout counts its dead state).
    pub states: usize,
    /// Transition-row width in byte classes (256 for the dense layout).
    pub classes: usize,
    /// Table allocation size.
    pub memory_bytes: usize,
}

impl MatcherLayoutStats {
    /// Average footprint per state.
    pub fn bytes_per_state(&self) -> f64 {
        if self.states == 0 {
            0.0
        } else {
            self.memory_bytes as f64 / self.states as f64
        }
    }
}

/// Compile-and-measure both matcher layouts (the dense reference and the
/// reverse automaton the encoder runs) for either dictionary flavour.
pub fn matcher_layouts(dict: &AnyDictionary) -> Vec<MatcherLayoutStats> {
    let ((ds, db), (rs, rc, rb)) = match dict {
        AnyDictionary::Base(d) => {
            let (a, r) = (d.automaton(), d.reverse_automaton());
            (
                (a.states(), a.memory_bytes()),
                (r.states(), r.class_count(), r.memory_bytes()),
            )
        }
        AnyDictionary::Wide(d) => {
            let (a, r) = (d.automaton(), d.reverse_automaton());
            (
                (a.states(), a.memory_bytes()),
                (r.states(), r.class_count(), r.memory_bytes()),
            )
        }
    };
    vec![
        MatcherLayoutStats {
            name: "dense",
            states: ds,
            classes: 256,
            memory_bytes: db,
        },
        MatcherLayoutStats {
            name: "reverse",
            states: rs,
            classes: rc,
            memory_bytes: rb,
        },
    ]
}

/// Per-symbol hit coverage of either dictionary flavour over a sample
/// deck: the real encoder runs and every output code is attributed, so
/// the numbers are what production compression would do.
#[derive(Debug, Clone)]
pub struct Coverage {
    pub lines: u64,
    pub in_bytes: u64,
    pub out_bytes: u64,
    /// Escape sequences emitted (2 output bytes each).
    pub escapes: u64,
    /// Per used entry, sorted by input bytes covered (descending):
    /// `(emitted code bytes, pattern, uses, covered input bytes)`.
    pub hits: Vec<(Vec<u8>, Vec<u8>, u64, u64)>,
    /// Trained patterns never used on this deck.
    pub dead_patterns: usize,
    /// Trained patterns installed.
    pub total_patterns: usize,
}

impl Coverage {
    /// Compression ratio realized on the sample.
    pub fn ratio(&self) -> f64 {
        if self.in_bytes == 0 {
            1.0
        } else {
            self.out_bytes as f64 / self.in_bytes as f64
        }
    }
}

/// Measure per-symbol coverage by encoding `corpus` (newline-separated)
/// with the dictionary's own encoder and walking the emitted stream.
///
/// Preprocessing is applied here, *before* the encoder, so every counter
/// — `in_bytes`, per-symbol covered bytes, escapes — refers to the same
/// text the matcher actually walked; the accounting identities
/// (`covered + escapes == in_bytes`, `code bytes + 2·escapes ==
/// out_bytes`) hold for preprocessed dictionaries too.
pub fn coverage(dict: &AnyDictionary, corpus: &[u8]) -> Result<Coverage, crate::ZsmilesError> {
    let mut pp = crate::engine::PreprocessStage::new(dict.preprocessed());
    let mut enc = match dict {
        AnyDictionary::Base(d) => AnyCompressor::Base(Compressor::new(d).with_preprocess(false)),
        AnyDictionary::Wide(d) => {
            AnyCompressor::Wide(crate::wide::WideCompressor::new(d).with_preprocess(false))
        }
    };
    let mut uses: std::collections::HashMap<Vec<u8>, (u64, u64)> = Default::default();
    let mut escapes = 0u64;
    let (mut lines, mut in_bytes, mut out_bytes) = (0u64, 0u64, 0u64);
    let mut z = Vec::new();
    for line in corpus.split(|&b| b == LINE_SEP).filter(|l| !l.is_empty()) {
        let (src, _) = pp.apply(line);
        z.clear();
        let (n, _) = enc.compress_line(src, &mut z);
        lines += 1;
        in_bytes += src.len() as u64;
        out_bytes += n as u64;
        let mut i = 0usize;
        while i < z.len() {
            let b = z[i];
            if b == ESCAPE {
                escapes += 1;
                i += 2;
                continue;
            }
            let (code, pat_len): (Vec<u8>, u64) = match dict {
                AnyDictionary::Base(d) => {
                    let pat = d
                        .entry(b)
                        .ok_or(crate::ZsmilesError::UnknownCode { code: b, at: i })?;
                    (vec![b], pat.len() as u64)
                }
                AnyDictionary::Wide(d) => {
                    if let Some(page) = page_index(b) {
                        let sub = *z
                            .get(i + 1)
                            .ok_or(crate::ZsmilesError::TruncatedWideCode { at: i })?;
                        let pat =
                            d.wide_entry(page, sub)
                                .ok_or(crate::ZsmilesError::UnknownCode {
                                    code: sub,
                                    at: i + 1,
                                })?;
                        (vec![b, sub], pat.len() as u64)
                    } else {
                        let pat = d
                            .base_entry(b)
                            .ok_or(crate::ZsmilesError::UnknownCode { code: b, at: i })?;
                        (vec![b], pat.len() as u64)
                    }
                }
            };
            i += code.len();
            let e = uses.entry(code).or_insert((0, 0));
            e.0 += 1;
            e.1 += pat_len;
        }
    }
    // Attach patterns, count the dead.
    let entries: Vec<(Vec<u8>, Vec<u8>)> = match dict {
        AnyDictionary::Base(d) => d
            .pattern_entries()
            .map(|(c, p)| (vec![c], p.to_vec()))
            .collect(),
        AnyDictionary::Wide(d) => d.pattern_entries().map(|(c, p)| (c, p.to_vec())).collect(),
    };
    let total_patterns = entries.len();
    let dead_patterns = entries
        .iter()
        .filter(|(c, _)| !uses.contains_key(c))
        .count();
    let pattern_of = |code: &[u8]| -> Vec<u8> {
        match dict {
            AnyDictionary::Base(d) => d.entry(code[0]).unwrap_or_default().to_vec(),
            AnyDictionary::Wide(d) => match page_index(code[0]) {
                Some(p) => d.wide_entry(p, code[1]).unwrap_or_default().to_vec(),
                None => d.base_entry(code[0]).unwrap_or_default().to_vec(),
            },
        }
    };
    let mut hits: Vec<(Vec<u8>, Vec<u8>, u64, u64)> = uses
        .into_iter()
        .map(|(code, (n, covered))| {
            let pat = pattern_of(&code);
            (code, pat, n, covered)
        })
        .collect();
    hits.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    Ok(Coverage {
        lines,
        in_bytes,
        out_bytes,
        escapes,
        hits,
        dead_patterns,
        total_patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::builder::DictBuilder;
    use crate::Prepopulation;

    fn corpus() -> Vec<u8> {
        let mut v = Vec::new();
        for _ in 0..50 {
            v.extend_from_slice(b"COc1cc(C=O)ccc1O\n");
            v.extend_from_slice(b"CC(C)Cc1ccc(cc1)C(C)C(=O)O\n");
        }
        v
    }

    #[test]
    fn attribution_accounts_every_byte() {
        let data = corpus();
        let dict = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        let report = analyze(&dict, &data);
        // covered input bytes + escaped bytes == in_bytes
        let covered: u64 = report.covered.iter().sum();
        assert_eq!(covered + report.escapes, report.in_bytes);
        // uses + 2×escapes == out_bytes
        let uses: u64 = report.uses.iter().sum();
        assert_eq!(uses + report.escapes * 2, report.out_bytes);
        assert_eq!(report.lines, 100);
        assert!(report.ratio() < 0.6);
    }

    #[test]
    fn pattern_coverage_dominates_on_trained_corpus() {
        let data = corpus();
        let dict = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        let report = analyze(&dict, &data);
        assert!(
            report.pattern_coverage(&dict) > 0.7,
            "trained patterns should cover most input: {}",
            report.pattern_coverage(&dict)
        );
        assert_eq!(report.escapes, 0, "compliant SMILES never escape");
    }

    #[test]
    fn identity_dictionary_has_zero_pattern_coverage() {
        let data = corpus();
        let dict = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let report = analyze(&dict, &data);
        assert_eq!(report.pattern_coverage(&dict), 0.0);
        assert!((report.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_codes_detected_on_foreign_corpus() {
        let data = corpus();
        let dict = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        // A corpus the dictionary has never seen and barely matches.
        let foreign = b"PPPPBBBBIIII\nPPPPBBBBIIII\n";
        let report = analyze(&dict, foreign);
        assert!(!report.dead_codes(&dict).is_empty());
    }

    #[test]
    fn summary_renders() {
        let data = corpus();
        let dict = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        let report = analyze(&dict, &data);
        let s = report.summary(&dict);
        assert!(s.contains("pattern coverage"));
        assert!(s.contains("top entries"));
    }

    #[test]
    fn empty_corpus() {
        let dict = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        let report = analyze(&dict, b"");
        assert_eq!(report.lines, 0);
        assert_eq!(report.ratio(), 1.0);
        assert_eq!(report.pattern_coverage(&dict), 0.0);
    }

    #[test]
    fn dict_stats_counts_both_flavours() {
        let data = corpus();
        let base = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        let any = AnyDictionary::Base(Box::new(base.clone()));
        let s = dict_stats(&any);
        assert_eq!(s.identity, 78, "SMILES alphabet identity entries");
        assert_eq!(s.patterns, base.pattern_entries().count());
        assert_eq!(s.symbols(), base.len());
        assert_eq!(
            s.histogram_rows().map(|(_, n)| n).sum::<usize>(),
            s.patterns
        );
        assert_eq!(s.max_len, base.max_pattern_len());

        let wide = crate::wide::WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                preprocess: false,
                ..Default::default()
            },
            wide_size: 16,
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        let pats = wide.pattern_entries().count();
        let any = AnyDictionary::Wide(Box::new(wide));
        let s = dict_stats(&any);
        assert_eq!(s.patterns, pats);
    }

    #[test]
    fn coverage_accounts_preprocessed_dictionaries() {
        // Ring-renumbering changes the text the matcher walks (e.g. %12
        // IDs shrink); the counters must all refer to that text, so the
        // accounting identities still hold.
        let mut data = Vec::new();
        for _ in 0..20 {
            data.extend_from_slice(b"C%12CCCC%12\nC1=CC=C(C=C1)C(=O)O\n");
        }
        let dict = DictBuilder {
            min_count: 2,
            preprocess: true,
            ..Default::default()
        }
        .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
        .unwrap();
        assert!(dict.preprocessed());
        let any = AnyDictionary::Base(Box::new(dict));
        let cov = coverage(&any, &data).unwrap();
        let covered: u64 = cov.hits.iter().map(|(_, _, _, c)| c).sum();
        assert_eq!(covered + cov.escapes, cov.in_bytes);
        let code_bytes: u64 = cov
            .hits
            .iter()
            .map(|(code, _, n, _)| code.len() as u64 * n)
            .sum();
        assert_eq!(code_bytes + cov.escapes * 2, cov.out_bytes);
        // in_bytes is the preprocessed base, smaller than the raw deck
        // payload ('%12' pairs collapse to one digit).
        let raw_payload: u64 = data
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| l.len() as u64)
            .sum();
        assert!(
            cov.in_bytes < raw_payload,
            "{} < {raw_payload}",
            cov.in_bytes
        );
    }

    #[test]
    fn coverage_attributes_both_flavours() {
        let data = corpus();
        for wide_size in [0usize, 16] {
            let any = if wide_size == 0 {
                AnyDictionary::Base(Box::new(
                    DictBuilder {
                        min_count: 2,
                        preprocess: false,
                        ..Default::default()
                    }
                    .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
                    .unwrap(),
                ))
            } else {
                AnyDictionary::Wide(Box::new(
                    crate::wide::WideDictBuilder {
                        base: DictBuilder {
                            min_count: 2,
                            preprocess: false,
                            ..Default::default()
                        },
                        wide_size,
                    }
                    .train(data.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
                    .unwrap(),
                ))
            };
            let cov = coverage(&any, &data).unwrap();
            assert_eq!(cov.lines, 100);
            assert!(cov.ratio() < 0.7, "{}", cov.ratio());
            // Every attributed input byte is accounted: covered + escapes.
            let covered: u64 = cov.hits.iter().map(|(_, _, _, c)| c).sum();
            assert_eq!(covered + cov.escapes, cov.in_bytes);
            // Output bytes = code bytes + 2 per escape.
            let code_bytes: u64 = cov
                .hits
                .iter()
                .map(|(code, _, n, _)| code.len() as u64 * n)
                .sum();
            assert_eq!(code_bytes + cov.escapes * 2, cov.out_bytes);
            assert!(cov.dead_patterns <= cov.total_patterns);
            // Sorted by coverage.
            assert!(cov.hits.windows(2).all(|w| w[0].3 >= w[1].3));
        }
    }
}
