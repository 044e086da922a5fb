//! Line-oriented compression engine (paper Fig. 3, upper path:
//! preprocess → compress → store).

use crate::dict::Dictionary;
use crate::engine::PreprocessStage;
use crate::sp::{self, SpScratch};

/// Accounting for one compression run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressStats {
    pub lines: usize,
    /// Input payload bytes (newlines excluded).
    pub in_bytes: usize,
    /// Output payload bytes (newlines excluded).
    pub out_bytes: usize,
    /// Lines whose SMILES pre-processing failed (compressed raw).
    pub preprocess_failures: usize,
}

impl CompressStats {
    /// Compression ratio, compressed / original — the paper's metric
    /// (lower is better; 0.29 is the headline number).
    pub fn ratio(&self) -> f64 {
        if self.in_bytes == 0 {
            1.0
        } else {
            self.out_bytes as f64 / self.in_bytes as f64
        }
    }

    pub fn merge(&mut self, other: &CompressStats) {
        self.lines += other.lines;
        self.in_bytes += other.in_bytes;
        self.out_bytes += other.out_bytes;
        self.preprocess_failures += other.preprocess_failures;
    }
}

/// A reusable compressor bound to one dictionary. Holds all scratch
/// buffers, so per-line compression is allocation-free in steady state.
pub struct Compressor<'d> {
    dict: &'d Dictionary,
    /// The shared ring-ID preprocessing stage. Enabled by default to
    /// whatever the dictionary was trained with — mixing the two wastes
    /// ratio but is never incorrect, so it is a tunable, not an invariant.
    preprocess: PreprocessStage,
    scratch: SpScratch,
}

impl<'d> Compressor<'d> {
    pub fn new(dict: &'d Dictionary) -> Self {
        Compressor {
            dict,
            preprocess: PreprocessStage::new(dict.preprocessed()),
            scratch: SpScratch::new(),
        }
    }

    pub fn with_preprocess(mut self, on: bool) -> Self {
        self.preprocess.set_enabled(on);
        self
    }

    pub fn dictionary(&self) -> &Dictionary {
        self.dict
    }

    /// Compress one line (no newline), appending code bytes to `out`,
    /// through the dictionary's [`crate::trie::ReverseAutomaton`] kernel.
    /// Returns `(bytes_written, preprocess_failed)`.
    pub fn compress_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> (usize, bool) {
        let (src, failed) = self.preprocess.apply(line);
        sp::reverse_dp(self.dict.reverse_automaton(), src, &mut self.scratch);
        let n = sp::emit(src, &self.scratch, out, |code, out| out.push(code as u8));
        (n, failed)
    }

    /// Compress a newline-separated buffer into `out` (also
    /// newline-separated, same line count and order — the random-access
    /// property).
    pub fn compress_buffer(&mut self, input: &[u8], out: &mut Vec<u8>) -> CompressStats {
        crate::engine::encode_buffer(input, out, |line, out| self.compress_line(line, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Prepopulation;
    use crate::dict::builder::DictBuilder;

    fn alphabet_dict() -> Dictionary {
        Dictionary::identity_only(Prepopulation::SmilesAlphabet)
    }

    #[test]
    fn identity_dictionary_never_expands_compliant_smiles() {
        let d = alphabet_dict();
        let mut c = Compressor::new(&d).with_preprocess(false);
        for line in [
            "COc1cc(C=O)ccc1O",
            "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            "[13C@@H](N)(C)C(=O)O",
            "C/C=C\\C.[NH4+].[Cl-]",
        ] {
            let mut out = Vec::new();
            let (n, _) = c.compress_line(line.as_bytes(), &mut out);
            assert_eq!(n, line.len(), "identity codes: size preserved for {line}");
            assert_eq!(out, line.as_bytes(), "and bytes preserved");
        }
    }

    #[test]
    fn trained_dictionary_shrinks_repetitive_deck() {
        let deck: Vec<&[u8]> = vec![b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2"; 50];
        let d = DictBuilder {
            min_count: 2,
            ..Default::default()
        }
        .train(deck.iter().copied())
        .unwrap();
        let mut c = Compressor::new(&d);
        let input: Vec<u8> = deck
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let mut out = Vec::new();
        let stats = c.compress_buffer(&input, &mut out);
        assert_eq!(stats.lines, 50);
        assert!(
            stats.ratio() < 0.35,
            "repetitive deck should compress hard, got {}",
            stats.ratio()
        );
        // Line structure preserved.
        assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), 50);
    }

    #[test]
    fn kernel_compresses_like_both_reference_matchers() {
        let deck: Vec<&[u8]> = [
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2".as_slice(),
            b"COc1cc(C=O)ccc1O",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
        ]
        .repeat(8);
        let d = DictBuilder {
            min_count: 2,
            ..Default::default()
        }
        .train(deck.iter().copied())
        .unwrap();
        let mut c = Compressor::new(&d).with_preprocess(false);
        let mut scratch = SpScratch::new();
        for line in deck {
            let mut kernel = Vec::new();
            let (n, _) = c.compress_line(line, &mut kernel);
            let mut dense = Vec::new();
            let nd = sp::encode_line(d.automaton(), line, &mut scratch, &mut dense);
            let mut node = Vec::new();
            let nn = sp::encode_line(d.trie(), line, &mut scratch, &mut node);
            assert_eq!(
                kernel, dense,
                "kernel and dense automaton emit the same bytes"
            );
            assert_eq!(kernel, node, "kernel and node trie emit the same bytes");
            assert_eq!((n, n), (nd, nn));
        }
    }

    #[test]
    fn preprocessing_failures_counted_not_fatal() {
        let d = alphabet_dict();
        // Force preprocess on an identity dictionary.
        let mut c = Compressor::new(&d).with_preprocess(true);
        let mut out = Vec::new();
        // Unclosed ring: preprocessing fails, line still compressed.
        let stats = c.compress_buffer(b"C1CC\nCCO\n", &mut out);
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.preprocess_failures, 1);
        assert_eq!(out, b"C1CC\nCCO\n");
    }

    #[test]
    fn preprocess_changes_bytes_before_encoding() {
        let d = alphabet_dict();
        let mut c = Compressor::new(&d).with_preprocess(true);
        let mut out = Vec::new();
        c.compress_line(b"C1CC1C2CC2", &mut out);
        assert_eq!(out, b"C0CC0C0CC0", "ring IDs renumbered in the archive");
    }

    #[test]
    fn stats_merge_and_ratio() {
        let mut a = CompressStats {
            lines: 1,
            in_bytes: 100,
            out_bytes: 30,
            preprocess_failures: 0,
        };
        let b = CompressStats {
            lines: 2,
            in_bytes: 100,
            out_bytes: 50,
            preprocess_failures: 1,
        };
        a.merge(&b);
        assert_eq!(a.lines, 3);
        assert_eq!(a.in_bytes, 200);
        assert!((a.ratio() - 0.4).abs() < 1e-12);
        assert_eq!(
            CompressStats::default().ratio(),
            1.0,
            "empty input: ratio 1"
        );
    }

    #[test]
    fn empty_lines_are_skipped() {
        let d = alphabet_dict();
        let mut c = Compressor::new(&d).with_preprocess(false);
        let mut out = Vec::new();
        let stats = c.compress_buffer(b"CCO\n\n\nCC\n", &mut out);
        assert_eq!(stats.lines, 2);
        assert_eq!(out, b"CCO\nCC\n");
    }
}
