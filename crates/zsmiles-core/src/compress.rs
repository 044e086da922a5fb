//! Line-oriented compression engine (paper Fig. 3, upper path:
//! preprocess → compress → store).

use crate::dict::Dictionary;
use crate::engine::{LineEncoder, PreprocessStage};
use crate::sp::{self, encode_line, SpAlgorithm, SpScratch};
use crate::trie::CompactLayout;

/// Which pattern-matching structure the encoder walks. All three produce
/// byte-identical output; the byte-class compressed automaton is the
/// default hot path, and the dense automaton and node trie remain
/// selectable so the throughput harness can measure all of them in one
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// Byte-class compressed interleaved rows
    /// ([`crate::trie::CompactAutomaton`]) — also unlocks the fused
    /// batched DP ([`crate::sp::encode_lines_batched`]).
    #[default]
    Compact,
    /// Flat `state × 256` tables ([`crate::trie::DenseAutomaton`]).
    DenseAutomaton,
    /// The pointer-linked build-time [`crate::trie::Trie`].
    NodeTrie,
}

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
    algo: SpAlgorithm,
    matcher: MatcherKind,
    /// The shared ring-ID preprocessing stage. Enabled by default to
    /// whatever the dictionary was trained with — mixing the two wastes
    /// ratio but is never incorrect, so it is a tunable, not an invariant.
    preprocess: PreprocessStage,
    scratch: SpScratch,
    /// Arena one batched group is preprocessed into
    /// ([`PreprocessStage::apply_batch`]).
    batch_buf: Vec<u8>,
}

impl<'d> Compressor<'d> {
    pub fn new(dict: &'d Dictionary) -> Self {
        Compressor {
            dict,
            algo: SpAlgorithm::default(),
            matcher: MatcherKind::default(),
            preprocess: PreprocessStage::new(dict.preprocessed()),
            scratch: SpScratch::new(),
            batch_buf: Vec::new(),
        }
    }

    pub fn with_algorithm(mut self, algo: SpAlgorithm) -> Self {
        self.algo = algo;
        self
    }

    pub fn with_matcher(mut self, matcher: MatcherKind) -> Self {
        self.matcher = matcher;
        self
    }

    pub fn with_preprocess(mut self, on: bool) -> Self {
        self.preprocess.set_enabled(on);
        self
    }

    pub fn dictionary(&self) -> &Dictionary {
        self.dict
    }

    /// Compress one line (no newline), appending code bytes to `out`.
    /// Returns `(bytes_written, preprocess_failed)`.
    pub fn compress_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> (usize, bool) {
        let (src, failed) = self.preprocess.apply(line);
        let n = match self.matcher {
            MatcherKind::Compact => match self.dict.compact().view() {
                CompactLayout::Narrow(v) => encode_line(&v, src, self.algo, &mut self.scratch, out),
                CompactLayout::Wide(v) => encode_line(&v, src, self.algo, &mut self.scratch, out),
            },
            MatcherKind::DenseAutomaton => encode_line(
                self.dict.automaton(),
                src,
                self.algo,
                &mut self.scratch,
                out,
            ),
            MatcherKind::NodeTrie => {
                encode_line(self.dict.trie(), src, self.algo, &mut self.scratch, out)
            }
        };
        (n, failed)
    }

    /// Compress a newline-separated buffer into `out` (also
    /// newline-separated, same line count and order — the random-access
    /// property).
    pub fn compress_buffer(&mut self, input: &[u8], out: &mut Vec<u8>) -> CompressStats {
        crate::engine::encode_buffer(self, input, out)
    }
}

impl LineEncoder for Compressor<'_> {
    fn encode_line(&mut self, line: &[u8], out: &mut Vec<u8>) -> (usize, bool) {
        self.compress_line(line, out)
    }

    /// The fused batched path: compact matcher + backward DP run the whole
    /// group through [`sp::encode_lines_batched`]; other configurations
    /// fall back to the per-line loop. Both are byte-identical.
    fn encode_lines(&mut self, lines: &[&[u8]], out: &mut Vec<u8>) -> CompressStats {
        if self.matcher != MatcherKind::Compact || self.algo != SpAlgorithm::BackwardDp {
            return crate::engine::encode_lines_serial(self, lines, out);
        }
        let mut stats = CompressStats::default();
        for chunk in lines.chunks(sp::BATCH_LINES) {
            let mut srcs: [&[u8]; sp::BATCH_LINES] = [b""; sp::BATCH_LINES];
            stats.preprocess_failures +=
                self.preprocess
                    .apply_batch(chunk, &mut self.batch_buf, &mut srcs);
            stats.lines += chunk.len();
            stats.in_bytes += chunk.iter().map(|l| l.len()).sum::<usize>();
            stats.out_bytes += match self.dict.compact().view() {
                CompactLayout::Narrow(v) => {
                    sp::encode_lines_batched(&v, &srcs[..chunk.len()], &mut self.scratch, out)
                }
                CompactLayout::Wide(v) => {
                    sp::encode_lines_batched(&v, &srcs[..chunk.len()], &mut self.scratch, out)
                }
            };
        }
        stats
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
    fn matcher_kinds_compress_identically() {
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
        let input: Vec<u8> = deck
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        let mut dense = Vec::new();
        let s1 = Compressor::new(&d).compress_buffer(&input, &mut dense);
        let mut node = Vec::new();
        let s2 = Compressor::new(&d)
            .with_matcher(MatcherKind::NodeTrie)
            .compress_buffer(&input, &mut node);
        assert_eq!(dense, node, "automaton and node trie emit the same bytes");
        assert_eq!(s1, s2);
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
