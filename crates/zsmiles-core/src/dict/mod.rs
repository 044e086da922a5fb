//! The compression dictionary: code ↔ pattern tables.
//!
//! A dictionary maps up to 222 one-byte *codes* (see [`crate::codec`]) to
//! byte *patterns*. Identity entries come from pre-population (§IV-B);
//! multi-byte entries come from training (§IV-C, [`builder`]). The shared,
//! input-independent dictionary is the design point that distinguishes
//! ZSMILES from FSST: one `.dct` file compresses any SMILES set, so archives
//! stay mutually compatible and can be cut/recombined.

pub mod analysis;
pub mod builder;
pub mod format;

use crate::codec::{code_space, is_code_byte, Prepopulation};
use crate::decompress::DecodeTable;
use crate::error::ZsmilesError;
use crate::trie::{DenseAutomaton, ReverseAutomaton, Trie};

/// Longest pattern length the format supports. Bounded so the trie and the
/// GPU kernels can use fixed-size scratch; the paper's sweeps stop at 16.
pub const MAX_PATTERN_LEN: usize = 16;

/// An immutable compression dictionary.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Which codes are pre-population identity entries (as opposed to
    /// trained patterns that may *coincidentally* map a byte to itself).
    identity: Vec<bool>,
    prepopulation: Prepopulation,
    /// Substring length bounds the dictionary was trained with.
    lmin: usize,
    lmax: usize,
    /// Whether training data went through ring-ID pre-processing; decks
    /// compressed with this dictionary should do the same.
    preprocessed: bool,
    trie: Trie,
    /// The flat reference matcher, compiled from `trie` on first use.
    /// Lazy (and shared across clones) because its tables run to a few
    /// MiB and decode-only paths — `unpack`, the out-of-core reader —
    /// never walk it.
    automaton: std::sync::Arc<std::sync::OnceLock<DenseAutomaton>>,
    /// The matcher the encoder runs; lazy and shared across clones like
    /// `automaton`.
    reverse: std::sync::Arc<std::sync::OnceLock<ReverseAutomaton>>,
    /// `decode.expansion(code)` = the pattern this code expands to: the
    /// fixed-slot table the decode hot path reads (4.25 KiB; built
    /// eagerly) is also the dictionary's only copy of its entries.
    decode: DecodeTable,
}

impl Dictionary {
    /// Build a dictionary from multi-byte `patterns` (ordered by rank —
    /// order determines code assignment and is preserved by serialization).
    ///
    /// Identity entries for `prepopulation` are installed first; patterns
    /// then claim the remaining codes in order. Patterns that collide with
    /// an identity entry are skipped silently (they add nothing).
    pub fn from_patterns<I, P>(
        prepopulation: Prepopulation,
        patterns: I,
        lmin: usize,
        lmax: usize,
        preprocessed: bool,
    ) -> Result<Dictionary, ZsmilesError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        if lmin < 1 || lmax < lmin || lmax > MAX_PATTERN_LEN {
            return Err(ZsmilesError::BadLengthBounds { lmin, lmax });
        }
        let mut entries: Vec<Option<Box<[u8]>>> = vec![None; 256];
        let mut identity_flags = vec![false; 256];
        let identity = prepopulation.identity_bytes();
        for &b in &identity {
            entries[b as usize] = Some(vec![b].into_boxed_slice());
            identity_flags[b as usize] = true;
        }
        // Codes free for patterns, in code-space order.
        let mut free: Vec<u8> = code_space()
            .filter(|&c| entries[c as usize].is_none())
            .collect();
        free.reverse(); // pop() hands them out in forward order

        let mut installed = 0usize;
        for (seen, pat) in patterns.into_iter().enumerate() {
            let pat = pat.as_ref();
            let requested = seen + 1;
            // Deserialized dictionaries can carry corrupted patterns —
            // refuse typed, don't assert.
            if pat.is_empty() || pat.len() > MAX_PATTERN_LEN {
                return Err(ZsmilesError::DictFormat {
                    line: requested,
                    reason: format!("pattern has length {} (1..={MAX_PATTERN_LEN})", pat.len()),
                });
            }
            // Single-byte identity duplicates add nothing.
            if pat.len() == 1 && entries[pat[0] as usize].is_some() {
                continue;
            }
            let code = match free.pop() {
                Some(c) => c,
                None => {
                    return Err(ZsmilesError::CodeSpaceExhausted {
                        requested,
                        available: installed + identity.len(),
                    })
                }
            };
            entries[code as usize] = Some(pat.to_vec().into_boxed_slice());
            installed += 1;
        }

        let mut trie = Trie::new();
        for (code, entry) in entries.iter().enumerate() {
            if let Some(pat) = entry {
                trie.insert(pat, code as u8);
            }
        }
        let decode = DecodeTable::from_entries(&entries);
        Ok(Dictionary {
            identity: identity_flags,
            prepopulation,
            lmin,
            lmax,
            preprocessed,
            trie,
            automaton: std::sync::Arc::new(std::sync::OnceLock::new()),
            reverse: std::sync::Arc::new(std::sync::OnceLock::new()),
            decode,
        })
    }

    /// The built-in shared dictionary, trained on a 50 000-line mixed deck
    /// and embedded in the library — the paper's "the dictionary is
    /// soft-coded in the ZSMILES executable". Parsed once, then cached.
    pub fn builtin() -> &'static Dictionary {
        static BUILTIN: std::sync::OnceLock<Dictionary> = std::sync::OnceLock::new();
        BUILTIN.get_or_init(|| {
            super::dict::format::read_dict(include_str!("../../assets/default.dct").as_bytes())
                .expect("embedded dictionary is valid")
        })
    }

    /// A dictionary with only its pre-population identity entries — the
    /// degenerate baseline (every line compresses to itself).
    pub fn identity_only(prepopulation: Prepopulation) -> Dictionary {
        Dictionary::from_patterns(
            prepopulation,
            std::iter::empty::<&[u8]>(),
            2,
            MAX_PATTERN_LEN,
            false,
        )
        .expect("no patterns cannot exhaust the code space")
    }

    /// The pattern a code expands to.
    #[inline]
    pub fn entry(&self, code: u8) -> Option<&[u8]> {
        self.decode.expansion(code)
    }

    /// The matching trie (the build-time / reference structure).
    pub fn trie(&self) -> &Trie {
        &self.trie
    }

    /// The flat reference matcher — compiled from [`Dictionary::trie`] on
    /// first call (then cached, shared by clones), byte-identical matches
    /// (see [`DenseAutomaton`] for the layout trade-off).
    pub fn automaton(&self) -> &DenseAutomaton {
        self.automaton
            .get_or_init(|| DenseAutomaton::compile(&self.trie))
    }

    /// The matcher the encoder runs — compiled from [`Dictionary::trie`]
    /// on first call (then cached, shared by clones); see
    /// [`ReverseAutomaton`].
    pub fn reverse_automaton(&self) -> &ReverseAutomaton {
        self.reverse
            .get_or_init(|| ReverseAutomaton::compile(&self.trie))
    }

    /// The fixed-slot expansion table shared by every
    /// [`crate::Decompressor`] worker on this dictionary.
    pub fn decode_table(&self) -> &DecodeTable {
        &self.decode
    }

    /// Total entries (identity + patterns).
    pub fn len(&self) -> usize {
        self.decode.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trained pattern entries only (pre-population identity entries
    /// excluded), in code order. Note the filter is by provenance, not by
    /// shape: a trained single-byte pattern that happens to receive its
    /// own byte value as code is still a pattern entry and must survive
    /// serialization.
    pub fn pattern_entries(&self) -> impl Iterator<Item = (u8, &[u8])> + '_ {
        self.all_entries()
            .filter(|&(c, _)| !self.identity[c as usize])
    }

    /// All entries (identity included), in code order.
    pub fn all_entries(&self) -> impl Iterator<Item = (u8, &[u8])> + '_ {
        (0..=255u8).filter_map(|c| self.decode.expansion(c).map(|p| (c, p)))
    }

    pub fn prepopulation(&self) -> Prepopulation {
        self.prepopulation
    }

    pub fn lmin(&self) -> usize {
        self.lmin
    }

    pub fn lmax(&self) -> usize {
        self.lmax
    }

    pub fn preprocessed(&self) -> bool {
        self.preprocessed
    }

    /// Longest installed pattern.
    pub fn max_pattern_len(&self) -> usize {
        self.trie.max_depth()
    }

    /// Sanity invariants, used by tests and after deserialization: codes
    /// must be displayable and patterns newline-free (their length is
    /// bounded by construction — every entry fills one decode slot).
    pub fn validate(&self) -> Result<(), ZsmilesError> {
        for (c, pat) in self.all_entries() {
            if !is_code_byte(c) {
                return Err(ZsmilesError::DictFormat {
                    line: 0,
                    reason: format!("code 0x{c:02x} is reserved"),
                });
            }
            if pat.contains(&b'\n') {
                return Err(ZsmilesError::DictFormat {
                    line: 0,
                    reason: "pattern contains newline".into(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_dictionary_loads_and_compresses() {
        let d = Dictionary::builtin();
        d.validate().unwrap();
        assert!(d.pattern_entries().count() > 100);
        assert!(d.preprocessed());
        // Compresses a benzene-heavy line well below 1.0.
        let mut c = crate::compress::Compressor::new(d);
        let mut z = Vec::new();
        let (n, _) = c.compress_line(b"COc1cc(C=O)ccc1O", &mut z);
        assert!(n < 16, "builtin dictionary compresses: {n} bytes");
        // Same statics instance on second call.
        assert!(std::ptr::eq(d, Dictionary::builtin()));
    }

    #[test]
    fn identity_only_has_prepopulation_size() {
        let d = Dictionary::identity_only(Prepopulation::SmilesAlphabet);
        assert_eq!(d.len(), 78);
        assert_eq!(d.entry(b'C'), Some(&b"C"[..]));
        assert_eq!(d.entry(0x80), None);
        assert_eq!(d.pattern_entries().count(), 0);
        d.validate().unwrap();
    }

    #[test]
    fn patterns_claim_free_codes_in_order() {
        let d = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet,
            [b"CC".as_slice(), b"c1ccccc1", b"C(=O)"],
            2,
            8,
            true,
        )
        .unwrap();
        assert_eq!(d.len(), 78 + 3);
        let pats: Vec<&[u8]> = d.pattern_entries().map(|(_, p)| p).collect();
        assert!(pats.contains(&b"CC".as_slice()));
        assert!(pats.contains(&b"c1ccccc1".as_slice()));
        // First free printable code (not in the SMILES alphabet) is '!'.
        assert_eq!(d.entry(b'!'), Some(&b"CC"[..]));
        assert!(d.preprocessed());
        d.validate().unwrap();
    }

    #[test]
    fn none_prepopulation_gives_all_codes_to_patterns() {
        let d =
            Dictionary::from_patterns(Prepopulation::None, [b"C".as_slice(), b"CC"], 1, 8, false)
                .unwrap();
        assert_eq!(d.len(), 2);
        // '!' is 0x21, the first code in code-space order.
        assert_eq!(d.entry(b'!'), Some(&b"C"[..]));
        assert_eq!(d.entry(b'"'), Some(&b"CC"[..]));
    }

    #[test]
    fn code_space_exhaustion_detected() {
        let too_many: Vec<Vec<u8>> = (0..223)
            .map(|i| {
                vec![
                    b'a' + (i % 26) as u8,
                    b'a' + ((i / 26) % 26) as u8,
                    (i / 676) as u8 + b'a',
                ]
            })
            .collect();
        let r = Dictionary::from_patterns(Prepopulation::None, &too_many, 2, 8, false);
        assert!(matches!(r, Err(ZsmilesError::CodeSpaceExhausted { .. })));
    }

    #[test]
    fn exactly_filling_code_space_is_fine() {
        let pats: Vec<Vec<u8>> = (0..222u32)
            .map(|i| {
                vec![
                    b'a' + (i % 26) as u8,
                    b'a' + ((i / 26) % 26) as u8,
                    b'0' + (i % 10) as u8,
                ]
            })
            .collect();
        // All distinct? 26*26*… yes for 222 < 676 combos of first two bytes
        let d = Dictionary::from_patterns(Prepopulation::None, &pats, 2, 8, false).unwrap();
        assert_eq!(d.len(), 222);
        d.validate().unwrap();
    }

    #[test]
    fn bad_length_bounds_rejected() {
        for (lmin, lmax) in [(0, 8), (3, 2), (2, 17)] {
            let r = Dictionary::from_patterns(
                Prepopulation::None,
                [b"CC".as_slice()],
                lmin,
                lmax,
                false,
            );
            assert!(
                matches!(r, Err(ZsmilesError::BadLengthBounds { .. })),
                "{lmin},{lmax}"
            );
        }
    }

    #[test]
    fn identity_duplicate_patterns_skipped() {
        let d = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet,
            [b"C".as_slice(), b"CC"],
            1,
            8,
            false,
        )
        .unwrap();
        // "C" is already an identity entry; only "CC" consumed a free code.
        assert_eq!(d.len(), 79);
    }

    #[test]
    fn trie_contains_identity_and_patterns() {
        let d = Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet,
            [b"CC".as_slice()],
            2,
            8,
            false,
        )
        .unwrap();
        assert_eq!(d.trie().get(b"C"), Some(b'C'));
        assert!(d.trie().get(b"CC").is_some());
        assert_eq!(d.max_pattern_len(), 2);
    }
}
