//! The paper's pre-processing step (§IV-A): ring-ID renumbering.
//!
//! SMILES exporters tend to give every ring a fresh closure digit
//! (`C1=CC=C(C=C1)…C2=CC=CC=C2`), which makes two otherwise identical ring
//! spellings differ and defeats substring-dictionary compression. The
//! transform here re-numbers ring IDs so they are *reused* as soon as a ring
//! closes, which maximizes repeated substrings while keeping the SMILES
//! valid and the molecule unchanged.
//!
//! Two pairs of ring-closure digits may share an ID only if their
//! open–close intervals are disjoint; assigning IDs is therefore interval
//! graph coloring. The greedy order decides who gets the small IDs:
//!
//! * [`RingRenumber::Innermost`] (the paper's choice) colors intervals in
//!   closing order, so the innermost / simplest rings take the smallest IDs;
//! * [`RingRenumber::Outermost`] colors in opening order;
//! * [`RingRenumber::Preserve`] leaves IDs untouched.
//!
//! Only ring-digit bytes are rewritten — every other byte of the line is
//! copied verbatim, so bracket atoms, stereo markers and the rest of the
//! string survive untouched. `%nn` spellings shrink to plain digits whenever
//! the new ID fits (`%12` → `3`), which is itself worth a few bytes.

use crate::error::{SmilesError, Span};
use crate::lexer::Lexer;
use crate::token::{RingForm, Token};

/// Largest ring ID expressible in SMILES (`%99`).
pub const MAX_RING_ID: u16 = 99;

/// Ring-ID renumbering strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingRenumber {
    /// Innermost rings get the smallest IDs (paper §IV-A choice).
    #[default]
    Innermost,
    /// Outermost rings get the smallest IDs.
    Outermost,
    /// Keep the input numbering (identity transform).
    Preserve,
}

/// One bit per ring ID `0..=MAX_RING_ID`.
type IdSet = u128;

const ALL_IDS: IdSet = (1 << (MAX_RING_ID + 1)) - 1;

/// Marks a pair that has no new ID yet (innermost, still open) or could
/// not get one (the ID space ran out).
const NO_ID: u16 = u16::MAX;

/// The pair an input ring ID currently keeps open.
#[derive(Debug, Clone, Copy)]
struct OpenRing {
    /// Index of the pair in `Preprocessor::ids`; `u32::MAX` when the
    /// input ID is not open.
    pair: u32,
    /// Length of `Preprocessor::closed` when the pair opened.
    closed_mark: u32,
}

const NOT_OPEN: OpenRing = OpenRing {
    pair: u32::MAX,
    closed_mark: 0,
};

impl OpenRing {
    fn is_open(&self) -> bool {
        self.pair != NOT_OPEN.pair
    }
}

/// Reusable pre-processor. Its scratch lives between lines, so per-line
/// processing is allocation-free in the steady state.
///
/// One scan of the line pairs the ring digits and colors the intervals
/// as it goes: [`RingRenumber::Outermost`] gives a pair the smallest ID
/// no still-open pair holds when it opens; [`RingRenumber::Innermost`]
/// gives it, when it closes, the smallest ID no pair that closed in the
/// meantime took. A second walk over the recorded ring digits splices the
/// new IDs into the output.
#[derive(Debug)]
pub struct Preprocessor {
    /// Every ring digit of the line in order: its span and its pair.
    sites: Vec<(Span, u32)>,
    /// New ID per pair, pairs in opening order.
    ids: Vec<u16>,
    /// Innermost only: new IDs in the order their pairs closed.
    closed: Vec<u8>,
    /// Per input ring ID, the pair it currently keeps open. All
    /// [`NOT_OPEN`] between lines.
    open: [OpenRing; 100],
}

impl Default for Preprocessor {
    fn default() -> Self {
        Preprocessor::new()
    }
}

impl Preprocessor {
    pub fn new() -> Self {
        Preprocessor {
            sites: Vec::new(),
            ids: Vec::new(),
            closed: Vec::new(),
            open: [NOT_OPEN; 100],
        }
    }

    /// Renumber ring IDs in `line` (no trailing newline), appending the
    /// result to `out`. `out` is *not* cleared, and on error it is left
    /// as it was. The first assigned ID is `first_id` — the paper starts
    /// at 0; conventional exporters start at 1.
    pub fn process_into(
        &mut self,
        line: &[u8],
        strategy: RingRenumber,
        first_id: u16,
        out: &mut Vec<u8>,
    ) -> Result<(), SmilesError> {
        if strategy == RingRenumber::Preserve {
            out.extend_from_slice(line);
            return Ok(());
        }
        if let Err(e) = self.assign_ids(line, strategy, first_id) {
            self.open = [NOT_OPEN; 100];
            return Err(e);
        }
        self.rewrite(line, out);
        Ok(())
    }

    /// The paper's pre-processing (innermost-first, IDs from 0), as
    /// [`Preprocessor::process_into`]: what every compressor applies
    /// before encoding.
    pub fn preprocess_into(&mut self, line: &[u8], out: &mut Vec<u8>) -> Result<(), SmilesError> {
        self.process_into(line, RingRenumber::Innermost, 0, out)
    }

    /// Post-processing to the conventional exporter style
    /// (outermost-first, IDs from 1, no ID 0), as
    /// [`Preprocessor::process_into`]. Decompressed archives stay valid
    /// SMILES without this; it exists for tools that dislike ring ID 0.
    pub fn postprocess_into(&mut self, line: &[u8], out: &mut Vec<u8>) -> Result<(), SmilesError> {
        self.process_into(line, RingRenumber::Outermost, 1, out)
    }

    /// Pair all ring digits and give each pair its new ID. Errors, in
    /// this order: the line's first lexical error, an unclosed ring (the
    /// only structural property the transform needs; full validation is
    /// the parser's job, and compression must work even on lines it has
    /// not parsed), then an exhausted ID space.
    fn assign_ids(
        &mut self,
        line: &[u8],
        strategy: RingRenumber,
        first_id: u16,
    ) -> Result<(), SmilesError> {
        self.sites.clear();
        self.ids.clear();
        self.closed.clear();
        let allowed = ALL_IDS & !((1 << first_id.min(MAX_RING_ID + 1)) - 1);
        // Outermost: the new IDs of the pairs open right now.
        let mut held: IdSet = 0;
        let mut open_count = 0usize;
        let mut exhausted = false;
        let mut lowest_free = |taken: IdSet| {
            let free = allowed & !taken;
            if free == 0 {
                exhausted = true;
                NO_ID
            } else {
                free.trailing_zeros() as u16
            }
        };
        let mut lexer = Lexer::new(line);
        while let Some(st) = lexer.next_ring()? {
            let Token::Ring { id, .. } = st.token else {
                unreachable!("next_ring yields ring tokens only")
            };
            let slot = &mut self.open[id as usize];
            let pair = if !slot.is_open() {
                let pair = self.ids.len() as u32;
                let new_id = if strategy == RingRenumber::Outermost {
                    lowest_free(held)
                } else {
                    NO_ID
                };
                if new_id != NO_ID {
                    held |= 1 << new_id;
                }
                self.ids.push(new_id);
                *slot = OpenRing {
                    pair,
                    closed_mark: self.closed.len() as u32,
                };
                open_count += 1;
                pair
            } else {
                let pair = slot.pair;
                let p = pair as usize;
                if strategy == RingRenumber::Innermost {
                    let taken = self.closed[slot.closed_mark as usize..]
                        .iter()
                        .fold(0, |set: IdSet, &id| set | 1 << id);
                    self.ids[p] = lowest_free(taken);
                    if self.ids[p] != NO_ID {
                        self.closed.push(self.ids[p] as u8);
                    }
                } else if self.ids[p] != NO_ID {
                    held &= !(1 << self.ids[p]);
                }
                *slot = NOT_OPEN;
                open_count -= 1;
                pair
            };
            self.sites.push((st.span, pair));
        }
        if open_count > 0 {
            let id = self.open.iter().position(OpenRing::is_open);
            return Err(SmilesError::UnclosedRing {
                id: id.expect("an open ring") as u16,
            });
        }
        if exhausted {
            return Err(SmilesError::RingIdSpaceExhausted {
                concurrent: self.ids.len(),
            });
        }
        Ok(())
    }

    /// Copy `line` to `out`, substituting the new ID at every ring digit.
    fn rewrite(&self, line: &[u8], out: &mut Vec<u8>) {
        let mut pos = 0;
        for &(span, pair) in &self.sites {
            out.extend_from_slice(&line[pos..span.start]);
            let id = self.ids[pair as usize];
            let form = if id < 10 {
                RingForm::Digit
            } else {
                RingForm::Percent
            };
            Token::Ring { id, form }.write_to(out);
            pos = span.end;
        }
        out.extend_from_slice(&line[pos..]);
    }
}

/// One-shot [`Preprocessor::preprocess_into`].
pub fn preprocess(line: &[u8]) -> Result<Vec<u8>, SmilesError> {
    let mut out = Vec::with_capacity(line.len());
    Preprocessor::new().preprocess_into(line, &mut out)?;
    Ok(out)
}

/// One-shot [`Preprocessor::postprocess_into`].
pub fn postprocess(line: &[u8]) -> Result<Vec<u8>, SmilesError> {
    let mut out = Vec::with_capacity(line.len() + 4);
    Preprocessor::new().postprocess_into(line, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(s: &str) -> String {
        String::from_utf8(preprocess(s.as_bytes()).unwrap()).unwrap()
    }

    fn post(s: &str) -> String {
        String::from_utf8(postprocess(s.as_bytes()).unwrap()).unwrap()
    }

    #[test]
    fn paper_example_dibenzoylmethane() {
        // Figure in §IV-A: both disjoint rings collapse onto ID 0.
        assert_eq!(
            pp("C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2"),
            "C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0"
        );
    }

    #[test]
    fn chain_identity() {
        assert_eq!(pp("CCO"), "CCO");
        assert_eq!(pp("CC(=O)N"), "CC(=O)N");
    }

    #[test]
    fn nested_rings_innermost_gets_zero() {
        // Outer ring 1 spans everything; inner ring 2 nested. Innermost
        // strategy: inner -> 0, outer -> 1.
        assert_eq!(pp("C1CC2CCC2CC1"), "C1CC0CCC0CC1");
        // Outermost strategy: outer -> 0, inner -> 1.
        let mut out = Vec::new();
        Preprocessor::new()
            .process_into(b"C1CC2CCC2CC1", RingRenumber::Outermost, 0, &mut out)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "C0CC1CCC1CC0");
    }

    #[test]
    fn interleaved_rings_get_distinct_ids() {
        // open1 open2 close1 close2 — intervals intersect, distinct IDs.
        let s = "C1CC2CC1CC2";
        let got = pp(s);
        // innermost: ring 1 closes first -> 0; ring 2 -> 1
        assert_eq!(got, "C0CC1CC0CC1");
    }

    #[test]
    fn percent_ids_shrink_to_digits() {
        assert_eq!(pp("C%10CCCCC%10"), "C0CCCCC0");
        assert_eq!(pp("C%99CC%99"), "C0CC0");
    }

    #[test]
    fn preprocessed_output_reparses_to_same_molecule() {
        use crate::parser::parse;
        for s in [
            "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            "C1CC2CCC2CC1",
            "c1ccc2ccccc2c1", // naphthalene, fused
            "C%12CCCC%12",
            "C1CCCCC1C2CCCCC2C3CCCCC3",
        ] {
            let before = parse(s.as_bytes()).unwrap();
            let after = parse(pp(s).as_bytes()).unwrap();
            assert_eq!(before.signature(), after.signature(), "{s}");
            assert_eq!(before.ring_count(), after.ring_count());
        }
    }

    #[test]
    fn idempotent() {
        for s in [
            "C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            "c1ccc2ccccc2c1",
            "C1CC2CCC2CC1",
        ] {
            let once = pp(s);
            assert_eq!(pp(&once), once, "{s}");
        }
    }

    #[test]
    fn fused_rings_share_atom_but_not_interval() {
        // Naphthalene c1ccc2ccccc2c1: ring 2 nested inside ring 1.
        assert_eq!(pp("c1ccc2ccccc2c1"), "c1ccc0ccccc0c1");
    }

    #[test]
    fn reuse_after_close_many_rings() {
        // Ten disjoint rings all collapse to ID 0.
        let s = "C1CC1C2CC2C3CC3C4CC4C5CC5C6CC6C7CC7C8CC8C9CC9C%10CC%10";
        let expect = "C0CC0".repeat(10);
        assert_eq!(pp(s), expect);
    }

    #[test]
    fn unclosed_ring_is_error() {
        assert!(matches!(
            preprocess(b"C1CCC"),
            Err(SmilesError::UnclosedRing { id: 1 })
        ));
    }

    #[test]
    fn lexical_error_propagates() {
        assert!(preprocess(b"C!C").is_err());
        assert!(preprocess(b"C%1C").is_err());
    }

    #[test]
    fn postprocess_starts_at_one_outermost() {
        assert_eq!(
            post("C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0"),
            "C1=CC=C(C=C1)C(=O)CC(=O)C1=CC=CC=C1"
        );
        assert_eq!(post("C1CC0CCC0CC1"), "C1CC2CCC2CC1");
    }

    #[test]
    fn postprocess_then_preprocess_round_trip() {
        for s in ["C0=CC=C(C=C0)C0=CC=CC=C0", "C1CC0CCC0CC1", "c0ccc1ccccc1c0"] {
            assert_eq!(pp(&post(s)), pp(s), "{s}");
        }
    }

    #[test]
    fn ring_id_zero_inputs_handled() {
        // Input already using 0 renumbers fine.
        assert_eq!(pp("C0CC0C1CC1"), "C0CC0C0CC0");
    }

    #[test]
    fn bond_symbol_before_digit_untouched() {
        assert_eq!(pp("C=1CCCCC=1C=2CC=2"), "C=0CCCCC=0C=0CC=0");
    }

    #[test]
    fn preserve_is_identity() {
        let mut out = Vec::new();
        Preprocessor::new()
            .process_into(b"C1CC2CCC2CC1", RingRenumber::Preserve, 0, &mut out)
            .unwrap();
        assert_eq!(out, b"C1CC2CCC2CC1");
    }

    #[test]
    fn deeply_nested_rings_allocate_increasing_ids() {
        // 3 nested rings: innermost 0, middle 1, outer 2.
        assert_eq!(pp("C1C2C3CC3C2C1"), "C2C1C0CC0C1C2");
    }

    #[test]
    fn brackets_untouched() {
        assert_eq!(pp("[13CH3]C1CC1[O-]"), "[13CH3]C0CC0[O-]");
    }

    #[test]
    fn processor_reuse_across_lines() {
        let mut p = Preprocessor::new();
        let mut out = Vec::new();
        for (input, want) in [
            ("C1CC1", "C0CC0"),
            ("C2CC2", "C0CC0"),
            ("CCO", "CCO"),
            ("C1CC2CCC2CC1", "C1CC0CCC0CC1"),
        ] {
            out.clear();
            p.process_into(input.as_bytes(), RingRenumber::Innermost, 0, &mut out)
                .unwrap();
            assert_eq!(std::str::from_utf8(&out).unwrap(), want, "{input}");
        }
    }
}
