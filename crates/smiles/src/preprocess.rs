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
//!
//! # One pass
//!
//! [`Preprocessor::process_into`] copies the line to the output once and
//! then makes one ring scan over it (see [`crate::lexer`]): a block of
//! bytes is classified at a time, and only ring digits, `%`, `[` and the
//! other bytes the lexer must read reach per-byte code. Each ring bond is
//! paired as the scan meets it, in a fixed-size state: a bit set of the
//! open input IDs and, per input ID, where its pair opened and what the
//! coloring needs. As soon as a pair's new ID is known, its digits are
//! patched into the copy in place. Only a site whose spelling changes
//! length, a `%nn` taking an ID below 10 or a digit taking one of 10 or
//! more, is left for a splice after the scan.

use crate::error::{SmilesError, Span};
use crate::lexer::{ByteScan, Lexer};
use crate::token::{RingForm, Token};
use std::cell::RefCell;
use std::convert::Infallible;
use std::ops::ControlFlow;

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

/// Marks a pair that could not get a new ID (the ID space ran out).
const NO_ID: u16 = u16::MAX;

/// The pair an input ring ID keeps open. Meaningful only while the ID is
/// in the line's open set, so nothing is reset between lines.
#[derive(Debug, Clone, Copy)]
struct OpenRing {
    /// Where the opening ring bond is spelled.
    site: Span,
    /// Innermost: the new IDs of the pairs that closed since this one
    /// opened.
    taken: IdSet,
    /// Outermost: this pair's new ID.
    id: u16,
}

/// Reusable pre-processor. Its scratch lives between lines, so per-line
/// processing is allocation-free in the steady state.
///
/// The scan colors the intervals as it pairs them:
/// [`RingRenumber::Outermost`] gives a pair the smallest ID no still-open
/// pair holds when it opens; [`RingRenumber::Innermost`] gives it, when
/// it closes, the smallest ID no pair that closed in the meantime took.
#[derive(Debug)]
pub struct Preprocessor {
    /// Per input ring ID, the pair it keeps open.
    open: [OpenRing; 100],
    /// The sites whose new spelling differs in length from the old one,
    /// with their new IDs: spliced in after the scan.
    splices: Vec<(Span, u16)>,
    scan: ByteScan,
}

impl Default for Preprocessor {
    fn default() -> Self {
        Preprocessor::new()
    }
}

impl Preprocessor {
    pub fn new() -> Self {
        Preprocessor::with_scan(ByteScan::detect())
    }

    /// A pre-processor whose ring scan classifies bytes through `scan`.
    pub(crate) fn with_scan(scan: ByteScan) -> Self {
        Preprocessor {
            open: [OpenRing {
                site: Span::point(0),
                taken: 0,
                id: NO_ID,
            }; 100],
            splices: Vec::new(),
            scan,
        }
    }

    /// Renumber ring IDs in `line` (no trailing newline), appending the
    /// result to `out`. `out` is *not* cleared, and on error it is left
    /// as it was. The first assigned ID is `first_id` — the paper starts
    /// at 0; conventional exporters start at 1.
    ///
    /// Errors, in this order: the line's first lexical error, an
    /// unclosed ring (the only structural property the transform needs;
    /// full validation is the parser's job, and compression must work
    /// even on lines it has not parsed), then an exhausted ID space.
    pub fn process_into(
        &mut self,
        line: &[u8],
        strategy: RingRenumber,
        first_id: u16,
        out: &mut Vec<u8>,
    ) -> Result<(), SmilesError> {
        self.splices.clear();
        let base = out.len();
        out.extend_from_slice(line);
        if strategy == RingRenumber::Preserve {
            return Ok(());
        }
        if let Err(e) = self.renumber(line, strategy, first_id, &mut out[base..]) {
            self.splices.clear();
            out.truncate(base);
            return Err(e);
        }
        if !self.splices.is_empty() {
            self.splice(out, base);
        }
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

    /// Whether the last line renumbered needed the splice: some site's new
    /// spelling differed in length from its old one. Otherwise (and after
    /// an error) its output was the one copy, patched in place.
    #[cfg(test)]
    pub(crate) fn spliced(&self) -> bool {
        !self.splices.is_empty()
    }

    /// The scan: pair every ring bond of `line`, color the pairs, and
    /// patch each new ID into `copy`, a copy of `line`, as soon as it is
    /// known; sites that change length go to `splices`.
    fn renumber(
        &mut self,
        line: &[u8],
        strategy: RingRenumber,
        first_id: u16,
        copy: &mut [u8],
    ) -> Result<(), SmilesError> {
        let allowed = ALL_IDS & !((1 << first_id.min(MAX_RING_ID + 1)) - 1);
        let innermost = strategy == RingRenumber::Innermost;
        // The input IDs open right now, and (outermost) their new IDs.
        let (mut open, mut held): (IdSet, IdSet) = (0, 0);
        let mut pairs = 0usize;
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
        let Preprocessor {
            open: slots,
            splices,
            scan,
        } = self;
        let ControlFlow::Continue(()) = Lexer::new(line).scan_rings(*scan, |site, input_id| {
            let bit = 1 << input_id;
            if open & bit == 0 {
                open |= bit;
                pairs += 1;
                let slot = &mut slots[input_id as usize];
                slot.site = site;
                if innermost {
                    slot.taken = 0;
                } else {
                    slot.id = lowest_free(held);
                    if slot.id != NO_ID {
                        held |= 1 << slot.id;
                    }
                    patch(copy, splices, site, slot.id);
                }
            } else {
                open &= !bit;
                let slot = slots[input_id as usize];
                let id = if innermost {
                    let id = lowest_free(slot.taken);
                    // Every pair still open overlaps this one.
                    if id != NO_ID {
                        let mut others = open;
                        while others != 0 {
                            slots[others.trailing_zeros() as usize].taken |= 1 << id;
                            others &= others - 1;
                        }
                    }
                    patch(copy, splices, slot.site, id);
                    id
                } else {
                    if slot.id != NO_ID {
                        held &= !(1 << slot.id);
                    }
                    slot.id
                };
                patch(copy, splices, site, id);
            }
            ControlFlow::<Infallible>::Continue(())
        })?;
        if open != 0 {
            return Err(SmilesError::UnclosedRing {
                id: open.trailing_zeros() as u16,
            });
        }
        if exhausted {
            return Err(SmilesError::RingIdSpaceExhausted { concurrent: pairs });
        }
        Ok(())
    }

    /// Rebuild the patched copy at `out[base..]` with every site in
    /// `splices` respelled, in line order: the rare path, for `%nn`
    /// inputs and lines with ten or more rings open at once.
    fn splice(&mut self, out: &mut Vec<u8>, base: usize) {
        self.splices.sort_unstable_by_key(|(site, _)| site.start);
        let end = out.len();
        let mut pos = base;
        for &(site, id) in &self.splices {
            out.extend_from_within(pos..base + site.start);
            let form = if id < 10 {
                RingForm::Digit
            } else {
                RingForm::Percent
            };
            Token::Ring { id, form }.write_to(out);
            pos = base + site.end;
        }
        out.extend_from_within(pos..end);
        out.drain(base..end);
    }
}

/// Write new ID `id` at `site` of `copy` when its spelling keeps the
/// site's length, else leave it to the splice.
#[inline(always)]
fn patch(copy: &mut [u8], splices: &mut Vec<(Span, u16)>, site: Span, id: u16) {
    match (site.len(), id) {
        (_, NO_ID) => {}
        (1, 0..=9) => copy[site.start] = b'0' + id as u8,
        (3, 10..) => {
            copy[site.start + 1] = b'0' + (id / 10) as u8;
            copy[site.start + 2] = b'0' + (id % 10) as u8;
        }
        _ => splices.push((site, id)),
    }
}

thread_local! {
    /// The one-shots' pre-processor: a call reuses its per-ID state
    /// instead of initialising a fresh one.
    static ONE_SHOT: RefCell<Preprocessor> = RefCell::new(Preprocessor::new());
}

/// One-shot [`Preprocessor::preprocess_into`].
pub fn preprocess(line: &[u8]) -> Result<Vec<u8>, SmilesError> {
    let mut out = Vec::with_capacity(line.len());
    ONE_SHOT.with_borrow_mut(|pp| pp.preprocess_into(line, &mut out))?;
    Ok(out)
}

/// One-shot [`Preprocessor::postprocess_into`].
pub fn postprocess(line: &[u8]) -> Result<Vec<u8>, SmilesError> {
    let mut out = Vec::with_capacity(line.len() + 4);
    ONE_SHOT.with_borrow_mut(|pp| pp.postprocess_into(line, &mut out))?;
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
