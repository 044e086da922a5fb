//! SMILES substrate for the ZSMILES reproduction.
//!
//! This crate owns everything about the SMILES notation itself, independent
//! of compression:
//!
//! * [`lexer`] — byte-level tokenizer with spans, and the byte-class
//!   table that says which bytes are whole tokens by themselves;
//! * [`parser`] — the grammar: one loop over the line's bytes that
//!   dispatches on that table, lexes only what it must, checks the
//!   structure, and reports atoms and bonds to a builder
//!   ([`graph::Molecule`], or the counting builder below);
//! * [`features`] — the counting pass: per-molecule atom, aromatic,
//!   heteroatom, halogen and ring counts without a graph;
//! * [`writer`] — molecule → SMILES with configurable ring-ID allocation;
//! * [`mod@preprocess`] — the paper's §IV-A ring-ID renumbering transform;
//! * [`alphabet`] — the SMILES character set used for dictionary
//!   pre-population (§IV-B);
//! * [`validate`] — quick (lexical) and full (grammatical) line checks;
//! * [`element`] — the periodic table, organic subset, aromaticity rules.
//!
//! # Example
//!
//! ```
//! use smiles::preprocess::preprocess;
//!
//! // The paper's Dibenzoylmethane example: ring IDs 1 and 2 collapse to 0,
//! // so both benzene rings now share the spelling "C0=CC=C".
//! let out = preprocess(b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2").unwrap();
//! assert_eq!(out, b"C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0");
//! ```

pub mod alphabet;
pub mod canon;
pub mod element;
pub mod error;
pub mod features;
pub mod formula;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod preprocess;
pub mod token;
pub mod validate;
pub mod writer;

pub use error::{SmilesError, Span};
pub use features::{FeatureCounter, FeatureCounts};
pub use formula::{molar_mass, molecular_formula, Composition};
pub use graph::{AtomKind, Bond, Molecule};
pub use parser::Parser;
pub use preprocess::{postprocess, preprocess, Preprocessor, RingRenumber};
pub use token::{BareAtom, BondSym, BracketAtom, Chirality, RingForm, Token};
