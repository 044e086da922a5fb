//! The periodic table, as far as SMILES needs it.
//!
//! Bracket atoms may name any element; bare (organic-subset) atoms may only
//! use a small whitelist. This module owns both tables plus the metadata the
//! parser and the generator need: default valences and which elements may be
//! aromatic.

/// Maximum length of an element symbol in bytes ("Cl", "Br", "Uue" is 3 but
/// we stop at the 118 named elements, all of which fit in 2 bytes).
pub const MAX_SYMBOL_LEN: usize = 2;

/// All IUPAC element symbols for Z = 1..=118, indexed by `Z - 1`.
///
/// Order matters: `symbol(z)` and `atomic_number(sym)` round-trip through it.
pub const SYMBOLS: [&str; 118] = [
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg", "Al", "Si", "P", "S", "Cl",
    "Ar", "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn", "Ga", "Ge", "As",
    "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In",
    "Sn", "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd", "Pm", "Sm", "Eu", "Gd", "Tb",
    "Dy", "Ho", "Er", "Tm", "Yb", "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg", "Tl",
    "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th", "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk",
    "Cf", "Es", "Fm", "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds", "Rg", "Cn", "Nh",
    "Fl", "Mc", "Lv", "Ts", "Og",
];

/// Atomic number by symbol bytes, `0` where no element has that symbol.
/// Row = upper-case first letter; column 0 = one-letter symbol, column
/// `1 + (b1 - b'a')` = lower-case second letter `b1`.
const SYMBOL_INDEX: [u8; 26 * 27] = {
    let mut table = [0u8; 26 * 27];
    let mut i = 0;
    while i < SYMBOLS.len() {
        let s = SYMBOLS[i].as_bytes();
        let col = if s.len() == 2 {
            (s[1] - b'a') as usize + 1
        } else {
            0
        };
        table[(s[0] - b'A') as usize * 27 + col] = (i + 1) as u8;
        i += 1;
    }
    table
};

/// Standard atomic weights (CIAAW 2021 conventional values, u), indexed by
/// `Z - 1`. Elements with no stable isotope carry the mass number of their
/// longest-lived isotope, the usual convention for tables like this.
pub const ATOMIC_WEIGHTS: [f64; 118] = [
    1.008, 4.0026, 6.94, 9.0122, 10.81, 12.011, 14.007, 15.999, 18.998, 20.180, 22.990, 24.305,
    26.982, 28.085, 30.974, 32.06, 35.45, 39.95, 39.098, 40.078, 44.956, 47.867, 50.942, 51.996,
    54.938, 55.845, 58.933, 58.693, 63.546, 65.38, 69.723, 72.630, 74.922, 78.971, 79.904, 83.798,
    85.468, 87.62, 88.906, 91.224, 92.906, 95.95, 97.0, 101.07, 102.91, 106.42, 107.87, 112.41,
    114.82, 118.71, 121.76, 127.60, 126.90, 131.29, 132.91, 137.33, 138.91, 140.12, 140.91, 144.24,
    145.0, 150.36, 151.96, 157.25, 158.93, 162.50, 164.93, 167.26, 168.93, 173.05, 174.97, 178.49,
    180.95, 183.84, 186.21, 190.23, 192.22, 195.08, 196.97, 200.59, 204.38, 207.2, 208.98, 209.0,
    210.0, 222.0, 223.0, 226.0, 227.0, 232.04, 231.04, 238.03, 237.0, 244.0, 243.0, 247.0, 247.0,
    251.0, 252.0, 257.0, 258.0, 259.0, 262.0, 267.0, 270.0, 269.0, 270.0, 270.0, 278.0, 281.0,
    281.0, 285.0, 286.0, 289.0, 289.0, 293.0, 293.0, 294.0,
];

/// An element identified by atomic number, plus the `*` wildcard atom that
/// SMILES permits ("unknown / any atom").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Element {
    /// A real element; payload is the atomic number `Z` (1..=118).
    Z(u8),
    /// The `*` wildcard atom.
    Wildcard,
}

impl Element {
    /// Look up an element by its case-sensitive symbol (`"Cl"`, not `"CL"`).
    pub fn from_symbol(sym: &[u8]) -> Option<Element> {
        let (b0, col) = match *sym {
            [b'*'] => return Some(Element::Wildcard),
            [b0] => (b0, 0),
            [b0, b1 @ b'a'..=b'z'] => (b0, (b1 - b'a') as usize + 1),
            _ => return None,
        };
        if !b0.is_ascii_uppercase() {
            return None;
        }
        match SYMBOL_INDEX[(b0 - b'A') as usize * 27 + col] {
            0 => None,
            z => Some(Element::Z(z)),
        }
    }

    /// The printable symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            Element::Wildcard => "*",
            Element::Z(z) => SYMBOLS[(*z as usize) - 1],
        }
    }

    /// Atomic number, or `None` for the wildcard.
    pub fn atomic_number(&self) -> Option<u8> {
        match self {
            Element::Z(z) => Some(*z),
            Element::Wildcard => None,
        }
    }

    /// May this element appear *bare* (outside brackets)?
    ///
    /// The SMILES "organic subset": B, C, N, O, P, S, F, Cl, Br, I
    /// (plus the wildcard `*`).
    pub fn in_organic_subset(&self) -> bool {
        matches!(
            self,
            Element::Wildcard
                | Element::Z(5)   // B
                | Element::Z(6)   // C
                | Element::Z(7)   // N
                | Element::Z(8)   // O
                | Element::Z(15)  // P
                | Element::Z(16)  // S
                | Element::Z(9)   // F
                | Element::Z(17)  // Cl
                | Element::Z(35)  // Br
                | Element::Z(53) // I
        )
    }

    /// May this element be aromatic (lower-case) in SMILES at all?
    ///
    /// OpenSMILES: b, c, n, o, p, s, as, se (the latter two only inside
    /// brackets).
    pub fn may_be_aromatic(&self) -> bool {
        matches!(
            self,
            Element::Z(5)
                | Element::Z(6)
                | Element::Z(7)
                | Element::Z(8)
                | Element::Z(15)
                | Element::Z(16)
                | Element::Z(33)
                | Element::Z(34)
        )
    }

    /// May this element be aromatic *outside* brackets? (b c n o p s only)
    pub fn bare_aromatic_allowed(&self) -> bool {
        matches!(
            self,
            Element::Z(5)
                | Element::Z(6)
                | Element::Z(7)
                | Element::Z(8)
                | Element::Z(15)
                | Element::Z(16)
        )
    }

    /// Standard atomic weight in unified atomic mass units; `None` for the
    /// wildcard atom.
    pub fn atomic_weight(&self) -> Option<f64> {
        match self {
            Element::Z(z) => Some(ATOMIC_WEIGHTS[(*z as usize) - 1]),
            Element::Wildcard => None,
        }
    }

    /// Default valences used for implicit-hydrogen accounting of
    /// organic-subset atoms (OpenSMILES table). Elements with several normal
    /// valences list them all, smallest first.
    pub fn default_valences(&self) -> &'static [u8] {
        match self {
            Element::Z(5) => &[3],        // B
            Element::Z(6) => &[4],        // C
            Element::Z(7) => &[3, 5],     // N
            Element::Z(8) => &[2],        // O
            Element::Z(15) => &[3, 5],    // P
            Element::Z(16) => &[2, 4, 6], // S
            Element::Z(9) | Element::Z(17) | Element::Z(35) | Element::Z(53) => &[1],
            _ => &[],
        }
    }
}

/// Parse the longest element symbol starting at `input[0]` that is valid
/// *inside a bracket atom*. Returns `(element, consumed_bytes, aromatic)`.
///
/// Inside brackets a lower-case first letter means "aromatic" for the
/// handful of elements that support it; two-letter aromatic symbols keep the
/// second letter lower-case too (`se`, `as`).
pub fn parse_bracket_symbol(input: &[u8]) -> Option<(Element, usize, bool)> {
    if input.is_empty() {
        return None;
    }
    let b0 = input[0];
    if b0 == b'*' {
        return Some((Element::Wildcard, 1, false));
    }
    if b0.is_ascii_uppercase() {
        // Try the two-letter symbol first ("Cl" before "C").
        if input.len() >= 2 && input[1].is_ascii_lowercase() {
            let two = &input[..2];
            if let Some(e) = Element::from_symbol(two) {
                return Some((e, 2, false));
            }
        }
        return Element::from_symbol(&input[..1]).map(|e| (e, 1, false));
    }
    if b0.is_ascii_lowercase() {
        // Aromatic symbols: "as" / "se" are two letters; b c n o p s are one.
        if input.len() >= 2 && input[1].is_ascii_lowercase() {
            let upper2 = [b0.to_ascii_uppercase(), input[1]];
            if let Some(e) = Element::from_symbol(&upper2) {
                if e.may_be_aromatic() {
                    return Some((e, 2, true));
                }
            }
        }
        let upper1 = [b0.to_ascii_uppercase()];
        if let Some(e) = Element::from_symbol(&upper1) {
            if e.may_be_aromatic() {
                return Some((e, 1, true));
            }
        }
        return None;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_round_trips() {
        for z in 1..=118u8 {
            let e = Element::Z(z);
            let sym = e.symbol();
            assert_eq!(
                Element::from_symbol(sym.as_bytes()),
                Some(e),
                "symbol {sym}"
            );
        }
    }

    #[test]
    fn symbol_lookup_is_exact_over_every_short_ascii_string() {
        let mut strings: Vec<Vec<u8>> = (0..128u8).map(|b| vec![b]).collect();
        for b0 in 0..128u8 {
            strings.extend((0..128u8).map(|b1| vec![b0, b1]));
        }
        for s in strings {
            let want = if s == b"*" {
                Some(Element::Wildcard)
            } else {
                SYMBOLS
                    .iter()
                    .position(|sym| sym.as_bytes() == s.as_slice())
                    .map(|i| Element::Z(i as u8 + 1))
            };
            assert_eq!(Element::from_symbol(&s), want, "{s:?}");
        }
    }

    #[test]
    fn wildcard_round_trips() {
        assert_eq!(Element::from_symbol(b"*"), Some(Element::Wildcard));
        assert_eq!(Element::Wildcard.symbol(), "*");
        assert_eq!(Element::Wildcard.atomic_number(), None);
    }

    #[test]
    fn unknown_symbols_rejected() {
        assert_eq!(Element::from_symbol(b"Xx"), None);
        assert_eq!(Element::from_symbol(b"CL"), None, "case sensitive");
        assert_eq!(Element::from_symbol(b""), None);
        assert_eq!(Element::from_symbol(b"cl"), None);
    }

    #[test]
    fn organic_subset_is_exactly_ten_plus_wildcard() {
        let subset: Vec<&str> = (1..=118u8)
            .map(Element::Z)
            .filter(|e| e.in_organic_subset())
            .map(|e| e.symbol())
            .collect();
        assert_eq!(subset, ["B", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I"]);
        assert!(Element::Wildcard.in_organic_subset());
    }

    #[test]
    fn aromatic_rules() {
        assert!(Element::from_symbol(b"C").unwrap().bare_aromatic_allowed());
        assert!(Element::from_symbol(b"Se").unwrap().may_be_aromatic());
        assert!(!Element::from_symbol(b"Se").unwrap().bare_aromatic_allowed());
        assert!(!Element::from_symbol(b"Fe").unwrap().may_be_aromatic());
    }

    #[test]
    fn bracket_symbol_parsing() {
        // Longest match wins: "Cl" not "C".
        let (e, n, ar) = parse_bracket_symbol(b"Cl]").unwrap();
        assert_eq!(e.symbol(), "Cl");
        assert_eq!(n, 2);
        assert!(!ar);

        // "Sc" is scandium even though "S" would match first.
        let (e, n, _) = parse_bracket_symbol(b"Sc").unwrap();
        assert_eq!(e.symbol(), "Sc");
        assert_eq!(n, 2);

        // Aromatic selenium.
        let (e, n, ar) = parse_bracket_symbol(b"se]").unwrap();
        assert_eq!(e.symbol(), "Se");
        assert_eq!(n, 2);
        assert!(ar);

        // Aromatic carbon.
        let (e, n, ar) = parse_bracket_symbol(b"c1").unwrap();
        assert_eq!(e.symbol(), "C");
        assert_eq!(n, 1);
        assert!(ar);

        // "fe" is not a valid aromatic symbol.
        assert!(parse_bracket_symbol(b"fe").is_none());
        // Digits can't start a symbol.
        assert!(parse_bracket_symbol(b"2H").is_none());
    }

    #[test]
    fn sc_vs_s_carbon_trap() {
        // Inside a bracket, "SC" (sulfur then junk) must parse as S (1 byte),
        // because the second letter is uppercase.
        let (e, n, _) = parse_bracket_symbol(b"SC").unwrap();
        assert_eq!(e.symbol(), "S");
        assert_eq!(n, 1);
    }

    #[test]
    fn default_valences_table() {
        assert_eq!(Element::from_symbol(b"C").unwrap().default_valences(), &[4]);
        assert_eq!(
            Element::from_symbol(b"N").unwrap().default_valences(),
            &[3, 5]
        );
        assert_eq!(
            Element::from_symbol(b"S").unwrap().default_valences(),
            &[2, 4, 6]
        );
        assert_eq!(
            Element::from_symbol(b"Fe").unwrap().default_valences(),
            &[] as &[u8]
        );
    }
}
