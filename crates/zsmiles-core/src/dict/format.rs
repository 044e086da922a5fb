//! Readable `.dct` dictionary files.
//!
//! The paper's workflow soft-codes the dictionary into the executable; we
//! additionally support a human-inspectable text format so dictionaries are
//! artifacts users can diff, version and share:
//!
//! ```text
//! #zsmiles-dict v1
//! #prepopulation smiles-alphabet
//! #preprocess true
//! #lmin 2
//! #lmax 8
//! !\tC(=O)
//! "\tc1ccccc1
//! \x80\tCC(
//! ```
//!
//! One entry per line: the code byte, a tab, the pattern. Bytes outside
//! printable ASCII (and the literal `\`, tab, newline) are escaped as
//! `\xNN`, so the file itself is pure ASCII. Identity entries implied by the
//! pre-population header are not listed.

use super::Dictionary;
use crate::codec::Prepopulation;
use crate::error::ZsmilesError;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

pub(crate) const MAGIC: &str = "#zsmiles-dict v1";

/// Header fields shared by the base and wide dictionary text formats —
/// the one canonical parse both [`read_dict`] and
/// [`crate::wide::read_wide_dict`] go through. Defaults match the values
/// a header-less file is read with.
#[derive(Debug, Clone)]
pub(crate) struct DictHeader {
    pub prepopulation: Prepopulation,
    pub preprocess: bool,
    pub lmin: usize,
    pub lmax: usize,
    /// Wide format only (`#wide-size`); the base parser treats the key as
    /// a forward-compatible unknown.
    pub wide_size: usize,
}

impl Default for DictHeader {
    fn default() -> Self {
        DictHeader {
            prepopulation: Prepopulation::SmilesAlphabet,
            preprocess: true,
            lmin: 2,
            lmax: 8,
            wide_size: 0,
        }
    }
}

/// Write the shared header block: magic line plus the `#key value` fields
/// both formats carry (`wide_size` adds the wide-only `#wide-size`).
pub(crate) fn write_header<W: Write>(
    w: &mut W,
    magic: &str,
    prepopulation: Prepopulation,
    preprocess: bool,
    lmin: usize,
    lmax: usize,
    wide_size: Option<usize>,
) -> std::io::Result<()> {
    writeln!(w, "{magic}")?;
    writeln!(w, "#prepopulation {}", prepopulation.name())?;
    writeln!(w, "#preprocess {preprocess}")?;
    writeln!(w, "#lmin {lmin}")?;
    writeln!(w, "#lmax {lmax}")?;
    if let Some(n) = wide_size {
        writeln!(w, "#wide-size {n}")?;
    }
    Ok(())
}

/// Write one `code\tpattern` entry line, escaped to pure ASCII.
pub(crate) fn write_entry<W: Write>(w: &mut W, code: &[u8], pat: &[u8]) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(pat.len() * 4 + code.len() * 4 + 8);
    escape_into(code, &mut line);
    line.push(b'\t');
    escape_into(pat, &mut line);
    line.push(b'\n');
    w.write_all(&line)
}

/// Parse a dictionary text document: the `magic` line, the shared header
/// fields, and the ordered pattern list (codes are re-derived from
/// pattern order by the installers, which the writers preserve). `wide`
/// selects the wide dialect: two-byte codes in the code column and the
/// `#wide-size` header (otherwise both stay a one-byte check and a
/// forward-compatible unknown key, exactly as before the formats shared
/// this parser).
pub(crate) fn parse_dict_text<R: Read>(
    r: R,
    magic: &str,
    wide: bool,
) -> Result<(DictHeader, Vec<Vec<u8>>), ZsmilesError> {
    let reader = BufReader::new(r);
    let mut header = DictHeader::default();
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    let mut saw_magic = false;

    for (ln, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = ln + 1;
        let bad = |reason: String| ZsmilesError::DictFormat {
            line: lineno,
            reason,
        };
        if ln == 0 {
            if line.trim() != magic {
                return Err(bad(format!("expected magic '{magic}'")));
            }
            saw_magic = true;
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.splitn(2, ' ');
            let key = parts.next().unwrap_or("");
            let value = parts.next().unwrap_or("").trim();
            match key {
                "prepopulation" => {
                    header.prepopulation = Prepopulation::from_name(value)
                        .ok_or_else(|| bad(format!("unknown prepopulation '{value}'")))?;
                }
                "preprocess" => {
                    header.preprocess = value
                        .parse()
                        .map_err(|_| bad(format!("bad bool '{value}'")))?;
                }
                "lmin" => {
                    header.lmin = value
                        .parse()
                        .map_err(|_| bad(format!("bad lmin '{value}'")))?;
                }
                "lmax" => {
                    header.lmax = value
                        .parse()
                        .map_err(|_| bad(format!("bad lmax '{value}'")))?;
                }
                "wide-size" if wide => {
                    header.wide_size = value
                        .parse()
                        .map_err(|_| bad(format!("bad wide-size '{value}'")))?;
                }
                _ => {} // unknown headers are forward-compatible no-ops
            }
            continue;
        }
        let (code_part, pat_part) = line
            .split_once('\t')
            .ok_or_else(|| bad("missing tab separator".into()))?;
        let code = unescape(code_part).map_err(bad)?;
        let max_code = if wide { 2 } else { 1 };
        if code.is_empty() || code.len() > max_code {
            return Err(bad(format!(
                "code must be 1..={max_code} byte(s), got {}",
                code.len()
            )));
        }
        let pat = unescape(pat_part).map_err(bad)?;
        if pat.is_empty() {
            return Err(bad("empty pattern".into()));
        }
        patterns.push(pat);
    }
    if !saw_magic {
        return Err(ZsmilesError::DictFormat {
            line: 0,
            reason: "empty file".into(),
        });
    }
    Ok((header, patterns))
}

/// Serialize to the text format.
pub fn write_dict<W: Write>(dict: &Dictionary, mut w: W) -> std::io::Result<()> {
    write_header(
        &mut w,
        MAGIC,
        dict.prepopulation(),
        dict.preprocessed(),
        dict.lmin(),
        dict.lmax(),
        None,
    )?;
    for (code, pat) in dict.pattern_entries() {
        write_entry(&mut w, &[code], pat)?;
    }
    Ok(())
}

/// Serialize to a `String` (the format is ASCII by construction).
pub fn to_string(dict: &Dictionary) -> String {
    let mut buf = Vec::new();
    write_dict(dict, &mut buf).expect("Vec<u8> write cannot fail");
    String::from_utf8(buf).expect("escaped output is ASCII")
}

/// Save to a file.
pub fn save(dict: &Dictionary, path: &Path) -> Result<(), ZsmilesError> {
    let f = std::fs::File::create(path)?;
    write_dict(dict, std::io::BufWriter::new(f))?;
    Ok(())
}

/// Parse the text format.
pub fn read_dict<R: Read>(r: R) -> Result<Dictionary, ZsmilesError> {
    let (h, patterns) = parse_dict_text(r, MAGIC, false)?;
    // Codes are re-derived from pattern order, which `write_dict` preserves
    // (pattern_entries iterates in code order = assignment order).
    let dict = Dictionary::from_patterns(h.prepopulation, patterns, h.lmin, h.lmax, h.preprocess)?;
    dict.validate()?;
    Ok(dict)
}

/// Load from a file.
pub fn load(path: &Path) -> Result<Dictionary, ZsmilesError> {
    let f = std::fs::File::open(path)?;
    read_dict(f)
}

pub(crate) fn escape_into(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\n' => out.extend_from_slice(b"\\n"),
            0x21..=0x7E => out.push(b),
            _ => {
                out.extend_from_slice(format!("\\x{b:02x}").as_bytes());
            }
        }
    }
}

pub(crate) fn unescape(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b != b'\\' {
            out.push(b);
            i += 1;
            continue;
        }
        let esc = bytes.get(i + 1).ok_or("dangling backslash")?;
        match esc {
            b'\\' => {
                out.push(b'\\');
                i += 2;
            }
            b't' => {
                out.push(b'\t');
                i += 2;
            }
            b'n' => {
                out.push(b'\n');
                i += 2;
            }
            b'x' => {
                let hex = s
                    .get(i + 2..i + 4)
                    .ok_or_else(|| "truncated \\x escape".to_string())?;
                let v = u8::from_str_radix(hex, 16).map_err(|_| format!("bad hex '{hex}'"))?;
                out.push(v);
                i += 4;
            }
            other => return Err(format!("unknown escape '\\{}'", *other as char)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::builder::DictBuilder;

    fn sample_dict() -> Dictionary {
        Dictionary::from_patterns(
            Prepopulation::SmilesAlphabet,
            [b"C(=O)".as_slice(), b"c1ccccc1", b"CC(", &[0x80, b'Z'][..]],
            2,
            8,
            true,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample_dict();
        let text = to_string(&d);
        let back = read_dict(text.as_bytes()).unwrap();
        assert_eq!(back.prepopulation(), d.prepopulation());
        assert_eq!(back.preprocessed(), d.preprocessed());
        assert_eq!(back.lmin(), d.lmin());
        assert_eq!(back.lmax(), d.lmax());
        let a: Vec<_> = d.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        let b: Vec<_> = back.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        assert_eq!(a, b, "codes and patterns identical after round trip");
    }

    #[test]
    fn output_is_pure_ascii_text() {
        let text = to_string(&sample_dict());
        assert!(text.is_ascii());
        assert!(text.starts_with("#zsmiles-dict v1\n"));
        assert!(text.contains("#prepopulation smiles-alphabet"));
        assert!(text.contains("\\x80"), "high byte escaped: {text}");
    }

    #[test]
    fn trained_dictionary_round_trips() {
        let corpus: Vec<&[u8]> = vec![b"COc1cc(C=O)ccc1O"; 10];
        let d = DictBuilder {
            min_count: 2,
            ..Default::default()
        }
        .train(corpus)
        .unwrap();
        let text = to_string(&d);
        let back = read_dict(text.as_bytes()).unwrap();
        let a: Vec<_> = d.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        let b: Vec<_> = back.all_entries().map(|(c, p)| (c, p.to_vec())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn escape_round_trip_exhaustive() {
        for b in 0u8..=255 {
            let mut esc = Vec::new();
            escape_into(&[b], &mut esc);
            let s = String::from_utf8(esc).unwrap();
            assert_eq!(unescape(&s).unwrap(), vec![b], "byte {b:#x} via '{s}'");
        }
    }

    #[test]
    fn bad_files_rejected_with_line_numbers() {
        // wrong magic
        let r = read_dict("#not-a-dict\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 1, .. })));
        // missing tab
        let r = read_dict("#zsmiles-dict v1\nABC\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        // bad escape
        let r = read_dict("#zsmiles-dict v1\n!\t\\q\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        // multi-byte code
        let r = read_dict("#zsmiles-dict v1\nab\tCC\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        // empty pattern
        let r = read_dict("#zsmiles-dict v1\n!\t\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        // empty file
        let r = read_dict("".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 0, .. })));
        // bad header values
        let r = read_dict("#zsmiles-dict v1\n#prepopulation martian\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
        let r = read_dict("#zsmiles-dict v1\n#lmin banana\n".as_bytes());
        assert!(matches!(r, Err(ZsmilesError::DictFormat { line: 2, .. })));
    }

    #[test]
    fn unknown_headers_ignored() {
        let d = read_dict("#zsmiles-dict v1\n#future-field xyz\n!\tCC\n".as_bytes()).unwrap();
        assert_eq!(d.pattern_entries().count(), 1);
    }

    #[test]
    fn file_save_load() {
        let d = sample_dict();
        let path = std::env::temp_dir().join("zsmiles_test.dct");
        save(&d, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(
            d.all_entries()
                .map(|(c, p)| (c, p.to_vec()))
                .collect::<Vec<_>>(),
            back.all_entries()
                .map(|(c, p)| (c, p.to_vec()))
                .collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }
}
