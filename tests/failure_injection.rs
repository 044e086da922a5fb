//! Failure injection across the stack: corrupted archives, corrupted
//! dictionaries, truncated sidecars, hostile inputs. Every failure must be
//! *detected and reported* — never a panic, never silent garbage where
//! detection is possible.

use molgen::Dataset;
use zsmiles_core::dict::format as dict_format;
use zsmiles_core::{Compressor, Decompressor, DictBuilder, Dictionary, LineIndex, ZsmilesError};

fn fixture() -> (Dictionary, Vec<u8>, Vec<u8>) {
    let ds = Dataset::generate_mixed(300, 0xFA11);
    let dict = DictBuilder::default().train(ds.iter()).unwrap();
    let mut z = Vec::new();
    Compressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);
    (dict, ds.as_bytes().to_vec(), z)
}

#[test]
fn corrupted_archive_bytes_error_or_decode_validly() {
    let (dict, _, z) = fixture();
    let mut dc = Decompressor::new(&dict);
    // Flip bytes at a spread of positions. A flipped byte either becomes
    // an invalid code (error) or another valid code (different molecule —
    // detectable only by checksums, which the readable format deliberately
    // omits); both are acceptable, panics are not.
    for pos in (0..z.len()).step_by(97) {
        let mut bad = z.clone();
        bad[pos] ^= 0x15;
        if bad[pos] == b'\n' {
            continue; // splitting a line changes the line count, fine
        }
        let mut out = Vec::new();
        let _ = dc.decompress_buffer(&bad, &mut out); // must not panic
    }
}

#[test]
fn control_bytes_in_archive_are_rejected() {
    let (dict, _, _) = fixture();
    let mut dc = Decompressor::new(&dict);
    for bad_byte in [0x00u8, 0x07, 0x1F, 0x7F] {
        let mut out = Vec::new();
        let r = dc.decompress_line(&[b'C', bad_byte], &mut out);
        assert!(
            matches!(r, Err(ZsmilesError::UnknownCode { .. })),
            "byte {bad_byte:#04x} must be rejected"
        );
    }
}

#[test]
fn corrupted_dictionary_file_is_rejected_with_line_info() {
    let (dict, _, _) = fixture();
    let text = dict_format::to_string(&dict);

    // Truncate mid-entry.
    let cut = &text[..text.len() - 5];
    match dict_format::read_dict(cut.as_bytes()) {
        Ok(d) => {
            // Losing whole trailing lines can still parse; it must at
            // least validate.
            d.validate().unwrap();
        }
        Err(ZsmilesError::DictFormat { .. }) => {}
        Err(e) => panic!("unexpected error class: {e}"),
    }

    // Inject a malformed entry line.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(6, "not-a-valid-entry");
    let broken = lines.join("\n");
    let r = dict_format::read_dict(broken.as_bytes());
    assert!(
        matches!(r, Err(ZsmilesError::DictFormat { line: 7, .. })),
        "{r:?}"
    );
}

#[test]
fn mismatched_dictionary_decodes_to_garbage_not_panic() {
    // Compressing with one dictionary and decompressing with another is a
    // user error the readable format cannot detect (codes are just bytes);
    // it must still never panic and mostly produce *something*.
    let (dict_a, input, _) = fixture();
    let other = Dataset::generate(molgen::profiles::GDB17, 300, 0x0DD);
    let dict_b = DictBuilder::default().train(other.iter()).unwrap();

    let mut z = Vec::new();
    Compressor::new(&dict_a).compress_buffer(&input, &mut z);
    let mut out = Vec::new();
    let _ = Decompressor::new(&dict_b).decompress_buffer(&z, &mut out); // no panic
}

#[test]
fn index_sidecar_corruption_detected() {
    let (_, _, z) = fixture();
    let idx = LineIndex::build(&z);
    let mut blob = Vec::new();
    idx.write_to(&mut blob).unwrap();

    // Magic corruption.
    let mut bad = blob.clone();
    bad[0] ^= 0xFF;
    assert!(LineIndex::read_from(bad.as_slice()).is_err());

    // Truncations at every header boundary.
    for cut in [0usize, 4, 8, 12, 20, blob.len() - 3] {
        assert!(
            LineIndex::read_from(&blob[..cut.min(blob.len())]).is_err(),
            "cut at {cut}"
        );
    }

    // Offset table corruption (non-monotonic).
    let mut bad = blob.clone();
    if bad.len() > 40 {
        // Swap two offset entries.
        let a = 24;
        let b = 32;
        for k in 0..8 {
            bad.swap(a + k, b + k);
        }
        assert!(LineIndex::read_from(bad.as_slice()).is_err());
    }
}

#[test]
fn baseline_containers_detect_corruption() {
    let (_, input, _) = fixture();

    let bz = textcomp::bzip::compress(&input);
    for pos in (12..bz.len()).step_by(211) {
        let mut bad = bz.clone();
        bad[pos] ^= 0x08;
        if let Ok(out) = textcomp::bzip::decompress(&bad) {
            assert_eq!(out, input, "undetected change must be a no-op")
        }
    }

    let lz = textcomp::lz::compress(&input);
    for pos in (12..lz.len()).step_by(211) {
        let mut bad = lz.clone();
        bad[pos] ^= 0x08;
        if let Ok(out) = textcomp::lz::decompress(&bad) {
            assert_eq!(out, input, "undetected change must be a no-op")
        }
    }
}

#[test]
fn hostile_lines_compress_without_panic() {
    let (dict, _, _) = fixture();
    let mut c = Compressor::new(&dict);
    let hostile: Vec<Vec<u8>> = vec![
        vec![],
        vec![b' '; 100], // escape marker as content
        (0u8..=255).filter(|&b| b != b'\n').collect(),
        vec![0xFF; 300],
        b"C1CC".to_vec(), // invalid SMILES (unclosed ring)
        b"((((((((".to_vec(),
        vec![b'%'; 50],
    ];
    let mut dc = Decompressor::new(&dict);
    for line in hostile {
        let mut z = Vec::new();
        c.compress_line(&line, &mut z);
        let mut back = Vec::new();
        dc.decompress_line(&z, &mut back).unwrap();
        // Invalid SMILES are compressed raw (preprocess falls back), so
        // the round trip is exact for them.
        assert_eq!(back, line);
    }
}

#[test]
fn wide_archive_corruption_never_panics() {
    let ds = Dataset::generate_mixed(200, 0xFA12);
    let dict = zsmiles_core::WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 128,
    }
    .train(ds.iter())
    .unwrap();
    let mut z = Vec::new();
    zsmiles_core::WideCompressor::new(&dict).compress_buffer(ds.as_bytes(), &mut z);
    let dc = zsmiles_core::WideDecompressor::new(&dict);
    for pos in (0..z.len()).step_by(89) {
        let mut bad = z.clone();
        bad[pos] ^= 0x15;
        let mut out = Vec::new();
        let _ = dc.decompress_buffer(&bad, &mut out); // must not panic
    }
    // Truncating right after a page byte is the wide-specific corruption.
    if let Some(pp) = z.iter().position(|&b| b >= 0xF8) {
        let mut out = Vec::new();
        let r = dc.decompress_line(&z[..=pp], &mut out);
        assert!(
            matches!(r, Err(ZsmilesError::TruncatedWideCode { .. })),
            "cut after page byte must be detected: {r:?}"
        );
    }
}

#[test]
fn wide_dictionary_file_corruption_rejected() {
    let ds = Dataset::generate_mixed(200, 0xFA13);
    let dict = zsmiles_core::WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 64,
    }
    .train(ds.iter())
    .unwrap();
    let mut buf = Vec::new();
    zsmiles_core::wide::write_wide_dict(&dict, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();

    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(7, "not-a-valid-entry");
    let broken = lines.join("\n");
    let r = zsmiles_core::wide::read_wide_dict(broken.as_bytes());
    assert!(
        matches!(r, Err(ZsmilesError::DictFormat { line: 8, .. })),
        "{r:?}"
    );

    // A base-format file must not parse as a wide dictionary.
    let (base_dict, _, _) = fixture();
    let base_text = dict_format::to_string(&base_dict);
    assert!(zsmiles_core::wide::read_wide_dict(base_text.as_bytes()).is_err());
}

#[test]
fn wide_hostile_lines_round_trip_exactly() {
    let ds = Dataset::generate_mixed(200, 0xFA14);
    let dict = zsmiles_core::WideDictBuilder {
        base: DictBuilder::default(),
        wide_size: 64,
    }
    .train(ds.iter())
    .unwrap();
    let mut c = zsmiles_core::WideCompressor::new(&dict).with_preprocess(false);
    let dc = zsmiles_core::WideDecompressor::new(&dict);
    let hostile: Vec<Vec<u8>> = vec![
        vec![],
        vec![b' '; 100],
        (0u8..=255).filter(|&b| b != b'\n').collect(),
        vec![0xF8; 60], // page-prefix bytes as *content* must escape cleanly
        vec![0xFF; 300],
        b"((((((((".to_vec(),
    ];
    for line in hostile {
        let mut z = Vec::new();
        c.compress_line(&line, &mut z);
        let mut back = Vec::new();
        dc.decompress_line(&z, &mut back).unwrap();
        assert_eq!(back, line);
    }
}

#[test]
fn gpu_sim_rejects_bad_input_like_cpu() {
    let (dict, _, _) = fixture();
    let dict = zsmiles_core::AnyDictionary::Base(Box::new(dict));
    let r = zsmiles_gpu::decompress(&dict, b"\x01\x01\n", &zsmiles_gpu::GpuOptions::default());
    assert!(r.is_err());
}

#[test]
fn oversized_lines_rejected_cleanly_by_gpu_kernel() {
    // Kernel shared-memory budget is MAX_LINE; the CPU engine has no such
    // limit. Assert the contract boundary is enforced by a panic guard in
    // debug (assert!) — here we stay just inside and verify success.
    let (dict, _, _) = fixture();
    let dict = zsmiles_core::AnyDictionary::Base(Box::new(dict));
    let long_line = vec![b'C'; zsmiles_gpu::MAX_LINE];
    let mut input = long_line.clone();
    input.push(b'\n');
    let run = zsmiles_gpu::compress(&dict, &input, &zsmiles_gpu::GpuOptions::default()).unwrap();
    assert_eq!(run.lines, 1);
    let back =
        zsmiles_gpu::decompress(&dict, &run.output, &zsmiles_gpu::GpuOptions::default()).unwrap();
    assert_eq!(&back.output[..long_line.len()], long_line.as_slice());
}
