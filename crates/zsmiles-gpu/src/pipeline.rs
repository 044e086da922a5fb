//! Host-side pipeline: split a deck into lines, launch one block per
//! line, reassemble outputs in order, and account the bytes that the
//! device profiles turn into modeled time.
//!
//! Pre-processing (ring-ID renumbering) happens host-side before the
//! transfer, matching the paper's Fig. 3 where the optional preprocess
//! stage precedes compression.

use crate::device_dict::DeviceDict;
use crate::kernels::{compress_block, decompress_block};
use simt::{launch, CostReport};
use smiles::preprocess::{Preprocessor, RingRenumber};
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{ZsmilesError, LINE_SEP};

/// Launch configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpuOptions {
    /// Simulator worker threads (fidelity is unaffected; this is host
    /// wall-clock only).
    pub workers: usize,
    /// Host-side ring-ID pre-processing before compression. `None`
    /// follows the dictionary's training setting.
    pub preprocess: Option<bool>,
}

impl Default for GpuOptions {
    fn default() -> Self {
        GpuOptions {
            workers: 8,
            preprocess: None,
        }
    }
}

/// Result of a simulated GPU run.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// Newline-separated output, line-for-line with the input.
    pub output: Vec<u8>,
    /// Aggregated kernel cost (feed to [`simt::DeviceProfile`]).
    pub report: CostReport,
    /// Payload bytes into the kernel (after host preprocessing).
    pub in_bytes: u64,
    /// Payload bytes out of the kernel.
    pub out_bytes: u64,
    /// Lines processed (= blocks launched).
    pub lines: u64,
}

/// Compress a newline-separated buffer on the simulated device. Staging
/// goes through [`DeviceDict::stage`], which refuses a wide dictionary
/// with a typed error, so this layer holds no flavour match of its own.
pub fn compress(
    dict: &AnyDictionary,
    input: &[u8],
    opts: &GpuOptions,
) -> Result<GpuRun, ZsmilesError> {
    let dd = DeviceDict::stage(dict)?;
    let preprocess = opts.preprocess.unwrap_or(dict.preprocessed());
    Ok(run_compress(&dd, preprocess, input, opts))
}

fn run_compress(dd: &DeviceDict, preprocess: bool, input: &[u8], opts: &GpuOptions) -> GpuRun {
    // Host-side preprocessing pass (cheap, line-local).
    let mut lines: Vec<Vec<u8>> = Vec::new();
    let mut pp = Preprocessor::new();
    for line in input.split(|&b| b == LINE_SEP).filter(|l| !l.is_empty()) {
        if preprocess {
            let mut buf = Vec::with_capacity(line.len());
            match pp.process_into(line, RingRenumber::Innermost, 0, &mut buf) {
                Ok(()) => lines.push(buf),
                Err(_) => lines.push(line.to_vec()),
            }
        } else {
            lines.push(line.to_vec());
        }
    }

    let in_bytes: u64 = lines.iter().map(|l| l.len() as u64).sum();
    let (outputs, report) = launch(lines.len(), opts.workers, |ctx, b| {
        compress_block(ctx, dd, &lines[b])
    });

    let mut output = Vec::with_capacity(input.len());
    let mut out_bytes = 0u64;
    for o in &outputs {
        out_bytes += o.len() as u64;
        output.extend_from_slice(o);
        output.push(LINE_SEP);
    }
    GpuRun {
        output,
        report,
        in_bytes,
        out_bytes,
        lines: outputs.len() as u64,
    }
}

/// Decompress a newline-separated buffer on the simulated device.
pub fn decompress(
    dict: &AnyDictionary,
    input: &[u8],
    opts: &GpuOptions,
) -> Result<GpuRun, ZsmilesError> {
    let dd = DeviceDict::stage(dict)?;
    run_decompress(&dd, input, opts)
}

fn run_decompress(
    dd: &DeviceDict,
    input: &[u8],
    opts: &GpuOptions,
) -> Result<GpuRun, ZsmilesError> {
    let lines: Vec<&[u8]> = input
        .split(|&b| b == LINE_SEP)
        .filter(|l| !l.is_empty())
        .collect();
    let in_bytes: u64 = lines.iter().map(|l| l.len() as u64).sum();

    let (outputs, report) = launch(lines.len(), opts.workers, |ctx, b| {
        decompress_block(ctx, dd, lines[b])
    });

    let mut output = Vec::with_capacity(input.len() * 3);
    let mut out_bytes = 0u64;
    for (i, o) in outputs.into_iter().enumerate() {
        match o {
            Ok(bytes) => {
                out_bytes += bytes.len() as u64;
                output.extend_from_slice(&bytes);
                output.push(LINE_SEP);
            }
            Err(msg) => {
                return Err(ZsmilesError::DictFormat {
                    line: i + 1,
                    reason: format!("device decompression failed: {msg}"),
                })
            }
        }
    }
    Ok(GpuRun {
        output,
        report,
        in_bytes,
        out_bytes,
        lines: in_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsmiles_core::{compress_parallel_dyn, Compressor, DictBuilder};

    fn fixture() -> (AnyDictionary, Vec<u8>) {
        let lines: Vec<&[u8]> = [
            b"COc1cc(C=O)ccc1O".as_slice(),
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
        ]
        .repeat(16);
        let dict = DictBuilder {
            min_count: 2,
            ..Default::default()
        }
        .train(lines.iter().copied())
        .unwrap();
        let input: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        (AnyDictionary::Base(Box::new(dict)), input)
    }

    #[test]
    fn gpu_compression_matches_cpu_byte_for_byte() {
        let (dict, input) = fixture();
        let AnyDictionary::Base(base) = &dict else {
            unreachable!()
        };
        let mut cpu_out = Vec::new();
        Compressor::new(base).compress_buffer(&input, &mut cpu_out);
        let run = compress(&dict, &input, &GpuOptions::default()).unwrap();
        assert_eq!(run.output, cpu_out);
        assert_eq!(run.lines, 64);
        assert!(run.report.total.instructions > 0);
        // And matches the parallel CPU engine too (transitivity check).
        let (par, _) = compress_parallel_dyn(&dict, &input, 4);
        assert_eq!(run.output, par);
    }

    #[test]
    fn gpu_round_trip() {
        let (dict, input) = fixture();
        let z = compress(&dict, &input, &GpuOptions::default()).unwrap();
        let back = decompress(&dict, &z.output, &GpuOptions::default()).unwrap();
        // Dictionary was trained with preprocessing on, so the round trip
        // returns the preprocessed (still-valid) form.
        let mut expect = Vec::new();
        let mut pp = Preprocessor::new();
        for line in input.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            pp.process_into(line, RingRenumber::Innermost, 0, &mut expect)
                .unwrap();
            expect.push(b'\n');
        }
        assert_eq!(back.output, expect);
        assert_eq!(back.out_bytes, z.in_bytes);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let (dict, input) = fixture();
        let a = compress(
            &dict,
            &input,
            &GpuOptions {
                workers: 1,
                preprocess: None,
            },
        )
        .unwrap();
        let b = compress(
            &dict,
            &input,
            &GpuOptions {
                workers: 7,
                preprocess: None,
            },
        )
        .unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(
            a.report, b.report,
            "cost accounting independent of host threads"
        );
    }

    #[test]
    fn device_time_is_memory_bound_for_decompression() {
        let (dict, input) = fixture();
        let z = compress(&dict, &input, &GpuOptions::default()).unwrap();
        let run = decompress(&dict, &z.output, &GpuOptions::default()).unwrap();
        let kt = simt::A100_LIKE.kernel_time(&run.report);
        // Decompression is lookups + copies: traffic, not arithmetic.
        assert!(
            kt.memory_s * 20.0 > kt.compute_s,
            "decompression should be near the memory roof: {kt:?}"
        );
    }

    #[test]
    fn corrupt_input_reports_line() {
        let (dict, _) = fixture();
        let r = decompress(&dict, b"\x01\x02\n", &GpuOptions::default());
        assert!(r.is_err());
    }

    #[test]
    fn wide_staging_is_rejected_not_mislaid() {
        let (_, input) = fixture();
        let lines: Vec<&[u8]> = input
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        let wide = zsmiles_core::WideDictBuilder {
            base: zsmiles_core::DictBuilder {
                min_count: 2,
                ..Default::default()
            },
            wide_size: 16,
        }
        .train(lines.iter().copied())
        .unwrap();
        let any = AnyDictionary::Wide(Box::new(wide));
        let err = compress(&any, &input, &GpuOptions::default()).unwrap_err();
        assert!(matches!(err, ZsmilesError::Unsupported { .. }), "{err}");
        assert!(DeviceDict::stage(&any).is_err());
    }
}
