//! **Figure 5** — normalized execution times of the serial (the paper's
//! "C++") and device ("CUDA") implementations, compression (5a) and
//! decompression (5b), for Lmax ∈ {5, 8, 15}.
//!
//! Methodology (DESIGN.md §2): the serial engine's compute time is
//! *measured* on this host; the device time is *modeled* from the SIMT
//! simulator's instruction/transaction counts priced on an A100-like
//! profile. Both pipelines share the same storage-bandwidth terms
//! (read the deck, write the archive), which is what makes the whole thing
//! memory-bound — the paper's headline observation. Times are normalized
//! to the serial implementation at the largest Lmax, exactly like the
//! figure.

use bench::{emit_datum, row, Decks, ExpConfig};
use simt::{A100_LIKE, EPYC_CORE_LIKE, SCRATCH_FS};
use std::time::Instant;
use zsmiles_core::{AnyDictionary, Compressor, Decompressor, DictBuilder};
use zsmiles_gpu::{compress as gpu_compress, decompress as gpu_decompress, GpuOptions};

const LMAX_VALUES: [usize; 3] = [5, 8, 15];

fn main() {
    let mut cfg = ExpConfig::from_args();
    // The simulator executes every warp instruction on the host; cap the
    // deck so a full sweep stays pleasant. Ratios are per-byte, so scale
    // does not change the shape.
    if cfg.lines > 10_000 {
        cfg.lines = 10_000;
    }
    let decks = Decks::generate(&cfg);
    let deck = &decks.mixed;
    let input = deck.as_bytes();

    println!(
        "Figure 5: normalized execution time vs Lmax on MIXED ({} lines)\n\
         serial = measured on this host; device = SIMT-simulated, priced on {} \
         with {} storage\n",
        deck.len(),
        A100_LIKE.name,
        SCRATCH_FS.name
    );

    let mut comp_rows = Vec::new();
    let mut deco_rows = Vec::new();

    for lmax in LMAX_VALUES {
        let dict = DictBuilder {
            lmax,
            ..Default::default()
        }
        .train(deck.iter())
        .expect("training succeeds");

        // ---------- compression ----------
        let t0 = Instant::now();
        let mut zout = Vec::with_capacity(input.len() / 2);
        let cstats = Compressor::new(&dict).compress_buffer(input, &mut zout);
        let cpu_comp_s = t0.elapsed().as_secs_f64();
        let cpu_comp = EPYC_CORE_LIKE.pipeline_time(
            cpu_comp_s,
            cstats.in_bytes as u64,
            cstats.out_bytes as u64,
            &SCRATCH_FS,
        );

        let any = AnyDictionary::Base(Box::new(dict.clone()));
        let grun =
            gpu_compress(&any, input, &GpuOptions::default()).expect("base dictionary stages");
        assert_eq!(grun.output, zout, "device output must match serial");
        let gpu_comp =
            A100_LIKE.pipeline_time(&grun.report, grun.in_bytes, grun.out_bytes, &SCRATCH_FS);

        // ---------- decompression ----------
        let t0 = Instant::now();
        let mut back = Vec::with_capacity(input.len());
        let dstats = Decompressor::new(&dict)
            .decompress_buffer(&zout, &mut back)
            .unwrap();
        let cpu_deco_s = t0.elapsed().as_secs_f64();
        let cpu_deco = EPYC_CORE_LIKE.pipeline_time(
            cpu_deco_s,
            dstats.in_bytes as u64,
            dstats.out_bytes as u64,
            &SCRATCH_FS,
        );

        let drun = gpu_decompress(&any, &zout, &GpuOptions::default()).unwrap();
        assert_eq!(drun.output, back, "device decompression must match serial");
        let gpu_deco =
            A100_LIKE.pipeline_time(&drun.report, drun.in_bytes, drun.out_bytes, &SCRATCH_FS);

        comp_rows.push((lmax, cpu_comp, gpu_comp));
        deco_rows.push((lmax, cpu_deco, gpu_deco));
    }

    // Normalize to the serial time at the largest Lmax (the paper's axis).
    let comp_norm = comp_rows.last().unwrap().1.total_s();
    let deco_norm = deco_rows.last().unwrap().1.total_s();

    let widths = [6usize, 12, 12, 10];
    println!("(a) compression — normalized to serial @ Lmax=15");
    println!(
        "{}",
        row(
            &[
                "Lmax".into(),
                "C++ (norm)".into(),
                "CUDA (norm)".into(),
                "speedup".into()
            ],
            &widths
        )
    );
    for (lmax, cpu, gpu) in &comp_rows {
        let c = cpu.total_s() / comp_norm;
        let g = gpu.total_s() / comp_norm;
        println!(
            "{}",
            row(
                &[
                    lmax.to_string(),
                    format!("{c:.3}"),
                    format!("{g:.3}"),
                    format!("{:.1}x", c / g)
                ],
                &widths
            )
        );
        emit_datum("fig5a", &format!("cpu_lmax{lmax}"), c);
        emit_datum("fig5a", &format!("gpu_lmax{lmax}"), g);
    }

    println!("\n(b) decompression — normalized to serial @ Lmax=15");
    println!(
        "{}",
        row(
            &[
                "Lmax".into(),
                "C++ (norm)".into(),
                "CUDA (norm)".into(),
                "speedup".into()
            ],
            &widths
        )
    );
    for (lmax, cpu, gpu) in &deco_rows {
        let c = cpu.total_s() / deco_norm;
        let g = gpu.total_s() / deco_norm;
        println!(
            "{}",
            row(
                &[
                    lmax.to_string(),
                    format!("{c:.3}"),
                    format!("{g:.3}"),
                    format!("{:.1}x", c / g)
                ],
                &widths
            )
        );
        emit_datum("fig5b", &format!("cpu_lmax{lmax}"), c);
        emit_datum("fig5b", &format!("gpu_lmax{lmax}"), g);
    }

    // The memory-bound observation, quantified.
    let (_, cpu, gpu) = &comp_rows[1];
    println!(
        "\nI/O fraction at Lmax=8: serial {:.0}%, device {:.0}% — \"ZSMILES is \
         memory-bound\" (paper §V-C)",
        cpu.io_fraction() * 100.0,
        gpu.io_fraction() * 100.0
    );
    let comp_speedup = comp_rows[1].1.total_s() / comp_rows[1].2.total_s();
    let deco_speedup = deco_rows[1].1.total_s() / deco_rows[1].2.total_s();
    println!(
        "speedup @ Lmax=8: compression {comp_speedup:.1}x (paper: 7x), \
         decompression {deco_speedup:.1}x (paper: 2x)"
    );
}
