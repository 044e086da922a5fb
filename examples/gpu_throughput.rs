//! Run the ZSMILES kernels on the SIMT simulator and print the modeled
//! device timeline — where the time goes on an A100-class pipeline and why
//! the paper calls the workload memory-bound.
//!
//! ```text
//! cargo run --release --example gpu_throughput
//! ```

use molgen::Dataset;
use simt::{A100_LIKE, SCRATCH_FS};
use zsmiles_core::{AnyDictionary, DictBuilder};
use zsmiles_gpu::{compress, decompress, GpuOptions};

fn main() {
    let deck = Dataset::generate_mixed(3_000, 0x6F0);
    let dict = DictBuilder::default().train(deck.iter()).expect("train");

    println!(
        "deck: {} molecules, {} bytes\n",
        deck.len(),
        deck.total_bytes()
    );

    // ---- compression kernel ----------------------------------------------
    let dict = AnyDictionary::Base(Box::new(dict));
    let run = compress(&dict, deck.as_bytes(), &GpuOptions::default()).expect("compress");
    let kt = A100_LIKE.kernel_time(&run.report);
    let pt = A100_LIKE.pipeline_time(&run.report, run.in_bytes, run.out_bytes, &SCRATCH_FS);
    println!(
        "compression kernel ({} blocks of one warp each):",
        run.report.blocks
    );
    println!(
        "  instructions {:>12}   shuffles {:>10}   ld/st transactions {}/{}",
        run.report.total.instructions,
        run.report.total.shuffles,
        run.report.total.load_transactions,
        run.report.total.store_transactions
    );
    println!(
        "  modeled kernel: compute {:.3} ms vs memory {:.3} ms -> {}",
        kt.compute_s * 1e3,
        kt.memory_s * 1e3,
        if kt.is_memory_bound() {
            "memory-bound"
        } else {
            "compute-bound"
        }
    );
    print_pipeline("compression", &pt);

    // ---- decompression kernel ---------------------------------------------
    let drun = decompress(&dict, &run.output, &GpuOptions::default()).expect("decompress");
    let dkt = A100_LIKE.kernel_time(&drun.report);
    let dpt = A100_LIKE.pipeline_time(&drun.report, drun.in_bytes, drun.out_bytes, &SCRATCH_FS);
    println!("\ndecompression kernel:");
    println!(
        "  instructions {:>12}   shuffles {:>10} (prefix sums for write offsets)",
        drun.report.total.instructions, drun.report.total.shuffles
    );
    println!(
        "  modeled kernel: compute {:.3} ms vs memory {:.3} ms -> {}",
        dkt.compute_s * 1e3,
        dkt.memory_s * 1e3,
        if dkt.is_memory_bound() {
            "memory-bound"
        } else {
            "compute-bound"
        }
    );
    print_pipeline("decompression", &dpt);

    println!(
        "\nthe paper's conclusion, reproduced: end-to-end both pipelines spend \
         {:.0}% / {:.0}% of their time on I/O — \"additional C++ or CUDA \
         optimizations have a reduced impact on performance\" (§V-C)",
        pt.io_fraction() * 100.0,
        dpt.io_fraction() * 100.0
    );
}

fn print_pipeline(name: &str, pt: &simt::PipelineTime) {
    println!(
        "  {name} pipeline: read {:.2} ms | h2d {:.2} ms | kernel {:.3} ms | d2h {:.2} ms \
         | write {:.2} ms  (I/O fraction {:.0}%)",
        pt.read_s * 1e3,
        pt.h2d_s * 1e3,
        pt.kernel_s * 1e3,
        pt.d2h_s * 1e3,
        pt.write_s * 1e3,
        pt.io_fraction() * 100.0
    );
}
