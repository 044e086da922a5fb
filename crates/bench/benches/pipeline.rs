//! Criterion benchmarks for the Fig. 5 pipelines: serial vs
//! multi-threaded CPU vs the simulated device, compression and
//! decompression, across Lmax ∈ {5, 8, 15}.
//!
//! Wall-clock here measures the *simulator's* host cost for the GPU rows —
//! modeled device time comes from the `fig5` harness — but the CPU rows
//! are the real measured engines, and the Lmax trend matches Fig. 5's
//! flat profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use molgen::Dataset;
use std::time::Duration;
use zsmiles_core::{AnyDictionary, Compressor, DictBuilder};

fn bench_lmax_sweep(c: &mut Criterion) {
    let deck = Dataset::generate_mixed(2_000, 0xF16);
    let input = deck.as_bytes().to_vec();
    let mut group = c.benchmark_group("fig5_compress");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    for lmax in [5usize, 8, 15] {
        let dict = DictBuilder {
            lmax,
            ..Default::default()
        }
        .train(deck.iter())
        .expect("train");
        group.bench_function(BenchmarkId::new("serial", lmax), |b| {
            let mut compressor = Compressor::new(&dict);
            let mut out = Vec::with_capacity(input.len());
            b.iter(|| {
                out.clear();
                compressor.compress_buffer(&input, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_lmax_sweep_decompress(c: &mut Criterion) {
    let deck = Dataset::generate_mixed(2_000, 0xF16);
    let input = deck.as_bytes().to_vec();
    let mut group = c.benchmark_group("fig5_decompress");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    for lmax in [5usize, 8, 15] {
        let dict = DictBuilder {
            lmax,
            ..Default::default()
        }
        .train(deck.iter())
        .expect("train");
        let mut z = Vec::with_capacity(input.len());
        Compressor::new(&dict).compress_buffer(&input, &mut z);
        group.bench_function(BenchmarkId::new("serial", lmax), |b| {
            let mut dc = zsmiles_core::Decompressor::new(&dict);
            let mut out = Vec::with_capacity(input.len());
            b.iter(|| {
                out.clear();
                dc.decompress_buffer(&z, &mut out).unwrap();
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let deck = Dataset::generate_mixed(4_000, 0xF16);
    let input = deck.as_bytes().to_vec();
    let dict = AnyDictionary::Base(Box::new(
        DictBuilder::default().train(deck.iter()).expect("train"),
    ));
    let mut group = c.benchmark_group("parallel_compress");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::from_parameter(threads), |b| {
            b.iter(|| dict.compress_parallel(&input, threads).0.len())
        });
    }
    group.finish();
}

fn bench_gpu_sim(c: &mut Criterion) {
    // Small deck: the simulator executes every warp instruction on the
    // host, so this benchmark tracks simulator overhead, not device time.
    let deck = Dataset::generate_mixed(200, 0xF16);
    let input = deck.as_bytes().to_vec();
    let dict = AnyDictionary::Base(Box::new(
        DictBuilder::default().train(deck.iter()).expect("train"),
    ));
    let mut group = c.benchmark_group("gpu_simulator");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    group.sample_size(10);
    group.bench_function("compress_kernel", |b| {
        b.iter(|| {
            zsmiles_gpu::compress(&dict, &input, &zsmiles_gpu::GpuOptions::default())
                .expect("base dictionary stages")
                .out_bytes
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lmax_sweep,
    bench_lmax_sweep_decompress,
    bench_parallel_scaling,
    bench_gpu_sim
);
criterion_main!(benches);
