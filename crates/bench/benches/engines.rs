//! Criterion microbenchmarks for the encoding engines — the timing side
//! of the `ablation_engines` harness (the production kernel vs the
//! reference sweep, preprocessing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use molgen::Dataset;
use std::time::Duration;
use zsmiles_core::sp::{encode_line, SpScratch};
use zsmiles_core::{Compressor, Decompressor, DictBuilder};

fn fixtures() -> (zsmiles_core::Dictionary, Dataset) {
    let deck = Dataset::generate_mixed(2_000, 0xBEEF);
    let dict = DictBuilder::default().train(deck.iter()).expect("train");
    (dict, deck)
}

fn bench_shortest_path(c: &mut Criterion) {
    let (dict, deck) = fixtures();
    let mut group = c.benchmark_group("shortest_path");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    // The reference sweep over the node trie.
    group.bench_function(BenchmarkId::from_parameter("backward_dp"), |b| {
        let mut scratch = SpScratch::new();
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            let mut total = 0usize;
            for line in deck.iter() {
                out.clear();
                total += encode_line(dict.trie(), line, &mut scratch, &mut out);
            }
            total
        })
    });
    // The production kernel: the reverse automaton, same lines, no
    // preprocessing.
    group.bench_function(BenchmarkId::from_parameter("reverse_automaton"), |b| {
        let mut compressor = Compressor::new(&dict).with_preprocess(false);
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            let mut total = 0usize;
            for line in deck.iter() {
                out.clear();
                total += compressor.compress_line(line, &mut out).0;
            }
            total
        })
    });
    group.finish();
}

fn bench_preprocess(c: &mut Criterion) {
    let deck = Dataset::generate_mixed(2_000, 0xBEEF);
    let mut group = c.benchmark_group("preprocess");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    // The paper's pre-processing (innermost, IDs from 0) and the
    // `--postprocess` restyling (outermost, IDs from 1): one timing per
    // strategy.
    for (name, strategy, first_id) in [
        ("ring_renumber", smiles::RingRenumber::Innermost, 0),
        ("postprocess", smiles::RingRenumber::Outermost, 1),
    ] {
        group.bench_function(name, |b| {
            let mut pp = smiles::Preprocessor::new();
            let mut out = Vec::with_capacity(128);
            b.iter(|| {
                let mut n = 0usize;
                for line in deck.iter() {
                    out.clear();
                    if pp.process_into(line, strategy, first_id, &mut out).is_ok() {
                        n += out.len();
                    }
                }
                n
            })
        });
    }
    group.finish();
}

fn bench_compress_decompress(c: &mut Criterion) {
    let (dict, deck) = fixtures();
    let input = deck.as_bytes().to_vec();
    let mut z = Vec::new();
    Compressor::new(&dict).compress_buffer(&input, &mut z);

    let mut group = c.benchmark_group("codec");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.throughput(Throughput::Bytes(deck.payload_bytes() as u64));
    group.bench_function("compress", |b| {
        let mut compressor = Compressor::new(&dict);
        let mut out = Vec::with_capacity(input.len());
        b.iter(|| {
            out.clear();
            compressor.compress_buffer(&input, &mut out);
            out.len()
        })
    });
    group.bench_function("decompress", |b| {
        let mut dc = Decompressor::new(&dict);
        let mut out = Vec::with_capacity(input.len());
        b.iter(|| {
            out.clear();
            dc.decompress_buffer(&z, &mut out).unwrap();
            out.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shortest_path,
    bench_preprocess,
    bench_compress_decompress
);
criterion_main!(benches);
