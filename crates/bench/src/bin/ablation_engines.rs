//! **Ablation** — encoding engine choices:
//!
//! * the production kernel (the reverse automaton's backward sweep) vs
//!   the reference sweep over the dense automaton — the paper's Dijkstra
//!   in its settle order (identical bytes, different constant factors);
//! * optimal shortest-path encoding vs greedy longest-match (what a
//!   simpler implementation would do, and what FSST does);
//! * order-preserving multi-threaded CPU scaling.

use bench::{emit_datum, reference_encode_buffer, row, Decks, ExpConfig};
use std::time::Instant;
use zsmiles_core::sp::encode_line;
use zsmiles_core::{AnyDictionary, CompressStats, Compressor, DictBuilder, ESCAPE};

/// One way to encode the deck into a buffer.
type EncodeBuffer<'a> = &'a dyn Fn(&mut Vec<u8>) -> CompressStats;

fn main() {
    let cfg = ExpConfig::from_args();
    let decks = Decks::generate(&cfg);
    let deck = &decks.mixed;
    let input = deck.as_bytes();
    let dict = DictBuilder::default().train(deck.iter()).expect("train");

    println!("Ablation: encoding engines (MIXED, {} lines)\n", deck.len());

    // ---- kernel vs reference sweep ----------------------------------------
    let widths = [14usize, 10, 14];
    println!(
        "{}",
        row(
            &["engine".into(), "ratio".into(), "throughput".into()],
            &widths
        )
    );
    let mut outputs = Vec::new();
    let kernel = |out: &mut Vec<u8>| Compressor::new(&dict).compress_buffer(input, out);
    let reference = |out: &mut Vec<u8>| {
        reference_encode_buffer(dict.preprocessed(), input, out, |line, s, out| {
            encode_line(dict.automaton(), line, s, out)
        })
    };
    let runs: [(&str, EncodeBuffer); 2] = [("backward-dp", &kernel), ("dense-ref-dp", &reference)];
    for (name, encode) in runs {
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(input.len() / 2);
        let stats = encode(&mut out);
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    format!("{:.3}", stats.ratio()),
                    format!("{:.1} MB/s", stats.in_bytes as f64 / dt / 1e6),
                ],
                &widths
            )
        );
        emit_datum("ablation_engine", name, stats.in_bytes as f64 / dt / 1e6);
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1], "engines must agree byte-for-byte");
    println!("byte-identical outputs: yes\n");

    // ---- optimal vs greedy ------------------------------------------------
    let mut greedy_out_bytes = 0usize;
    let mut in_bytes = 0usize;
    let mut pp = smiles::Preprocessor::new();
    let mut ppbuf = Vec::new();
    for line in deck.iter() {
        ppbuf.clear();
        if pp
            .process_into(line, smiles::RingRenumber::Innermost, 0, &mut ppbuf)
            .is_err()
        {
            ppbuf.clear();
            ppbuf.extend_from_slice(line);
        }
        in_bytes += line.len();
        greedy_out_bytes += greedy_encode_len(&dict, &ppbuf);
    }
    let greedy_ratio = greedy_out_bytes as f64 / in_bytes as f64;
    let mut opt_out = Vec::new();
    let opt_stats = Compressor::new(&dict).compress_buffer(input, &mut opt_out);
    println!(
        "greedy longest-match ratio {:.3} vs shortest-path optimal {:.3} \
         (optimality gain {:.1}%)",
        greedy_ratio,
        opt_stats.ratio(),
        (greedy_ratio / opt_stats.ratio() - 1.0) * 100.0
    );
    emit_datum("ablation_greedy", "greedy", greedy_ratio);
    emit_datum("ablation_greedy", "optimal", opt_stats.ratio());

    // ---- thread scaling ---------------------------------------------------
    println!("\norder-preserving parallel compression scaling");
    let widths = [8usize, 14, 10];
    println!(
        "{}",
        row(
            &["threads".into(), "throughput".into(), "speedup".into()],
            &widths
        )
    );
    let any = AnyDictionary::Base(Box::new(dict.clone()));
    let mut t1 = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let (out, _) = any.compress_parallel(input, threads);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(out, opt_out, "parallel output identical");
        if threads == 1 {
            t1 = dt;
        }
        println!(
            "{}",
            row(
                &[
                    threads.to_string(),
                    format!("{:.1} MB/s", input.len() as f64 / dt / 1e6),
                    format!("{:.2}x", t1 / dt),
                ],
                &widths
            )
        );
        emit_datum("ablation_threads", &threads.to_string(), t1 / dt);
    }
}

/// Greedy longest-match encoding cost (bytes), the non-optimal baseline.
fn greedy_encode_len(dict: &zsmiles_core::Dictionary, line: &[u8]) -> usize {
    let trie = dict.trie();
    let mut i = 0usize;
    let mut out = 0usize;
    while i < line.len() {
        match trie.longest_match_at(line, i) {
            Some((_, len)) => {
                out += 1;
                i += len;
            }
            None => {
                out += 2; // ESCAPE + literal
                let _ = ESCAPE;
                i += 1;
            }
        }
    }
    out
}
