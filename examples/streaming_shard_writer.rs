//! Out-of-core writing: stream a deck through the `ArchiveWriter` in
//! bounded memory, then shard the same deck into a `.zsm` manifest and
//! read both back through the one deck reader, `ShardedReader` (a bare
//! `.zsa` opens as a one-shard deck).
//!
//! ```console
//! cargo run --release --example streaming_shard_writer
//! ```

use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{
    ArchiveWriter, CountingSink, DictBuilder, FileSink, ShardPolicy, ShardedReader, ShardedWriter,
    WriterOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 60k-ligand deck that will be streamed, never held by the writer.
    let deck = molgen::Dataset::generate_mixed(60_000, 0x5EED);
    let dict = AnyDictionary::Base(Box::new(
        DictBuilder {
            preprocess: false,
            ..Default::default()
        }
        .train(deck.iter())?,
    ));
    let dir = std::env::temp_dir().join("zsmiles_example_shard_writer");
    std::fs::create_dir_all(&dir)?;

    // Single-file pack through a metering sink with a 256 KiB batch
    // budget: the container is megabytes, the writer's buffering is not.
    let opts = WriterOptions {
        threads: 4,
        batch_bytes: 256 << 10,
    };
    let sink = CountingSink::new(FileSink::create(&dir.join("deck.zsa"))?);
    let mut writer = ArchiveWriter::with_options(sink, dict.clone(), opts)?;
    for chunk in deck.as_bytes().chunks(100_000) {
        writer.write(chunk)?;
    }
    let (sink, info) = writer.finish()?;
    println!(
        "single file: {} lines, {} payload bytes in {} appends — peak writer buffer {} bytes",
        info.lines,
        info.payload_bytes,
        sink.appends(),
        info.peak_buffered_bytes,
    );

    // The same deck as a manifest plus 10k-line shards.
    let mut sharder = ShardedWriter::create(
        &dir.join("deck.zsm"),
        dict,
        ShardPolicy::by_lines(10_000),
        opts,
    )?;
    for chunk in deck.as_bytes().chunks(100_000) {
        sharder.write(chunk)?;
    }
    let pack = sharder.finish()?;
    println!(
        "sharded: {} lines across {} shards (ratio {:.3})",
        pack.lines,
        pack.shards.len(),
        pack.stats.ratio(),
    );

    // One reader for either layout, told apart by file magic.
    for name in ["deck.zsa", "deck.zsm"] {
        let reader = ShardedReader::open(&dir.join(name))?;
        let line = reader.get(31_415)?;
        println!(
            "{name}: {} shard(s), get(31415) = {}",
            reader.shard_count(),
            String::from_utf8_lossy(&line),
        );
        assert_eq!(line, deck.line(31_415));
        // A hit list straddling shard boundaries.
        let hits = reader.get_many(&[9_999, 10_000, 59_999, 0])?;
        assert_eq!(hits.len(), 4);
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
