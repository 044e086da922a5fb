//! ZSMILES GPU kernels (paper §IV-E) on the `simt` simulator.
//!
//! One warp-sized block per SMILES, exactly as the paper configures its
//! CUDA grid. The kernels are warp-synchronous translations of the
//! described algorithm — per-lane dictionary matching, a backward
//! shortest-path scan, and a prefix-sum-coordinated scatter for
//! decompression — and they produce **byte-identical** output to the
//! serial CPU engine (pinned by tests), so every correctness property of
//! `zsmiles-core` transfers.
//!
//! Timing comes from the simulator's cost model: run a deck through
//! [`pipeline::compress`], hand the [`simt::CostReport`] to
//! [`simt::DeviceProfile::pipeline_time`], and compare against the
//! measured serial engine — that is how the Fig. 5 harness regenerates the
//! paper's ≈7×/≈2× speedup shape.

pub mod device_dict;
pub mod kernels;
pub mod pipeline;

pub use device_dict::DeviceDict;
pub use kernels::{compress_block, decompress_block, MAX_LINE};
pub use pipeline::{compress, decompress, GpuOptions, GpuRun};
