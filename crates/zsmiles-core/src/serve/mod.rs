//! `zsmiles-serve`: a concurrent query service over compressed decks.
//!
//! Virtual screening at campaign scale is a *query-serving* problem, not
//! a storage problem: many workers want random access into the same
//! compressed deck at once. This module is the long-lived process that
//! answers them — it holds a [`crate::shard::ShardedReader`] open over a
//! `.zsm` deck or a bare `.zsa` (a one-shard deck) and serves `get` / `get_range` / `get_many` /
//! `stats` / `top_hits` requests from many simultaneous clients over a
//! small length-prefixed binary protocol on TCP. No async runtime, no
//! new crates: a `poll(2)`-driven event loop plus a small fixed worker
//! pool by default ([`server::Executor::Pooled`]), or the original
//! thread-per-connection model ([`server::Executor::Threaded`]), sharing
//! the deck through `Arc` snapshots either way.
//!
//! # Layers
//!
//! * [`protocol`] — the wire format: `u32` little-endian length prefix,
//!   one opcode byte, a fixed-layout body. [`protocol::Request`] /
//!   [`protocol::Response`] encode and decode strictly — a malformed,
//!   truncated or oversized frame is a typed
//!   [`crate::ZsmilesError::Protocol`] error, never a panic or a hang.
//! * [`server`] — [`server::Server::start`] binds a listener and returns
//!   a [`server::ServeHandle`]; each request runs against a snapshot of
//!   the current generation.
//! * [`event`] — the pooled executor: nonblocking sockets driven
//!   through per-connection state machines by one `poll(2)` thread,
//!   with decoded requests executed on the worker pool and contiguous
//!   `GET` runs batched into single `get_many` calls.
//! * [`client`] — [`client::QueryClient`], the blocking client the CLI
//!   `query` subcommand and the bench harness drive.
//!
//! # Pipelining
//!
//! Connections are pipelined under the pooled executor: a client may
//! have many requests in flight on one connection, and responses come
//! back *strictly in submission order* — the server sequences every
//! decoded frame and flushes completions in order no matter how the
//! worker pool interleaved them. The server stops reading a connection
//! once [`server::ServeOptions::pipeline_depth`] requests are in flight
//! or its write buffer fills (backpressure, not an error).
//! [`client::QueryClient::pipeline`] is the windowed driver;
//! [`client::QueryClient::get_many_pipelined`] fetches a line set with
//! up to `depth` `get` frames on the wire at once.
//!
//! # Generation flips
//!
//! The server's deck is a *generation*: the `.zsm` manifest's optional
//! `generation` row (v2 manifests; v1 manifests and bare `.zsa` files
//! read as generation 0). A `flip`
//! request atomically replaces the served deck — the new deck opens
//! *before* the swap, the swap itself is one `RwLock` write, and every
//! request that already snapshotted the old generation drains on it
//! unharmed. When the last in-flight reference drops, the retired deck's
//! blocks are forgotten from its [`crate::cache::BlockCache`]
//! ([`crate::shard::ShardedReader::retire_cached_blocks`]) so a flipped-away
//! dataset stops competing for cache budget. A flip that declares a
//! generation not newer than the current one is rejected; a deck that
//! declares none (generation 0) is assigned `current + 1`.

pub mod client;
pub mod event;
pub mod protocol;
pub mod server;

pub use client::{ClientOptions, Pipeline, QueryClient};
pub use protocol::{
    ErrorCode, HealthStats, HitRow, Request, Response, ServeStats, MAX_REQUEST_FRAME,
};
pub use server::{Executor, Screener, ServeHandle, ServeOptions, Server};
