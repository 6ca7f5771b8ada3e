//! Sampling-as-a-service for SymPhase: the `symphase serve` daemon and
//! the `symphase request` client, over `std::net` only.
//!
//! The SymPhase cost model (FangY24) front-loads all expensive work into
//! one symbolic initialization; after that, sampling is an embarrassingly
//! parallel F₂ product. This crate turns that asymmetry into a service
//! boundary:
//!
//! * [`hash`] — the canonical content hash ([`CircuitHash`], SHA-256 of
//!   the parsed circuit's `Display` form) that keys the cache and lets
//!   clients resend only a 32-byte hash after the first request;
//! * [`protocol`] — the `SPH1` length-prefixed binary wire protocol:
//!   sample requests (by text or hash, with engine/source/format/seed and
//!   a shot range), streamed data frames reusing the `formats` sinks
//!   byte-for-byte, typed error frames, and a stats frame;
//! * [`cache`] — the LRU circuit cache: parse + build (+ the optional
//!   lint gate) happen once per (circuit, engine); later requests
//!   reuse the initialized `Arc<dyn Sampler>`;
//! * [`queue`] — the bounded request queue whose overflow becomes a
//!   `BUSY` frame (backpressure is explicit, not silent latency);
//! * [`server`] / [`client`] — the daemon (accept loop + worker pool)
//!   and the one-shot client calls.
//!
//! # Determinism contract
//!
//! A request names a shot range `[start, end)` of a logical `end`-shot
//! run. `start` must be a multiple of the server's chunk width; every
//! chunk is then seeded by its **global** schedule index
//! (`chunk_seed(seed, global_chunk)`), so the streamed bytes are
//! identical to the same window of a local `symphase sample -n end`
//! run — whoever computes them, at whatever thread count, across however
//! many concurrent connections. Disjoint chunk-aligned ranges
//! concatenate exactly: `[0,N)` + `[N,2N)` == `[0,2N)`. See
//! `docs/serve.md` for the full spec.

pub mod cache;
pub mod client;
pub mod hash;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheError, CircuitCache};
pub use client::{request_sample, request_stats, ClientError, HeldConnection, SampleReply};
pub use hash::{circuit_hash, sha256, CircuitHash, Sha256};
pub use protocol::{CircuitRef, ErrorCode, Request, SampleRequest, StatsReply};
pub use queue::BoundedQueue;
pub use server::{LintGate, SamplerFactory, ServeOptions, Server, ServerHandle};
