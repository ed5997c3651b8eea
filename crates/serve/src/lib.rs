//! `giallar-serve` — the resident Giallar verification service.
//!
//! A CLI `giallar verify` rebuilds the world on every invocation: registry
//! obligations, solver state, cache file.  This crate keeps all of it
//! resident behind a socket so repeated verification requests pay only the
//! marginal cost of what actually changed:
//!
//! * [`engine`] — the resident [`engine::Engine`]: the registry as
//!   [`giallar_core::verifier::PreparedPass`]es and one
//!   [`giallar_core::cache::VerdictCache`] — the store `giallar verify
//!   --cache` uses — serving concurrent requests with snapshot semantics
//!   and LRU/TTL eviction.  A dispatch batch is one
//!   [`giallar_core::verifier::run_cached`], the same cached run
//!   `giallar verify --cache` makes; the engine only applies its result.
//! * [`protocol`] — the line-delimited JSON `giallar-serve/v2` wire
//!   protocol (see `docs/ARCHITECTURE.md` for the full schema).
//! * [`net`] — endpoint specs and a unified stream over TCP and Unix
//!   sockets.
//! * [`server`] — the daemon: accept loop, per-connection threads, and the
//!   dispatcher that batches concurrent requests.
//! * [`client`] — a blocking client used by `giallar client`, the tests,
//!   and the serve-latency bench.
//!
//! The load-bearing invariant, inherited from the verdict-determinism
//! contract of `giallar_core::backend`: a served verify response renders
//! **bit-identically** to `giallar verify` at the same cache state, because
//! both come out of the same cached run — serving only changes *where* the
//! discharge work runs and which store the result applies to, never *what*
//! it computes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod net;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use engine::{Engine, EngineConfig, VerifyOutcome, VerifyRequest};
pub use net::Endpoint;
pub use protocol::{Op, Request, Response, DEFAULT_ADDR, SCHEMA};
pub use server::Server;
