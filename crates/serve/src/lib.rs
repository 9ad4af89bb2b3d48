//! `wib-serve`: a std-only simulation service.
//!
//! Sweeping the WIB design space means re-running the same cycle-level
//! simulations over and over — and because the simulator is fully
//! deterministic, most of that work is redundant. This crate turns the
//! simulator into a long-running daemon: clients submit jobs over a
//! plain TCP socket as newline-delimited JSON, a bounded queue feeds a
//! persistent worker pool, and every result is stored in a
//! content-addressed cache so a repeated sweep point costs one hash
//! lookup instead of minutes of simulation.
//!
//! The moving parts, each in its own module:
//!
//! * [`queue`] — bounded MPMC job queue; a full queue sheds the
//!   submission with a `retry_after_ms` hint instead of blocking.
//! * [`cache`] — content-addressed result store keyed by the FNV-1a
//!   digest of (workload, canonical machine spec, protocol), persisted
//!   crash-safely (temp + fsync + atomic rename) under
//!   `WIB_RESULTS_DIR`.
//! * [`protocol`] — the NDJSON wire format: request parsing and event
//!   construction. See `docs/serve.md` for the grammar.
//! * `front` — the NDJSON front end both roles share: accept loop
//!   (reaping finished connection threads), per-connection reader and
//!   writer threads, the watcher registry, the shutdown latch, and the
//!   `ping`/`watch`/`shutdown` ops.
//! * [`server`] — the daemon: panic-isolated worker pool, deadlines and
//!   cancellation of running jobs, graceful drain-and-shutdown.
//! * [`client`] — submit/stats/watch/shutdown helpers plus a `--local`
//!   mode that computes byte-identical result files with no daemon,
//!   which is how the offline gate proves the service changes nothing.
//!   `client::metrics` scrapes the daemon's Prometheus-format
//!   exposition (see `docs/observability.md`).
//! * [`journal`] — write-ahead job journal: accepted jobs are fsync'd
//!   to an NDJSON log and replayed on restart, so a `kill -9` mid-sweep
//!   loses nothing the daemon acknowledged.
//! * [`fault`] — deterministic fault injection (`WIB_FAULTS`): seeded
//!   worker panics, torn cache writes, forced sheds, slow/truncated
//!   client writes, whole-node death, hung simulations, sick health
//!   probes, wedged persists — how the failure paths above stay tested.
//! * [`error`] — [`ServeError`], the typed failure vocabulary of the
//!   client-side helpers.
//! * [`ring`] — the consistent-hash ring that shards sweep jobs across
//!   backend nodes by their result-cache digest.
//! * [`coord`] — the sweep coordinator: speaks the same NDJSON protocol
//!   to clients, routes each job to its ring owner, re-routes on node
//!   death, and merges per-node metrics into one cluster exposition.
//!
//! Everything is `std` — no async runtime, no serde — matching the
//! repository's offline-build constraint.

pub mod cache;
pub mod client;
pub mod coord;
pub mod error;
pub mod fault;
mod front;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod ring;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use client::{JobOutcome, JobStatus, SubmitOptions};
pub use coord::{CoordHandle, CoordOptions};
pub use error::ServeError;
pub use fault::{FaultPlan, WriteFault};
pub use journal::{Journal, JournalEntry};
pub use protocol::JobRequest;
pub use queue::{BoundedQueue, TryPushError};
pub use ring::HashRing;
pub use server::{compute_result, ServerHandle, ServerOptions};
