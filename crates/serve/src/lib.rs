//! # selc-serve — a long-lived search service over the selc engines
//!
//! Everything below PR 6 answers one search per call and forgets: the
//! caches that make warm repeats `O(depth)` live exactly as long as
//! the caller keeps their handles. This crate gives the warmth a
//! *home*: a server whose per-tenant caches outlive any one request,
//! so the second time a tenant asks the same question, the answer
//! comes from subtree summaries instead of recomputation — while a
//! neighbouring tenant's epoch bump cannot touch it.
//!
//! The pieces, each its own module:
//!
//! * [`protocol`] — length-prefixed binary frames; requests name a
//!   tenant, a workload (compiled λC decide chains or alternating game
//!   trees), and a deadline; responses carry the winner `(loss,
//!   index)` bit-exactly plus the engine/cache telemetry deltas. A
//!   `Metrics` request scrapes the server's `selc-obs` registry
//!   snapshot over the same wire.
//! * [`tenants`] — the per-tenant registry: transposition tables *and*
//!   the candidates handles they are keyed under, with epoch-bump
//!   invalidation as a management request.
//! * [`workload`] — validation (resource caps before allocation) and
//!   execution through the same cancellable entry points library
//!   callers use, so served winners are bit-identical to direct ones.
//! * [`server`] — accept loop, `Busy` admission control, a fixed
//!   session-worker pool, and one disconnect watcher per server that
//!   peeks the sockets of running searches and fires a search's
//!   `CancelToken` when its caller vanishes. The server is also where
//!   metrics recording defaults on, so a fresh daemon is scrapeable
//!   without any environment setup.
//! * [`client`] — the blocking loopback client the tests and the
//!   `e17_serve` throughput bench drive.
//!
//! Deadline handling rests on the engine-layer cancellation contract
//! (`selc_engine::CancelToken`): a cancelled search stops claiming
//! work promptly and installs **no** cache summaries along abort
//! paths, so a timed-out request returns `Timeout` without poisoning
//! its tenant's tables — the very next request may reuse them.
//!
//! ```no_run
//! use selc_serve::{Client, ServeConfig, Server, Workload};
//!
//! let server = Server::spawn(ServeConfig::loopback(2, 8)).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.search(7, Workload::Chain { choices: 12 }, 250).unwrap();
//! println!("{reply:?}");
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod tenants;
pub mod workload;

pub use client::Client;
pub use protocol::{
    Request, Response, WireMetricValue, WireMetrics, WireStats, Workload, MAX_FRAME,
    MAX_METRIC_NAME, WIRE_STATS_FIELDS,
};
pub use server::{ServeConfig, Server, ServerHandle, DEFAULT_MAX_SESSIONS, DEFAULT_PORT};
pub use tenants::{Tenant, Tenants};
pub use workload::{check_decision_shape, validate, Ran, WarmthPolicy};
