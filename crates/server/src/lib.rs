//! # cassandra-server
//!
//! The batch evaluation service of the Cassandra reproduction: a
//! long-running, **pipelined** TCP server holding one [`EvalService`]
//! session around one thread-safe, fingerprint-keyed
//! [`cassandra_core::eval::AnalysisStore`], so the fingerprint-memoized
//! Algorithm-2 analyses are shared across every client and request — the
//! expensive half of an evaluation runs once per distinct program for the
//! server's whole lifetime — while tagged requests are multiplexed even
//! on a single connection (a long sweep never delays a `Ping`, and two
//! sweeps on one socket interleave their streams fairly).
//!
//! The environment is fully offline, so the transport is deliberately
//! boring: `std::net` sockets, per-connection reader/writer threads over
//! a shared worker pool (see [`server::default_worker_threads`]), and
//! newline-delimited JSON framed with the vendored `serde_json` shim. The
//! wire format is documented message-by-message in `docs/PROTOCOL.md`;
//! requests cover session introspection (`Ping`, `ListPolicies`,
//! `ListWorkloads`), workload ingestion (`Submit`), design-matrix
//! evaluation (`Sweep`), grid expansion over the policy-parameterised
//! knobs (`GridSweep`, built on [`cassandra_core::policies::GridSweep`]),
//! and per-request cancellation (`Cancel`, addressing the client-supplied
//! id of an in-flight request; see [`RequestEnvelope`]). Sweep responses
//! stream one `EvalRecord` per line as cells complete, interleaved with
//! `Progress` lines, and close with a summary carrying the session's
//! cache counters and the same plain-text report offline `Experiment`
//! runs render — or with `Cancelled`, after which no further records
//! follow. [`EvalService::with_cache_file`] journals completed analyses
//! incrementally, so even a crashed server restarts warm.
//!
//! ```
//! use cassandra_server::{serve, Client, EvalService, Request, Response};
//!
//! let handle = serve("127.0.0.1:0", EvalService::new(), 2)?;
//! let mut client = Client::connect(handle.addr())?;
//! let responses = client.request(&Request::Ping)?;
//! assert!(matches!(responses[0], Response::Pong { .. }));
//! client.request(&Request::Shutdown)?;
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::Client;
pub use protocol::{
    GridSpec, Request, RequestEnvelope, Response, ResponseEnvelope, SweepSummary, WorkloadSpec,
    PROTOCOL_VERSION,
};
pub use server::{default_worker_threads, serve, ServerHandle};
pub use service::EvalService;
