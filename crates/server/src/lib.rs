#![warn(missing_docs)]

//! A concurrent network service over the SQL + scoring engine.
//!
//! The paper's workloads — building statistical models from the Γ
//! summary matrices and scoring data sets with UDFs — run inside the
//! DBMS; this crate puts the DBMS on the network. One shared
//! [`nlq_engine::Db`] behind an `Arc` serves every session: the full
//! SQL surface (queries, DML, `EXPLAIN`, `CREATE SUMMARY`, scoring
//! UDF calls) is reachable over a small length-prefixed binary
//! protocol ([`wire`]), with per-connection sessions, admission
//! control, and live metrics.
//!
//! * [`serve`] starts the server; [`ServerHandle`] owns it.
//! * [`wire`] defines the frame format shared with `nlq-client`.
//! * [`metrics`] tracks per-command counts, latency histograms, queue
//!   depth, and summary-store hit/miss counters.
//!
//! The `nlq-server` binary wraps this in a CLI.

pub mod metrics;
mod server;
mod sys;
pub mod wire;

pub use metrics::Metrics;
pub use server::{serve, ServerConfig, ServerHandle};
