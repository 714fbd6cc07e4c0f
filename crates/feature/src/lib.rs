#![warn(missing_docs)]

//! The feature-store serving loop on top of the engine's Γ machinery.
//!
//! Two halves, both written against
//! [`SqlEngine`](nlq_engine::SqlEngine):
//!
//! * [`IngestStream`] — the server-side state machine behind the wire
//!   protocol's chunked INSERT grammar (`InsertHeader`, `InsertChunk`*,
//!   `InsertDone`). Chunks are sequence-checked and buffered; nothing
//!   touches the table until `InsertDone`, when the whole stream
//!   commits as **one atomic batch** through the seal-on-write segment
//!   path. A dropped or aborted stream leaves no partial rows behind —
//!   the commit either happens entirely or not at all.
//! * [`RefreshLoop`] / [`RefreshDaemon`] — continuous model refresh
//!   driven by summary-invalidation signals. The loop polls
//!   [`summary_refresh_states`](nlq_engine::SqlEngine::summary_refresh_states)
//!   and, when a watched summary's version counter moved far enough,
//!   re-derives the bound model from the maintained Γ (closed-form
//!   regression via [`GammaModelSet`](nlq_models::GammaModelSet), or a
//!   warm-started K-means from the previous centroids) and publishes
//!   the result as a replicated model table — without ever blocking
//!   readers: scoring keeps hitting the old model table until the
//!   publish swaps it.

mod ingest;
mod refresh;

pub use ingest::{IngestState, IngestStream};
pub use refresh::{
    Binding, BindingKind, PublishState, RefreshConfig, RefreshDaemon, RefreshLoop, RefreshProgress,
    TickGate, DAEMON_QUERY_ID_BIT,
};

use std::fmt;

use nlq_engine::EngineError;
use nlq_models::ModelError;

/// Errors from the serving loop.
#[derive(Debug)]
pub enum FeatureError {
    /// The client violated the ingest grammar (bad sequence number,
    /// arity mismatch, chunk after done, unknown column, ...). The
    /// stream is dead; nothing was committed.
    Protocol(String),
    /// The underlying engine rejected an operation.
    Engine(EngineError),
    /// A model refit failed (e.g. too few rows for a closed form).
    Model(ModelError),
}

impl fmt::Display for FeatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureError::Protocol(msg) => write!(f, "ingest protocol error: {msg}"),
            FeatureError::Engine(e) => write!(f, "engine error: {e}"),
            FeatureError::Model(e) => write!(f, "model refresh error: {e}"),
        }
    }
}

impl std::error::Error for FeatureError {}

impl From<EngineError> for FeatureError {
    fn from(e: EngineError) -> Self {
        FeatureError::Engine(e)
    }
}

impl From<ModelError> for FeatureError {
    fn from(e: ModelError) -> Self {
        FeatureError::Model(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, FeatureError>;
