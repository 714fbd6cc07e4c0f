use std::fmt;

/// Errors produced by SQL parsing, planning, and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Lexical or syntactic error in the SQL text.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset into the SQL text.
        position: usize,
    },
    /// A referenced table or view does not exist.
    UnknownTable(String),
    /// A table or view with this name already exists.
    DuplicateTable(String),
    /// A referenced column does not exist (or is ambiguous).
    UnknownColumn(String),
    /// A referenced function does not exist.
    UnknownFunction(String),
    /// The statement is valid SQL but not supported or not
    /// semantically valid here (e.g. aggregates nested in aggregates).
    Unsupported(String),
    /// Type error during expression evaluation.
    Type(String),
    /// Underlying storage error.
    Storage(nlq_storage::StorageError),
    /// UDF execution error.
    Udf(nlq_udf::UdfError),
    /// Model construction error (from the high-level helpers).
    Model(nlq_models::ModelError),
    /// Γ summary store error (rendered message).
    Summary(String),
    /// A cross join would materialize too many rows.
    JoinTooLarge {
        /// Rows the join product would contain.
        rows: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The statement was cooperatively cancelled mid-execution (the
    /// [`crate::ExecOptions`] cancel token flipped). Partial state is
    /// discarded; `rows_scanned` counts base-table rows read before
    /// the workers noticed the flip (best effort).
    Cancelled {
        /// Rows scanned before the cancellation took effect.
        rows_scanned: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { message, position } => {
                write!(f, "SQL parse error at byte {position}: {message}")
            }
            EngineError::UnknownTable(name) => write!(f, "unknown table or view: {name}"),
            EngineError::DuplicateTable(name) => {
                write!(f, "table or view already exists: {name}")
            }
            EngineError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            EngineError::UnknownFunction(name) => write!(f, "unknown function: {name}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            EngineError::Type(msg) => write!(f, "type error: {msg}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Udf(e) => write!(f, "UDF error: {e}"),
            EngineError::Model(e) => write!(f, "model error: {e}"),
            EngineError::Summary(msg) => write!(f, "summary error: {msg}"),
            EngineError::JoinTooLarge { rows, limit } => {
                write!(f, "cross join materializes {rows} rows, limit is {limit}")
            }
            EngineError::Cancelled { rows_scanned } => {
                write!(f, "query cancelled after {rows_scanned} rows")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<nlq_storage::StorageError> for EngineError {
    fn from(e: nlq_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<nlq_udf::UdfError> for EngineError {
    fn from(e: nlq_udf::UdfError) -> Self {
        EngineError::Udf(e)
    }
}

impl From<nlq_models::ModelError> for EngineError {
    fn from(e: nlq_models::ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<nlq_summary::SummaryError> for EngineError {
    fn from(e: nlq_summary::SummaryError) -> Self {
        match e {
            // A cancelled summary build is the statement's own
            // cancellation, not a summary failure.
            nlq_summary::SummaryError::Cancelled { rows_scanned } => {
                EngineError::Cancelled { rows_scanned }
            }
            other => EngineError::Summary(other.to_string()),
        }
    }
}
