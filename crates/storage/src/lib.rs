#![warn(missing_docs)]

//! Columnar, horizontally partitioned table storage.
//!
//! This crate is the substrate standing in for the Teradata storage
//! layer the paper runs on: a shared-nothing parallel DBMS where the
//! data set `X` is "horizontally partitioned evenly among threads,
//! where each thread was responsible for processing 1/20th of X" (§4).
//!
//! Tables are split across `p` partitions that are scanned in parallel
//! — by the calling thread and the helpers of one process-wide scan
//! pool ([`run_indexed`]) — and merged by a master: the exact
//! execution model the aggregate-UDF protocol is written against.
//! Each partition stores its rows in one layout, **column-major
//! chunks** (per-column value vectors plus LSB-ordered validity
//! bitmaps) that block scans borrow zero-decode slices from: a list of
//! immutable, `Arc`-shared sealed chunks of [`SEGMENT_ROWS`] rows each,
//! and one growing tail chunk that INSERT appends to a row at a time
//! and that moves into the list when it fills. DML keeps the paper's
//! row-at-a-time write path and reads get vectorized columns. A
//! primary-key index of shared layers plus an indexed tail resolves
//! point lookups. Cloning a [`Table`] shares every sealed chunk and
//! index layer, so a copy-on-write append costs
//! O(chunks + tail + appended rows), not O(table). Row pages survive
//! only as the checkpoint file format ([`Table::save`], [`DiskTable`]).

mod block;
mod bytesx;
mod disk;
mod page;
mod parallel;
mod pk;
mod row;
mod schema;
mod segment;
mod table;
mod value;
mod wal;

pub use block::{BlockIter, ColumnBlock, FloatColumn, BLOCK_ROWS};
pub use disk::{DiskPartitionIter, DiskTable};
pub use parallel::{parallel_scan, parallel_scan_indexed, parallel_scan_partitions, run_indexed};
pub use row::Row;
pub use schema::{Column, DataType, Schema};
pub use segment::{bitmap_count_ones, bitmap_get, bitmap_mask_tail, bitmap_words, SEGMENT_ROWS};
pub use table::{PartitionIter, Table, F64_EXACT_INT};
pub use value::Value;
pub use wal::{
    crc32, replay_wal, CheckpointManifest, FileIo, Wal, WalIo, WalRecord, WalReplay, WalStats,
    WalStatsSnapshot,
};

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Row arity does not match the table schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Values in the rejected row.
        got: usize,
    },
    /// A value's type does not match the schema column type.
    TypeMismatch {
        /// The offending column's name.
        column: String,
        /// The column's declared type.
        expected: DataType,
    },
    /// Row decoding hit a malformed page.
    Corrupt(&'static str),
    /// File I/O failed (disk-backed tables).
    Io(String),
    /// The operation needs a capability this table lacks (e.g. a PK
    /// index lookup on a table whose first column is not Int).
    Unsupported(String),
}

impl StorageError {
    /// Wraps an I/O error (the error text is preserved; `StorageError`
    /// stays `Clone + PartialEq` for test ergonomics).
    pub fn from_io(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values but schema has {expected} columns")
            }
            StorageError::TypeMismatch { column, expected } => {
                write!(f, "value for column {column} is not of type {expected:?}")
            }
            StorageError::Corrupt(what) => write!(f, "corrupt page data: {what}"),
            StorageError::Io(msg) => write!(f, "I/O error: {msg}"),
            StorageError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
