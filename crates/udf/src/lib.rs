#![warn(missing_docs)]

//! Teradata-style User-Defined Function framework and the paper's UDFs.
//!
//! §2.2 of the paper describes the UDF API this crate mirrors,
//! including its deliberately awkward constraints — all of which are
//! enforced here because they shape the paper's design decisions:
//!
//! * **Two function classes**: scalar UDFs (one value per input row,
//!   no state across rows — [`ScalarUdf`]) and aggregate UDFs (heap
//!   state per group, merged across parallel workers —
//!   [`AggregateUdf`]).
//! * **Simple parameter types only**: numbers and strings, never
//!   arrays. Vectors are passed either as `d` individual parameters
//!   ("list" style) or packed into one string ("string" style, which
//!   pays float↔text conversion per row).
//! * **One value returned**, of a simple type: the aggregate `nlq` UDF
//!   packs `n, L, Q` into a single long string ([`pack`]).
//! * **Bounded heap**: aggregate state must fit in one 64 KB segment
//!   ([`UDF_HEAP_LIMIT`]); dimensionality is bounded by [`MAX_D`]
//!   because the C struct's arrays are statically sized. Higher `d` is
//!   handled by block-partitioned calls (`NlqBlockUdf`, Table 6).
//! * **Parallel execution**: each worker accumulates a partial state
//!   over its horizontal partition; a master merges partials
//!   (the four run-time phases of §3.4: init → row aggregation →
//!   partial merge → return).
//!
//! The concrete UDFs are exactly the paper's:
//!
//! * aggregate [`NlqUdf`] (list and string parameter styles) and
//!   [`NlqBlockUdf`] for `d > MAX_D`;
//! * scalar [`LinearRegScoreUdf`], [`FaScoreUdf`], [`DistanceUdf`],
//!   [`ClusterScoreUdf`] for scoring (§3.5).

mod error;
mod framework;
mod nlq_udf;
pub mod pack;
mod registry;
mod scoring_udfs;

pub use error::UdfError;
pub use framework::{
    check_heap, for_each_row_args, AggregateState, AggregateUdf, BatchArg, FloatBatch,
    ScalarBatchArg, ScalarUdf, UDF_HEAP_LIMIT,
};
pub use nlq_udf::{nlq_of_columns, seeded_nlq_state, NlqBlockUdf, NlqUdf, ParamStyle, MAX_D};
pub use registry::UdfRegistry;
pub use scoring_udfs::{ClusterScoreUdf, DistanceUdf, FaScoreUdf, LinearRegScoreUdf};

/// Convenience result alias for UDF operations.
pub type Result<T> = std::result::Result<T, UdfError>;
