//! The system-catalog hook: a serving layer registers a
//! [`SystemTableProvider`] on its engine and every `sys.*` table
//! reference resolves through it instead of the user catalog.
//!
//! A provider snapshots live state (trace rings, sessions, plan-cache
//! counters, WAL stats, refresh progress) into an ordinary
//! [`nlq_storage::Table`] at resolution time, so the existing block
//! scan, predicate bitmaps, Γ aggregates, and scoring UDFs all work
//! unchanged over telemetry. Each statement sees one consistent
//! snapshot — taken once when its `FROM sys.x` resolves — and never
//! blocks the writers feeding the underlying state.

use nlq_storage::Table;

/// Prefix distinguishing system-catalog names from user tables.
pub const SYS_PREFIX: &str = "sys.";

/// A read-only virtual-table namespace served by the hosting layer.
///
/// Resolution happens per statement: [`sys_table`] returns a fresh
/// snapshot table (cheap — bounded by ring capacity / session count),
/// or `None` for an unknown name, which surfaces as the usual
/// unknown-table error.
///
/// [`sys_table`]: SystemTableProvider::sys_table
pub trait SystemTableProvider: Send + Sync {
    /// The full dotted names served (e.g. `sys.queries`), for
    /// diagnostics and docs.
    fn table_names(&self) -> Vec<&'static str>;

    /// Snapshots one system table by its full lowercase dotted name.
    fn sys_table(&self, name: &str) -> Option<Table>;
}
