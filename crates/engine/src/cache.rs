//! Prepared-plan cache keyed on SQL text.
//!
//! Parsing is the paper's Figure-1 overhead: long generated SELECT
//! statements pay a real lexing/parsing cost per execution. Serving
//! workloads repeat identical statement text (scoring loops, dashboard
//! refreshes), so the engine memoizes the parsed AST per SQL string.
//! A hit skips the parse entirely (`parse_nanos = 0`). Only read-only
//! statements (`SELECT`, `EXPLAIN`, `EXPLAIN ANALYZE`) are cached; any
//! DDL clears the whole cache, since cached plans may name dropped or
//! re-shaped objects.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::ast::Statement;
use crate::db::PlanCacheStats;
use crate::parser::parse;
use crate::Result;

/// Upper bound on cached statements; past it the cache is cleared
/// wholesale (workloads that never repeat text should not grow an
/// unbounded map).
const MAX_ENTRIES: usize = 1024;

/// SQL-text → parsed-[`Statement`] cache with hit/miss counters.
pub(crate) struct PlanCache {
    map: RwLock<HashMap<String, Arc<Statement>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Outcome of a cache probe, reported by `EXPLAIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// The statement text was already cached; the parse was skipped.
    Hit,
    /// The statement was parsed and (if read-only) cached.
    Miss,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached AST for `sql`, or parses (and caches
    /// read-only statements) on a miss.
    pub fn get_or_parse(&self, sql: &str) -> Result<(Arc<Statement>, CacheOutcome)> {
        if let Some(stmt) = self.map.read().expect("plan cache").get(sql) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(stmt), CacheOutcome::Hit));
        }
        let stmt = Arc::new(parse(sql)?);
        if matches!(
            *stmt,
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_)
        ) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut map = self.map.write().expect("plan cache");
            if map.len() >= MAX_ENTRIES {
                map.clear();
            }
            map.insert(sql.to_owned(), Arc::clone(&stmt));
        }
        Ok((stmt, CacheOutcome::Miss))
    }

    /// Drops every cached plan (DDL invalidation).
    pub fn invalidate(&self) {
        self.map.write().expect("plan cache").clear();
    }

    /// Counter snapshot for `sys.metrics` / Prometheus.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("plan cache").len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_probe_hits() {
        let cache = PlanCache::new();
        let (_, first) = cache.get_or_parse("SELECT a FROM t").unwrap();
        let (_, second) = cache.get_or_parse("SELECT a FROM t").unwrap();
        assert_eq!(first, CacheOutcome::Miss);
        assert_eq!(second, CacheOutcome::Hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn ddl_is_not_cached() {
        let cache = PlanCache::new();
        cache.get_or_parse("CREATE TABLE t (a INT)").unwrap();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn invalidate_clears() {
        let cache = PlanCache::new();
        cache.get_or_parse("SELECT a FROM t").unwrap();
        cache.invalidate();
        assert_eq!(cache.stats().entries, 0);
        let (_, outcome) = cache.get_or_parse("SELECT a FROM t").unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
    }
}
