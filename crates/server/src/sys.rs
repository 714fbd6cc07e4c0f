//! The virtual system catalog: `sys.*` tables served from live server
//! state.
//!
//! [`SysCatalog`] implements the engine's
//! [`SystemTableProvider`] hook. When a statement references a
//! `sys.`-prefixed table, the engine's resolver asks the provider for
//! it and the provider materializes a fresh snapshot of the relevant
//! server state — trace rings, live sessions, WAL stats, the refresh daemon's publish ledger — as an ordinary
//! columnar [`Table`]. From there the statement runs through the
//! normal execution path: block scans, selection bitmaps, Γ
//! aggregates, and the scoring UDFs all work over telemetry exactly
//! as they do over data.
//!
//! ## Snapshot consistency
//!
//! Each referenced `sys.*` table is snapshotted once, at resolve time,
//! from its source's own synchronization (ring slot mutexes, the live
//! list mutex, atomic counters). Two tables in one statement are two
//! independent snapshots — a query completing between them can appear
//! in `sys.queries` but not yet in `sys.spans`. Rows are immutable
//! once snapshotted; a statement never sees a trace record mutate
//! mid-scan.
//!
//! ## Typing
//!
//! String columns (`outcome`, `phase`, `sql`, …) are row-path only —
//! the block predicate compiler is numeric. Every enum-like string
//! column therefore has a numeric companion (`ok` for
//! `outcome = 'ok'`) so selective telemetry
//! queries still ride the block path; durations are `Float`
//! microseconds for the same reason.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use nlq_engine::SystemTableProvider;
use nlq_obs::{Phase, Span, TraceRecord};
use nlq_storage::{Column, DataType, Schema, Table, Value};

use crate::metrics::Sample;
use crate::server::Shared;

/// The `sys.*` provider registered by [`crate::serve`]; holds the
/// server state weakly (the engine outliving the server must not keep
/// it alive).
pub(crate) struct SysCatalog {
    shared: Weak<Shared>,
}

impl SysCatalog {
    pub(crate) fn new(shared: Weak<Shared>) -> SysCatalog {
        SysCatalog { shared }
    }
}

/// Every table the catalog serves, as dotted lowercase names.
const TABLES: [&str; 6] = [
    "sys.queries",
    "sys.spans",
    "sys.sessions",
    "sys.summaries",
    "sys.wal",
    "sys.metrics",
];

impl SystemTableProvider for SysCatalog {
    fn table_names(&self) -> Vec<&'static str> {
        TABLES.to_vec()
    }

    fn sys_table(&self, name: &str) -> Option<Table> {
        let shared = self.shared.upgrade()?;
        match name {
            "sys.queries" => Some(queries(&shared)),
            "sys.spans" => Some(spans(&shared)),
            "sys.sessions" => Some(sessions(&shared)),
            "sys.summaries" => Some(summaries(&shared)),
            "sys.wal" => Some(wal(&shared)),
            "sys.metrics" => Some(metrics(&shared)),
            _ => None,
        }
    }
}

/// Builds a single-partition table from a column spec and rows.
/// System snapshots are small (ring-bounded), so one partition keeps
/// the scan layout trivial.
fn build(cols: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect());
    let mut table = Table::new(schema, 1);
    table
        .insert_rows(rows)
        .expect("system snapshot rows match their schema");
    table
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

fn micros(nanos: u64) -> Value {
    Value::Float(nanos as f64 / 1_000.0)
}

/// Sum of span durations for one phase, as a µs float.
fn phase_micros(record: &TraceRecord, phase: Phase) -> Value {
    micros(
        record
            .spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.dur_nanos)
            .sum(),
    )
}

/// `sys.queries`: one row per retained trace record — the union of the
/// recent and slow rings (each ring's capacity is its retention bound).
fn queries(shared: &Arc<Shared>) -> Table {
    let cols = [
        ("query_id", DataType::Int),
        ("trace_id", DataType::Int),
        ("session", DataType::Int),
        ("seq", DataType::Int),
        ("peer", DataType::Str),
        ("sql", DataType::Str),
        ("outcome", DataType::Str),
        ("ok", DataType::Int),
        ("slow", DataType::Int),
        ("rows", DataType::Int),
        ("bytes", DataType::Int),
        ("wal_bytes", DataType::Int),
        ("fsyncs", DataType::Int),
        ("cpu_us", DataType::Float),
        ("total_us", DataType::Float),
        ("parse_us", DataType::Float),
        ("plan_us", DataType::Float),
        ("summary_us", DataType::Float),
        ("scan_us", DataType::Float),
        ("finalize_us", DataType::Float),
        ("encode_us", DataType::Float),
        ("stream_us", DataType::Float),
        ("wal_us", DataType::Float),
        ("detail", DataType::Str),
    ];
    let rows = shared
        .retained_traces()
        .into_iter()
        .map(|r| {
            vec![
                int(r.query_id),
                int(r.id),
                int(r.session),
                int(r.seq),
                Value::Str(r.peer.clone()),
                Value::Str(r.sql.clone()),
                Value::Str(r.outcome.name().to_owned()),
                Value::Int(i64::from(r.outcome == nlq_obs::Outcome::Ok)),
                Value::Int(i64::from(r.slow)),
                int(r.rows()),
                int(r.bytes()),
                int(r.wal_bytes),
                int(r.fsyncs),
                micros(r.cpu_nanos),
                micros(r.total_nanos),
                phase_micros(&r, Phase::Parse),
                phase_micros(&r, Phase::Plan),
                phase_micros(&r, Phase::SummaryLookup),
                phase_micros(&r, Phase::Scan),
                phase_micros(&r, Phase::Finalize),
                phase_micros(&r, Phase::Encode),
                phase_micros(&r, Phase::Stream),
                phase_micros(&r, Phase::Wal),
                Value::Str(r.detail),
            ]
        })
        .collect();
    build(&cols, rows)
}

/// `sys.spans`: the flattened span tree of every retained trace,
/// keyed by `query_id`.
fn spans(shared: &Arc<Shared>) -> Table {
    let cols = [
        ("query_id", DataType::Int),
        ("trace_id", DataType::Int),
        ("span", DataType::Int),
        ("phase", DataType::Str),
        ("start_us", DataType::Float),
        ("dur_us", DataType::Float),
        ("rows", DataType::Int),
        ("bytes", DataType::Int),
        ("blocks", DataType::Int),
    ];
    let mut rows = Vec::new();
    for r in shared.retained_traces() {
        for (i, s) in r.spans.iter().enumerate() {
            rows.push(span_row(&r, i, s));
        }
    }
    build(&cols, rows)
}

fn span_row(r: &TraceRecord, idx: usize, s: &Span) -> Vec<Value> {
    vec![
        int(r.query_id),
        int(r.id),
        int(idx as u64),
        Value::Str(s.phase.name().to_owned()),
        micros(s.start_nanos),
        micros(s.dur_nanos),
        int(s.rows),
        int(s.bytes),
        int(s.blocks),
    ]
}

/// `sys.sessions`: the currently connected sessions.
fn sessions(shared: &Arc<Shared>) -> Table {
    let cols = [
        ("session", DataType::Int),
        ("peer", DataType::Str),
        ("statements", DataType::Int),
        ("block_scan", DataType::Str),
    ];
    let rows = shared
        .live
        .lock()
        .expect("live list")
        .iter()
        .map(|s| {
            vec![
                int(s.id),
                Value::Str(s.peer.clone()),
                int(s.info.statements.load(Ordering::Relaxed)),
                Value::Str((*s.info.block_scan.lock().expect("session info")).to_owned()),
            ]
        })
        .collect();
    build(&cols, rows)
}

/// `sys.summaries`: every registered Γ summary's live fold counters
/// joined against the refresh daemon's publish ledger — `lag_rows` is
/// the per-summary refresh lag (`NULL` for summaries no binding
/// maintains, e.g. grouped ones, and when no daemon runs).
fn summaries(shared: &Arc<Shared>) -> Table {
    let cols = [
        ("summary", DataType::Str),
        ("tbl", DataType::Str),
        ("d", DataType::Int),
        ("grouped", DataType::Int),
        ("version", DataType::Int),
        ("rows_folded", DataType::Int),
        ("published_rows", DataType::Int),
        ("lag_rows", DataType::Int),
        ("last_refit_us", DataType::Float),
        ("refit_query_id", DataType::Int),
    ];
    let published: HashMap<String, nlq_feature::PublishState> = shared
        .daemon
        .lock()
        .expect("daemon")
        .as_ref()
        .map(|d| d.progress().snapshot().into_iter().collect())
        .unwrap_or_default();
    let rows = shared
        .db
        .summary_refresh_states()
        .into_iter()
        .map(|st| {
            let publish = published.get(&st.name.to_ascii_lowercase());
            let (published_rows, lag, refit_us, refit_id) = match publish {
                Some(p) => (
                    int(p.rows_folded),
                    int(st.rows_folded.saturating_sub(p.rows_folded)),
                    micros(p.last_refit_nanos),
                    int(p.refit_query_id),
                ),
                None => (Value::Null, Value::Null, Value::Null, Value::Null),
            };
            vec![
                Value::Str(st.name),
                Value::Str(st.table),
                int(st.d as u64),
                Value::Int(i64::from(st.grouped)),
                int(st.version),
                int(st.rows_folded),
                published_rows,
                lag,
                refit_us,
                refit_id,
            ]
        })
        .collect();
    build(&cols, rows)
}

/// Renders registry samples as `(metric, labels, value)` rows.
fn sample_table(samples: Vec<Sample>) -> Table {
    let cols = [
        ("metric", DataType::Str),
        ("labels", DataType::Str),
        ("value", DataType::Float),
    ];
    let rows = samples
        .iter()
        .map(|s| {
            vec![
                Value::Str(s.name()),
                Value::Str(s.label_text()),
                Value::Float(s.value),
            ]
        })
        .collect();
    build(&cols, rows)
}

/// `sys.wal`: the durability slice of the registry — empty for a
/// volatile engine.
fn wal(shared: &Arc<Shared>) -> Table {
    sample_table(crate::metrics::durability_samples(
        &shared.db.engine_stats(),
    ))
}

/// `sys.metrics`: every sample in the registry — what the Prometheus
/// scrape exposes, queryable.
fn metrics(shared: &Arc<Shared>) -> Table {
    sample_table(crate::metrics::samples(shared))
}
