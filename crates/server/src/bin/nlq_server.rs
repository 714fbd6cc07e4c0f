//! `nlq-server`: serve the SQL + scoring engine over TCP.
//!
//! ```text
//! nlq-server [--addr HOST:PORT] [--workers N] [--shards N] [--max-connections N]
//!            [--queue N] [--timeout-ms N] [--max-result-rows N]
//!            [--max-result-bytes N] [--chunk-bytes N]
//!            [--drain-grace-ms N] [--slow-query-ms N] [--trace-ring N]
//!            [--refresh-ms N] [--refresh-delta N]
//!            [--wal-dir DIR] [--no-fsync] [--checkpoint-bytes N]
//!            [--staleness-bound N]
//! ```
//!
//! `--refresh-ms` sets the model-refresh daemon's cadence (0 disables
//! the daemon); `--refresh-delta` sets the minimum folded-row delta
//! before an ingest-driven summary change triggers a model refit.
//!
//! `--wal-dir DIR` opens the engine durably: every DDL/DML statement
//! and ingest envelope is logged to a write-ahead log under `DIR`
//! before it is applied, and an ack means the data survives `kill
//! -9`. Restarting with the same `DIR` replays the log (recovery
//! counters show up in `sys.wal`). `--no-fsync` keeps the log but
//! skips the per-commit fsync (group commit still batches writes) —
//! faster, durable against process crash but not against power loss.
//! `--checkpoint-bytes N` checkpoints (snapshot + log truncation)
//! automatically once the live log reaches `N` bytes.
//! `--staleness-bound N` enables ingest back-pressure: when the
//! refresh daemon falls more than `N` folded rows behind, `InsertDone`
//! answers a `Retry` error instead of committing.
//!
//! The process runs until a client issues `SHUTDOWN` (or the process
//! is killed). The bound address is printed on stdout as
//! `listening on HOST:PORT` once the listener is ready, so scripts
//! can bind port 0 and discover the port.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use nlq_engine::{Db, SqlEngine};
use nlq_server::{serve, ServerConfig};
use nlq_shard::ShardedDb;

/// Durability knobs that shape how the engine is opened.
struct WalOpts {
    dir: Option<std::path::PathBuf>,
    fsync: bool,
}

fn parse_args() -> Result<(ServerConfig, usize, WalOpts), String> {
    let mut config = ServerConfig::default();
    let mut shards = 1usize;
    let mut wal = WalOpts {
        dir: None,
        fsync: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value ({what})"))
        };
        match flag.as_str() {
            "--addr" => config.addr = take("host:port")?,
            "--workers" => {
                config.workers = take("count")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--shards" => shards = take("count")?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--max-connections" => {
                config.max_connections =
                    take("count")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--queue" => {
                config.queue_capacity =
                    take("count")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--timeout-ms" => {
                config.query_timeout = Duration::from_millis(
                    take("millis")?
                        .parse()
                        .map_err(|e| format!("{flag}: {e}"))?,
                )
            }
            "--max-result-rows" => {
                config.max_result_rows =
                    take("count")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--max-result-bytes" => {
                config.max_result_bytes =
                    take("bytes")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--chunk-bytes" => {
                config.chunk_bytes = take("bytes")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--drain-grace-ms" => {
                config.drain_grace = Duration::from_millis(
                    take("millis")?
                        .parse()
                        .map_err(|e| format!("{flag}: {e}"))?,
                )
            }
            "--slow-query-ms" => {
                config.slow_query = Duration::from_millis(
                    take("millis")?
                        .parse()
                        .map_err(|e| format!("{flag}: {e}"))?,
                )
            }
            "--trace-ring" => {
                config.trace_ring = take("count")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--refresh-ms" => {
                let millis: u64 = take("millis")?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                config.refresh_cadence = (millis > 0).then(|| Duration::from_millis(millis));
            }
            "--refresh-delta" => {
                config.refresh_delta_rows =
                    take("rows")?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--wal-dir" => wal.dir = Some(take("dir")?.into()),
            "--no-fsync" => wal.fsync = false,
            "--checkpoint-bytes" => {
                config.checkpoint_bytes =
                    Some(take("bytes")?.parse().map_err(|e| format!("{flag}: {e}"))?)
            }
            "--staleness-bound" => {
                config.staleness_bound =
                    Some(take("rows")?.parse().map_err(|e| format!("{flag}: {e}"))?)
            }
            "--help" | "-h" => {
                return Err(
                    "usage: nlq-server [--addr HOST:PORT] [--workers N] [--shards N] \
                     [--max-connections N] [--queue N] [--timeout-ms N] [--max-result-rows N] \
                     [--max-result-bytes N] [--chunk-bytes N] [--drain-grace-ms N] \
                     [--slow-query-ms N] [--trace-ring N] [--refresh-ms N] [--refresh-delta N] \
                     [--wal-dir DIR] [--no-fsync] [--checkpoint-bytes N] [--staleness-bound N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((config, shards, wal))
}

fn main() -> ExitCode {
    let (config, shards, wal) = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let workers = config.workers;
    // With --shards S, statements scatter over S independent engine
    // shards (each with its own slice of the scan workers); otherwise
    // a single Db serves every statement. With --wal-dir the engine
    // opens durably, replaying whatever a previous process logged.
    let db: Arc<dyn SqlEngine> = match (&wal.dir, shards > 1) {
        (Some(dir), true) => {
            match ShardedDb::open_durable(shards, (workers / shards).max(1), dir, wal.fsync) {
                Ok(db) => Arc::new(db),
                Err(e) => {
                    eprintln!("recovery failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (Some(dir), false) => match Db::open_durable(workers, dir, wal.fsync) {
            Ok(db) => Arc::new(db),
            Err(e) => {
                eprintln!("recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, true) => Arc::new(ShardedDb::new(shards, (workers / shards).max(1))),
        (None, false) => Arc::new(Db::new(workers)),
    };
    if let Some(info) = db.engine_stats().durability.map(|d| d.recovery) {
        eprintln!(
            "recovered: {} records ({} envelopes) replayed, {} torn bytes truncated, \
             {} tables from checkpoint",
            info.replayed_records,
            info.replayed_envelopes,
            info.truncated_bytes,
            info.checkpoint_tables
        );
    }
    let mut handle = match serve(db, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    handle.join();
    println!("shut down");
    ExitCode::SUCCESS
}
