//! The streamed-ingest state machine.
//!
//! One [`IngestStream`] instance backs one in-flight chunked INSERT on
//! one connection. The grammar it enforces:
//!
//! ```text
//! begin(table, columns)        InsertHeader
//! chunk(0, rows)               InsertChunk seq=0
//! chunk(1, rows)               InsertChunk seq=1
//! ...
//! done(engine) -> accepted     InsertDone  -> InsertAck
//! ```
//!
//! * The header resolves the target table's schema **up front**; an
//!   unknown table or column fails before any chunk is read.
//! * Chunks carry an explicit sequence number, checked strictly
//!   monotonic from zero, so a dropped or reordered frame surfaces as
//!   a protocol error instead of silent row loss.
//! * Every row is validated at chunk time (arity against the header's
//!   column list, value types against the table schema) and reordered
//!   into full-width table rows, with NULL padding for table columns
//!   the header did not name.
//! * Nothing is visible to readers until [`IngestStream::done`]: the
//!   buffered rows commit as one
//!   [`ingest`](nlq_engine::SqlEngine::ingest) batch, which
//!   appends through the seal-on-write segment path and folds the
//!   delta into eligible Γ summaries. Dropping the stream (client
//!   disconnect, explicit abort) commits nothing.

use nlq_engine::{ExecOptions, SqlEngine};
use nlq_storage::{DataType, Row, Schema, Value};

use crate::{FeatureError, Result};

/// Where a stream is in the ingest grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestState {
    /// Header accepted; chunks may arrive.
    Active,
    /// A protocol or validation error killed the stream; every further
    /// frame is rejected until the client starts a new stream.
    Failed,
}

/// One in-flight chunked INSERT: header-validated column mapping plus
/// the buffered, validated rows awaiting the atomic commit.
#[derive(Debug)]
pub struct IngestStream {
    table: String,
    schema: Schema,
    /// `mapping[j]` = table column index fed by frame column `j`.
    mapping: Vec<usize>,
    next_seq: u32,
    rows: Vec<Row>,
    state: IngestState,
}

impl IngestStream {
    /// Opens a stream from an `InsertHeader`: resolves `table`'s
    /// schema through the engine and maps each named frame column to
    /// its table position (case-insensitive). An empty column list
    /// means "all table columns in schema order".
    pub fn begin(engine: &dyn SqlEngine, table: &str, columns: &[String]) -> Result<IngestStream> {
        let schema = engine.table_schema(table)?;
        let mapping = if columns.is_empty() {
            (0..schema.columns().len()).collect()
        } else {
            let mut mapping = Vec::with_capacity(columns.len());
            for name in columns {
                let idx = schema.index_of(name).ok_or_else(|| {
                    FeatureError::Protocol(format!("table '{table}' has no column '{name}'"))
                })?;
                if mapping.contains(&idx) {
                    return Err(FeatureError::Protocol(format!(
                        "column '{name}' named twice in ingest header"
                    )));
                }
                mapping.push(idx);
            }
            mapping
        };
        Ok(IngestStream {
            table: table.to_owned(),
            schema,
            mapping,
            next_seq: 0,
            rows: Vec::new(),
            state: IngestState::Active,
        })
    }

    /// The target table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Rows buffered so far (validated, not yet committed).
    pub fn rows_buffered(&self) -> usize {
        self.rows.len()
    }

    /// Current grammar state.
    pub fn state(&self) -> IngestState {
        self.state
    }

    fn fail(&mut self, msg: String) -> FeatureError {
        self.state = IngestState::Failed;
        FeatureError::Protocol(msg)
    }

    /// Accepts one `InsertChunk`: checks the sequence number, validates
    /// and reorders every row, buffers. Returns the total buffered row
    /// count. Any error poisons the stream — no partial chunk is kept.
    pub fn chunk(&mut self, seq: u32, rows: Vec<Row>) -> Result<usize> {
        if self.state == IngestState::Failed {
            return Err(FeatureError::Protocol(
                "stream already failed; restart with a new header".into(),
            ));
        }
        if seq != self.next_seq {
            let want = self.next_seq;
            return Err(self.fail(format!("chunk out of order: got seq {seq}, want {want}")));
        }
        let width = self.schema.columns().len();
        let mut staged = Vec::with_capacity(rows.len());
        for (r, row) in rows.into_iter().enumerate() {
            if row.len() != self.mapping.len() {
                let want = self.mapping.len();
                let got = row.len();
                return Err(self.fail(format!(
                    "chunk {seq} row {r}: {got} values for {want} header columns"
                )));
            }
            let mut full: Row = vec![Value::Null; width];
            for (j, v) in row.into_iter().enumerate() {
                let col = self.mapping[j];
                let c = &self.schema.columns()[col];
                let ok = matches!(
                    (&v, c.ty),
                    (Value::Null, _)
                        | (Value::Int(_), DataType::Int)
                        | (Value::Float(_), DataType::Float)
                        | (Value::Int(_), DataType::Float)
                        | (Value::Str(_), DataType::Str)
                );
                if !ok {
                    let name = c.name.clone();
                    return Err(self.fail(format!(
                        "chunk {seq} row {r}: {v:?} does not fit column '{name}'"
                    )));
                }
                // Widen ints fed to float columns so storage sees one
                // uniform type per column.
                full[col] = match (v, c.ty) {
                    (Value::Int(i), DataType::Float) => Value::Float(i as f64),
                    (v, _) => v,
                };
            }
            staged.push(full);
        }
        self.rows.extend(staged);
        self.next_seq += 1;
        Ok(self.rows.len())
    }

    /// Commits the stream (`InsertDone`): every buffered row goes to
    /// the engine as one atomic batch. Returns the rows accepted — the
    /// value the `InsertAck` carries. The commit is traced per `opts`.
    /// Consumes the stream either way; on error nothing was committed.
    pub fn done(self, engine: &dyn SqlEngine, opts: &ExecOptions) -> Result<u64> {
        if self.state == IngestState::Failed {
            return Err(FeatureError::Protocol(
                "stream already failed; nothing to commit".into(),
            ));
        }
        if self.rows.is_empty() {
            return Ok(0);
        }
        Ok(engine.ingest(&self.table, self.rows, opts)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlq_engine::Db;

    fn db() -> Db {
        let db = Db::new(1);
        db.execute("CREATE TABLE pts (i INT, X1 FLOAT, X2 FLOAT)")
            .unwrap();
        db
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn header_rejects_unknown_table_and_column() {
        let db = db();
        assert!(IngestStream::begin(&db, "nope", &[]).is_err());
        let err = IngestStream::begin(&db, "pts", &cols(&["i", "bogus"])).unwrap_err();
        assert!(matches!(err, FeatureError::Protocol(_)), "{err}");
        assert!(IngestStream::begin(&db, "pts", &cols(&["i", "I"])).is_err());
    }

    #[test]
    fn chunks_commit_atomically_at_done() {
        let db = db();
        let mut s = IngestStream::begin(&db, "pts", &[]).unwrap();
        s.chunk(0, vec![vec![Value::Int(1), Value::Float(0.5), Value::Null]])
            .unwrap();
        s.chunk(
            1,
            vec![
                vec![Value::Int(2), Value::Float(1.5), Value::Float(2.5)],
                vec![Value::Int(3), Value::Null, Value::Float(3.5)],
            ],
        )
        .unwrap();
        // Nothing visible before done.
        let rs = db.execute("SELECT count(*) FROM pts").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert_eq!(s.rows_buffered(), 3);
        assert_eq!(s.done(&db, &ExecOptions::default()).unwrap(), 3);
        let rs = db.execute("SELECT count(*) FROM pts").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn named_columns_reorder_and_null_pad() {
        let db = db();
        let mut s = IngestStream::begin(&db, "pts", &cols(&["X2", "i"])).unwrap();
        s.chunk(0, vec![vec![Value::Float(7.0), Value::Int(42)]])
            .unwrap();
        s.done(&db, &ExecOptions::default()).unwrap();
        let rs = db.execute("SELECT i, X1, X2 FROM pts").unwrap();
        assert_eq!(
            rs.rows[0],
            vec![Value::Int(42), Value::Null, Value::Float(7.0)]
        );
    }

    #[test]
    fn out_of_order_chunk_poisons_the_stream() {
        let db = db();
        let mut s = IngestStream::begin(&db, "pts", &[]).unwrap();
        s.chunk(0, vec![vec![Value::Int(1), Value::Null, Value::Null]])
            .unwrap();
        assert!(s.chunk(2, vec![]).is_err());
        assert_eq!(s.state(), IngestState::Failed);
        // Every further frame fails, including the commit.
        assert!(s.chunk(1, vec![]).is_err());
        assert!(s.done(&db, &ExecOptions::default()).is_err());
        let rs = db.execute("SELECT count(*) FROM pts").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }

    #[test]
    fn type_mismatch_rejects_whole_chunk() {
        let db = db();
        let mut s = IngestStream::begin(&db, "pts", &[]).unwrap();
        let bad = vec![
            vec![Value::Int(1), Value::Float(1.0), Value::Float(2.0)],
            vec![Value::Str("x".into()), Value::Float(1.0), Value::Null],
        ];
        assert!(s.chunk(0, bad).is_err());
        assert_eq!(s.rows_buffered(), 0, "failed chunk must not stage rows");
    }

    #[test]
    fn int_widens_into_float_column() {
        let db = db();
        let mut s = IngestStream::begin(&db, "pts", &[]).unwrap();
        s.chunk(0, vec![vec![Value::Int(1), Value::Int(3), Value::Int(4)]])
            .unwrap();
        s.done(&db, &ExecOptions::default()).unwrap();
        let rs = db.execute("SELECT X1 FROM pts").unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(3.0));
    }

    #[test]
    fn dropped_stream_commits_nothing() {
        let db = db();
        {
            let mut s = IngestStream::begin(&db, "pts", &[]).unwrap();
            s.chunk(0, vec![vec![Value::Int(1), Value::Null, Value::Null]])
                .unwrap();
            // Simulated disconnect: the stream drops mid-flight.
        }
        let rs = db.execute("SELECT count(*) FROM pts").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }
}
