//! Streamed results against in-process execution, and the lazy
//! row decoder's failure contract.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use nlq_client::{Client, ClientError};
use nlq_engine::{Db, ExecOptions, SqlEngine};
use nlq_server::wire::{read_frame, write_frame, Response, PROTOCOL_VERSION};
use nlq_server::{serve, ServerConfig};
use nlq_storage::{Column, DataType, Schema, Table, Value};
use nlq_testkit::Rng;

/// Rows compared bit for bit: `Value`'s own equality calls
/// `0.0 == -0.0` equal.
fn assert_same_bits(got: &[Vec<Value>], want: &[Vec<Value>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: row {r} arity");
        for (c, (g, w)) in g.iter().zip(w).enumerate() {
            let same = match (g, w) {
                (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                _ => g == w,
            };
            assert!(
                same,
                "{what}: row {r} col {c}: streamed {g:?}, in-process {w:?}"
            );
        }
    }
}

/// A feature value: mostly uniform, sometimes ±0.0, sometimes NULL.
fn feature(rng: &mut Rng) -> String {
    match rng.range_usize(0, 9) {
        0 => "NULL".into(),
        1 => "-0.0".into(),
        2 => "0.0".into(),
        _ => format!("{}", rng.range_f64(-3.0, 3.0)),
    }
}

/// `X(i, X1..X3)` with `n` rows plus the replicated model table
/// `B(b0..b3)` the join-form statements read their coefficients from.
fn load(db: &Db, rng: &mut Rng, n: usize) {
    db.execute("CREATE TABLE X (i INT, X1 FLOAT, X2 FLOAT, X3 FLOAT)")
        .unwrap();
    for start in (0..n).step_by(500) {
        let values: Vec<String> = (start..n.min(start + 500))
            .map(|i| {
                format!(
                    "({i}, {}, {}, {})",
                    feature(rng),
                    feature(rng),
                    feature(rng)
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO X VALUES {}", values.join(", ")))
            .unwrap();
    }
    let cols = (0..4)
        .map(|j| Column::new(format!("b{j}"), DataType::Float))
        .collect();
    let mut model = Table::new(Schema::new(cols), 1);
    model
        .insert([-0.0, 1.5, -2.0, 0.25].map(Value::Float).to_vec())
        .unwrap();
    SqlEngine::publish_model(db, "B", model).unwrap();
}

/// The statements under test: each scoring UDF (with literal and
/// joined coefficients), a nested call whose outer UDF runs a row at a
/// time, and a plain projection — each with and without a WHERE
/// selection and a LIMIT.
fn statements(rng: &mut Rng) -> Vec<String> {
    let projections = [
        "i, linearregscore(X1, X2, X3, 0.5, 1.0, 2.0, 0.0)",
        "x.i, linearregscore(x.X1, x.X2, x.X3, b.b0, b.b1, b.b2, b.b3), x.X2",
        "i, fascore(X1, X2, X3, 0.5, 0.0, 1.0, 2.0, 1.0, 0.5)",
        "x.i, fascore(x.X1, x.X2, x.X3, b.b0, b.b1, b.b2, b.b3, b.b0, b.b2)",
        "i, distance(X1, X2, X3, 1.0, 0.0, 0.5)",
        "x.i, distance(x.X1, x.X2, b.b0, b.b2)",
        "i, clusterscore(distance(X1, X2, 0.0, 1.0), distance(X1, X2, 1.0, 0.0))",
        "X3, i",
    ];
    let filters = [
        "",
        " WHERE X1 > 0",
        " WHERE X2 IS NULL OR X3 < 1",
        " WHERE i < 1500",
    ];
    let mut out = Vec::new();
    for p in projections {
        let from = if p.starts_with("x.") {
            "X x CROSS JOIN B b"
        } else {
            "X"
        };
        let filter = filters[rng.range_usize(0, filters.len() - 1)];
        let filter = if from.contains(' ') {
            filter.replace(" X", " x.X").replace(" i ", " x.i ")
        } else {
            filter.to_owned()
        };
        out.push(format!("SELECT {p} FROM {from}{filter}"));
        let limit = [0, 1, 7, 300, 1500, 100_000][rng.range_usize(0, 5)];
        out.push(format!("SELECT {p} FROM {from}{filter} LIMIT {limit}"));
    }
    out
}

/// Property: at S = 1 and S = 4, with one-row and default chunks,
/// every streamed result equals `Db::execute` bit for bit and in
/// order — the block path's columns encoded straight to chunk frames
/// and decoded lazily give exactly the rows built in process — and
/// equals the row-at-a-time interpreter's rows as well.
#[test]
fn streamed_rows_equal_in_process_rows_bit_for_bit() {
    for shards in [1, 4] {
        let db = Arc::new(Db::open(shards, 2, None).unwrap());
        let mut rng = Rng::new(0x5717_ea11 ^ shards as u64);
        load(&db, &mut rng, 4000);
        for chunk_bytes in [1, ServerConfig::default().chunk_bytes] {
            let mut handle = serve(
                Arc::clone(&db) as Arc<dyn SqlEngine>,
                ServerConfig {
                    chunk_bytes,
                    ..ServerConfig::default()
                },
            )
            .expect("bind");
            let mut c = Client::connect(handle.addr()).unwrap();
            for sql in statements(&mut rng) {
                let what = format!("S={shards} chunk={chunk_bytes}: {sql}");
                let want = db.execute(&sql).unwrap();
                let got = c.execute(&sql).unwrap();
                assert_eq!(got.columns, want.columns, "{what}");
                assert_eq!(got.stats.block_path, want.stats.block_path, "{what}");
                assert!(got.stats.block_path, "{what}: expected the block path");
                assert_same_bits(&got.rows, &want.rows, &what);
                // The column kernels repeat `eval`'s operation order, so
                // the row-at-a-time interpreter agrees bit for bit too.
                let row_path = ExecOptions {
                    block_scan: Some(false),
                    ..ExecOptions::default()
                };
                let rows = db.execute_with(&sql, &row_path).unwrap().rows;
                assert_same_bits(&got.rows, &rows, &format!("{what} (row path)"));
            }
            drop(c);
            handle.shutdown();
        }
    }
}

/// A one-column chunk of Int rows `0..n`, encoded by hand.
fn int_chunk(seq: u64, n: u32) -> Vec<u8> {
    Response::RowsChunk {
        seq,
        ncols: 1,
        rows: (0..n).map(|i| vec![Value::Int(i64::from(i))]).collect(),
    }
    .encode()
}

/// Serves one connection: Hello, then a stream header for the first
/// Execute, then the given raw frames.
fn fake_server(frames: Vec<Vec<u8>>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let hello = Response::Hello {
            session_id: 1,
            version: PROTOCOL_VERSION,
        };
        write_frame(&mut sock, &hello.encode()).unwrap();
        read_frame(&mut sock).unwrap().expect("execute request");
        let header = Response::RowsHeader {
            seq: 1,
            query_id: 1,
            columns: vec!["i".into()],
        };
        write_frame(&mut sock, &header.encode()).unwrap();
        for f in &frames {
            write_frame(&mut sock, f).unwrap();
        }
        sock.flush().unwrap();
        // Hold the socket open until the client hangs up.
        let _ = sock.read(&mut [0u8; 64]);
    });
    (addr, thread)
}

/// Collects a stream's items as `Ok(i)` / `Err(())` until it ends.
fn drain(addr: std::net::SocketAddr) -> Vec<Result<i64, ()>> {
    let mut c = Client::connect(addr).unwrap();
    let stream = c.query("SELECT i FROM t").unwrap();
    stream
        .map(|item| match item {
            Ok(row) => Ok(row[0].as_f64().unwrap() as i64),
            Err(ClientError::Io(_)) => Err(()),
            Err(e) => panic!("expected a decode error, got {e}"),
        })
        .collect()
}

/// Rows decode as they are iterated, so a malformed chunk fails at the
/// row where it breaks: the rows before it arrive, then exactly one
/// `Err`, then the stream ends.
#[test]
fn malformed_chunk_yields_one_error_at_that_row_then_ends() {
    // A truncated third value: two rows, then the error.
    let mut truncated = int_chunk(1, 3);
    truncated.truncate(truncated.len() - 4);
    let (addr, server) = fake_server(vec![truncated, int_chunk(1, 2)]);
    assert_eq!(drain(addr), vec![Ok(0), Ok(1), Err(())]);
    server.join().unwrap();

    // Trailing bytes after the last row: every row, then the error.
    let mut trailing = int_chunk(1, 3);
    trailing.extend_from_slice(&[0, 0]);
    let (addr, server) = fake_server(vec![trailing, int_chunk(1, 2)]);
    assert_eq!(drain(addr), vec![Ok(0), Ok(1), Ok(2), Err(())]);
    server.join().unwrap();
}
