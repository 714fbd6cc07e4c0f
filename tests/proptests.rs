//! Workspace-level property tests: random data sets pushed through
//! the full DBMS pipeline must agree with direct in-memory
//! computation, and the packing/merging machinery must be lossless.

use nlq::engine::{sqlgen, Db, ExecOptions, NlqMethod};
use nlq::models::{MatrixShape, Nlq};
use nlq::storage::{Schema, Table, Value};
use nlq::udf::pack::{pack_nlq, pack_vector, unpack_nlq, unpack_vector};
use nlq_testkit::{run_cases, Rng};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

/// Statement options that keep every scan on the row path.
fn row_scan() -> ExecOptions {
    ExecOptions {
        block_scan: Some(false),
        ..ExecOptions::default()
    }
}

/// Random small data set: 2-6 dimensions, 1-60 rows, moderate values.
fn data_set(rng: &mut Rng) -> Vec<Vec<f64>> {
    let d = rng.range_usize(2, 6);
    let n = rng.range_usize(1, 60);
    (0..n).map(|_| rng.vec_f64(d, -50.0, 50.0)).collect()
}

#[test]
fn engine_paths_match_reference() {
    run_cases(24, 0xf001, |rng| {
        let rows = data_set(rng);
        let d = rows[0].len();
        let reference = Nlq::from_rows(d, MatrixShape::Triangular, &rows);
        let db = Db::new(3);
        db.load_points("X", &rows, false).unwrap();
        let names = sqlgen::x_cols(d);
        let cols: Vec<&str> = names.iter().map(String::as_str).collect();
        for method in [NlqMethod::Sql, NlqMethod::UdfList, NlqMethod::UdfString] {
            let got = db
                .compute_nlq_with(method, "X", &cols, MatrixShape::Triangular)
                .unwrap();
            assert_eq!(got.n(), reference.n());
            for a in 0..d {
                assert!(close(got.l()[a], reference.l()[a]));
                for b in 0..=a {
                    assert!(close(got.q_raw()[(a, b)], reference.q_raw()[(a, b)]));
                }
            }
        }
    });
}

#[test]
fn nlq_pack_roundtrip_is_lossless() {
    run_cases(24, 0xf002, |rng| {
        let rows = data_set(rng);
        let d = rows[0].len();
        for shape in [
            MatrixShape::Diagonal,
            MatrixShape::Triangular,
            MatrixShape::Full,
        ] {
            let nlq = Nlq::from_rows(d, shape, &rows);
            let back = unpack_nlq(&pack_nlq(&nlq)).unwrap();
            assert_eq!(back, nlq);
        }
    });
}

#[test]
fn vector_pack_roundtrip_is_exact() {
    run_cases(24, 0xf003, |rng| {
        let n = rng.range_usize(0, 39);
        let xs = rng.vec_f64(n, -1e12, 1e12);
        let back = unpack_vector(&pack_vector(&xs)).unwrap();
        assert_eq!(back, xs);
    });
}

#[test]
fn merge_is_associative_and_matches_single_pass() {
    run_cases(24, 0xf004, |rng| {
        let rows = data_set(rng);
        let d = rows[0].len();
        let cut = rng.range_usize(0, rows.len());
        let whole = Nlq::from_rows(d, MatrixShape::Triangular, &rows);
        let mut left = Nlq::from_rows(d, MatrixShape::Triangular, &rows[..cut]);
        let right = Nlq::from_rows(d, MatrixShape::Triangular, &rows[cut..]);
        left.merge(&right);
        assert_eq!(left.n(), whole.n());
        for a in 0..d {
            assert!(close(left.l()[a], whole.l()[a]));
            for b in 0..=a {
                assert!(close(left.q_raw()[(a, b)], whole.q_raw()[(a, b)]));
            }
        }
    });
}

#[test]
fn covariance_is_psd_and_correlation_bounded() {
    run_cases(24, 0xf005, |rng| {
        let rows = data_set(rng);
        if rows.len() < 3 {
            return;
        }
        let d = rows[0].len();
        let nlq = Nlq::from_rows(d, MatrixShape::Triangular, &rows);
        let cov = nlq.covariance().unwrap();
        // PSD check via eigenvalues (tolerate tiny negative noise).
        let eig = nlq::linalg::jacobi_eigen(&cov, 1e-12).unwrap();
        for v in &eig.values {
            assert!(*v >= -1e-6 * (1.0 + cov.max_abs()), "eigenvalue {v}");
        }
        if let Ok(rho) = nlq.correlation() {
            for a in 0..d {
                assert!(close(rho[(a, a)], 1.0));
                for b in 0..d {
                    assert!(rho[(a, b)] >= -1.0 - 1e-9 && rho[(a, b)] <= 1.0 + 1e-9);
                }
            }
        }
    });
}

#[test]
fn block_scan_matches_row_scan() {
    // Every aggregate builtin must answer the same value *of the same
    // type* on every path: the block-at-a-time scan, the row-at-a-time
    // scan, four shards, and a materialized Γ summary. Floats agree
    // within reassociation noise (1e-12 relative), Ints bit for bit.
    // The data crosses the 1024-row block boundary in some cases, has
    // tables smaller than the worker count (empty partitions), NULL
    // holes in most cases (a summary answers only NULL-free data), and
    // Int values stored in FLOAT columns (which must still answer
    // FLOAT).
    run_cases(16, 0xf007, |rng| {
        let d = rng.range_usize(2, 4);
        // Bias towards small tables but cross the 1024-row block
        // boundary in some cases; never a multiple of 1024 by luck
        // alone, and 0 rows exercises the empty-input path.
        let n = match rng.range_usize(0, 3) {
            0 => rng.range_usize(0, 5),
            1 => rng.range_usize(5, 300),
            _ => rng.range_usize(1000, 2600),
        };
        let workers = rng.range_usize(1, 7);
        let with_nulls = rng.range_usize(0, 2) > 0;

        let mut table = Table::new(Schema::points(d, false), workers);
        let mut inserts = Vec::new();
        let mut any_null = false;
        for i in 0..n {
            let mut row = vec![Value::Int(i as i64 + 1)];
            for _ in 0..d {
                // ~10% NULL holes so masked kernels are exercised, and
                // ~20% integers in the FLOAT columns.
                row.push(match rng.range_usize(0, 9) {
                    0 if with_nulls => Value::Null,
                    1 | 2 => Value::Int(rng.range_i64(-50, 50)),
                    _ => Value::Float(rng.range_f64(-50.0, 50.0)),
                });
            }
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:?}"),
                    v => v.to_string(),
                })
                .collect();
            inserts.push(format!("({})", cells.join(", ")));
            any_null |= row.contains(&Value::Null);
            table.insert(row).unwrap();
        }

        let block_db = Db::new(workers);
        block_db.register_table("X", table.clone()).unwrap();
        let row_db = Db::new(workers);
        row_db.register_table("X", table).unwrap();
        // Inserted through SQL into 1, 2 and 4 partitions: each scan
        // merges that many partials.
        let partitioned: Vec<(usize, Db)> = [1, 2, 4].map(|w| (w, Db::new(w))).into();
        let summary_db = Db::new(workers);
        let coords: Vec<String> = (1..=d).map(|a| format!("X{a}")).collect();
        for db in partitioned.iter().map(|(_, db)| db).chain([&summary_db]) {
            let cols: Vec<String> = coords.iter().map(|c| format!("{c} FLOAT")).collect();
            db.execute(&format!("CREATE TABLE X (i INT, {})", cols.join(", ")))
                .unwrap();
            for chunk in inserts.chunks(500) {
                db.execute(&format!("INSERT INTO X VALUES {}", chunk.join(", ")))
                    .unwrap();
            }
        }
        summary_db
            .execute(&format!("CREATE SUMMARY s ON X ({})", coords.join(", ")))
            .unwrap();

        // (call, whether a summary can answer it).
        let nlq = format!("nlq_list({d}, 'triangular', {})", coords.join(", "));
        let calls = [
            ("count(*)", true),
            ("sum(X1)", true),
            ("avg(X2)", true),
            ("min(X1)", true),
            ("max(X2)", true),
            ("count(X1)", true),
            ("corr(X1, X2)", true),
            ("var_pop(X1)", true),
            ("var_samp(X2)", true),
            ("stddev(X1)", true),
            ("covar_pop(X1, X2)", true),
            ("regr_slope(X2, X1)", true),
            ("regr_intercept(X2, X1)", true),
            ("sum(X1 * X2)", false),
            (nlq.as_str(), true),
        ];
        let select = |summary: bool| {
            let list: Vec<&str> = calls
                .iter()
                .filter(|(_, ok)| *ok || !summary)
                .map(|(c, _)| *c)
                .collect();
            format!("SELECT {} FROM X", list.join(", "))
        };

        let via_rows = row_db.execute_with(&select(false), &row_scan()).unwrap();
        let via_blocks = block_db.execute(&select(false)).unwrap();
        let via_partitions: Vec<(usize, nlq::engine::ResultSet)> = partitioned
            .iter()
            .map(|(w, db)| (*w, db.execute(&select(false)).unwrap()))
            .collect();
        let via_summary = summary_db.execute(&select(true)).unwrap();
        assert!(via_blocks.stats.block_path);
        assert!(!via_rows.stats.block_path);
        assert_eq!(via_summary.stats.summary_path, !any_null);

        let tight = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
        let same = |got: &Value, want: &Value, ctx: &str| match (got, want) {
            (Value::Float(a), Value::Float(b)) => assert!(tight(*a, *b), "{ctx}: {a} vs {b}"),
            // The packed nlq strings may differ in their last digits
            // from summation order; compare the unpacked statistics.
            (Value::Str(a), Value::Str(b)) => {
                let (a, b) = (unpack_nlq(a).unwrap(), unpack_nlq(b).unwrap());
                assert_eq!(a.n(), b.n(), "{ctx}");
                for i in 0..d {
                    assert!(tight(a.l()[i], b.l()[i]), "{ctx}");
                    for j in 0..=i {
                        assert!(tight(a.q_raw()[(i, j)], b.q_raw()[(i, j)]), "{ctx}");
                    }
                }
            }
            _ => assert_eq!(got, want, "{ctx}"),
        };
        let mut summary_col = 0;
        for (col, (call, summary_ok)) in calls.iter().enumerate() {
            let want = via_rows.value(0, col);
            same(via_blocks.value(0, col), want, &format!("block {call}"));
            for (w, rs) in &via_partitions {
                same(rs.value(0, col), want, &format!("{w} partition(s) {call}"));
            }
            if *summary_ok {
                same(
                    via_summary.value(0, summary_col),
                    want,
                    &format!("summary {call}"),
                );
                summary_col += 1;
            }
        }
    });
}

#[test]
fn filtered_block_scan_matches_row_scan() {
    // Random WHERE predicates drawn from the block-compilable subset
    // (comparisons, IS [NOT] NULL, NOT/AND/OR) evaluated as selection
    // bitmaps must keep exactly the rows the row-at-a-time interpreter
    // keeps — including SQL three-valued logic over NULL coordinates —
    // for both scalar projections and aggregates, across empty tables,
    // empty partitions, and the Int id column.
    fn predicate(rng: &mut Rng, d: usize, depth: usize) -> String {
        if depth == 0 || rng.range_usize(0, 3) > 0 {
            let col = rng.range_usize(1, d);
            match rng.range_usize(0, 5) {
                0 => format!("X{col} IS NULL"),
                1 => format!("X{col} IS NOT NULL"),
                2 => {
                    let other = rng.range_usize(1, d);
                    format!("X{col} <= X{other}")
                }
                3 => format!("i > {}", rng.range_usize(0, 2000)),
                _ => {
                    let ops = [">", ">=", "<", "<=", "=", "<>"];
                    format!(
                        "X{col} {} {:.2}",
                        ops[rng.range_usize(0, ops.len() - 1)],
                        rng.range_f64(-40.0, 40.0)
                    )
                }
            }
        } else {
            match rng.range_usize(0, 2) {
                0 => format!("NOT ({})", predicate(rng, d, depth - 1)),
                1 => format!(
                    "({} AND {})",
                    predicate(rng, d, depth - 1),
                    predicate(rng, d, depth - 1)
                ),
                _ => format!(
                    "({} OR {})",
                    predicate(rng, d, depth - 1),
                    predicate(rng, d, depth - 1)
                ),
            }
        }
    }

    run_cases(16, 0xf008, |rng| {
        let d = rng.range_usize(2, 4);
        let n = match rng.range_usize(0, 3) {
            0 => rng.range_usize(0, 5),
            1 => rng.range_usize(5, 300),
            _ => rng.range_usize(1000, 2600),
        };
        let workers = rng.range_usize(1, 7);

        let mut table = Table::new(Schema::points(d, false), workers);
        for i in 0..n {
            let mut row = vec![Value::Int(i as i64 + 1)];
            for _ in 0..d {
                if rng.range_usize(0, 10) == 0 {
                    row.push(Value::Null);
                } else {
                    row.push(Value::Float(rng.range_f64(-50.0, 50.0)));
                }
            }
            table.insert(row).unwrap();
        }

        let block_db = Db::new(workers);
        block_db.register_table("X", table.clone()).unwrap();
        let row_db = Db::new(workers);
        row_db.register_table("X", table).unwrap();

        let along = predicate(rng, d, 2);
        let tight = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
        for sql in [
            format!("SELECT i, X1, X2 FROM X WHERE {along}"),
            format!("SELECT count(*), count(X1), sum(X1), min(X2), max(X2) FROM X WHERE {along}"),
        ] {
            let via_blocks = block_db.execute(&sql).unwrap();
            let via_rows = row_db.execute_with(&sql, &row_scan()).unwrap();
            assert!(via_blocks.stats.block_path, "{sql}");
            assert!(!via_rows.stats.block_path);
            assert_eq!(via_blocks.len(), via_rows.len(), "{sql}");
            for r in 0..via_blocks.len() {
                for c in 0..via_blocks.columns.len() {
                    let (a, b) = (via_blocks.value(r, c), via_rows.value(r, c));
                    match (a.as_f64(), b.as_f64()) {
                        (Some(a), Some(b)) => {
                            assert!(tight(a, b), "{sql}: row {r} col {c}: {a} vs {b}")
                        }
                        _ => assert_eq!(a, b, "{sql}: row {r} col {c}"),
                    }
                }
            }
            // The plan must advertise the selection-bitmap block scan.
            let plan = block_db.execute(&format!("EXPLAIN {sql}")).unwrap();
            let text: Vec<String> = plan
                .rows
                .iter()
                .map(|r| r[0].as_str().unwrap().to_owned())
                .collect();
            let text = text.join("\n");
            assert!(text.contains("scan mode: block"), "{sql}\n{text}");
            assert!(
                text.contains("predicate(s) as selection bitmap"),
                "{sql}\n{text}"
            );
        }
    });
}

#[test]
fn partition_count_does_not_change_results() {
    // A scan runs one partial per partition and merges them, so 1, 2, 4
    // or any number of partitions must answer alike: Γ itself, GROUP
    // BY, ORDER BY with and without a hidden key and LIMIT, and the
    // scoring cross join, over NULL holes and a random interleaving of
    // INSERT batches. Floats may differ by merge order, within 1e-12
    // relative.
    fn tight(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }
    fn same_rows(got: &nlq::engine::ResultSet, want: &nlq::engine::ResultSet, ctx: &str) {
        assert_eq!(got.columns, want.columns, "{ctx}: column names");
        assert_eq!(got.rows.len(), want.rows.len(), "{ctx}: row count");
        for (r, (a, b)) in got.rows.iter().zip(&want.rows).enumerate() {
            for (c, (x, y)) in a.iter().zip(b).enumerate() {
                match (x, y) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert!(tight(*x, *y), "{ctx}: ({r},{c}) {x} vs {y}")
                    }
                    (Value::Str(x), Value::Str(y)) if x.starts_with("NLQ;") => {
                        let (ga, gb) = (unpack_nlq(x).unwrap(), unpack_nlq(y).unwrap());
                        assert_eq!(ga.n(), gb.n(), "{ctx}: ({r},{c}) n");
                        for i in 0..ga.d() {
                            assert!(tight(ga.l()[i], gb.l()[i]), "{ctx}: L[{i}]");
                            for j in 0..=i {
                                let (qa, qb) = (ga.q_raw()[(i, j)], gb.q_raw()[(i, j)]);
                                assert!(tight(qa, qb), "{ctx}: Q[{i},{j}]");
                            }
                        }
                    }
                    _ => assert_eq!(x, y, "{ctx}: ({r},{c})"),
                }
            }
        }
    }
    fn maybe_null(rng: &mut Rng) -> String {
        if rng.range_usize(0, 10) == 0 {
            "NULL".to_owned()
        } else {
            format!("{:?}", rng.range_f64(-50.0, 50.0))
        }
    }

    run_cases(24, 0xf006, |rng| {
        let rows = data_set(rng);
        let workers = rng.range_usize(1, 7);
        let d = rows[0].len();
        let names = sqlgen::x_cols(d);
        let cols: Vec<&str> = names.iter().map(String::as_str).collect();

        let db1 = Db::new(1);
        db1.load_points("X", &rows, false).unwrap();
        let one = db1.compute_nlq("X", &cols, MatrixShape::Full).unwrap();

        let dbw = Db::new(workers);
        dbw.load_points("X", &rows, false).unwrap();
        let many = dbw.compute_nlq("X", &cols, MatrixShape::Full).unwrap();

        assert_eq!(one.n(), many.n());
        for a in 0..d {
            assert!(close(one.l()[a], many.l()[a]));
            for b in 0..d {
                assert!(close(one.q_raw()[(a, b)], many.q_raw()[(a, b)]));
            }
        }

        // SQL families over 1, 2 and 4 partitions, fed the same random
        // INSERT batches.
        let dbs: Vec<Db> = [1, 2, 4].map(Db::new).into();
        let beta = nlq::linalg::Vector::from(rng.vec_f64(d, -2.0, 2.0));
        for db in &dbs {
            db.execute("CREATE TABLE T (id INT, g INT, a FLOAT, b FLOAT)")
                .unwrap();
            db.load_points("X", &rows, false).unwrap();
            db.register_beta("B", 0.5, &beta).unwrap();
        }
        let n = rng.range_usize(1, 80);
        let mut id = 0;
        while id < n {
            let batch = rng.range_usize(1, 9).min(n - id);
            let values: Vec<String> = (id + 1..=id + batch)
                .map(|k| {
                    let g = rng.range_i64(0, 3);
                    format!("({k}, {g}, {}, {})", maybe_null(rng), maybe_null(rng))
                })
                .collect();
            id += batch;
            let sql = format!("INSERT INTO T VALUES {}", values.join(", "));
            for db in &dbs {
                db.execute(&sql).unwrap();
            }
        }
        let mut score = sqlgen::score_regression_udf("X", &names, "B");
        score.push_str(" ORDER BY x.i");
        let queries = [
            "SELECT count(*), sum(a), avg(a), min(b), max(b) FROM T",
            "SELECT corr(a, b), covar_pop(a, b), variance(a) FROM T",
            "SELECT g, count(*), sum(a), avg(b) FROM T GROUP BY g ORDER BY g",
            "SELECT nlq_list(2, 'triang', a, b) FROM T",
            "SELECT g, a, b FROM T ORDER BY a, id",
            "SELECT a + b, g FROM T ORDER BY id DESC LIMIT 11",
            score.as_str(),
        ];
        for q in queries {
            let want = dbs[0].execute(q).unwrap();
            for (db, w) in dbs[1..].iter().zip([2, 4]) {
                same_rows(
                    &db.execute(q).unwrap(),
                    &want,
                    &format!("{w} partitions: {q}"),
                );
            }
        }
    });
}

#[test]
fn concurrent_mixed_sessions_match_serial_replay() {
    // N threads hammer one shared `Db` with interleaved DDL, INSERTs,
    // summary builds, aggregates, and scoring queries. Each thread
    // owns its tables, so the answers it observes must be exactly the
    // answers a serial replay of that thread's script produces —
    // regardless of how the threads interleave on the shared catalog,
    // registry, and summary store.
    use std::sync::Arc;

    const THREADS: usize = 6;

    /// Deterministic per-thread statement script. SELECT statements
    /// are the observation points.
    fn script(k: usize) -> Vec<String> {
        let mut rng = Rng::new(0xc0c0 + k as u64);
        let t = format!("T{k}");
        let mut out = vec![
            format!("CREATE TABLE {t} (i INT, X1 FLOAT, X2 FLOAT)"),
            format!("CREATE TABLE B{k} (b0 FLOAT, b1 FLOAT, b2 FLOAT)"),
            format!(
                "INSERT INTO B{k} VALUES ({:.3}, {:.3}, {:.3})",
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(-2.0, 2.0)
            ),
        ];
        let summary_round = rng.range_usize(0, 6);
        let mut next_id = 1;
        for round in 0..8 {
            if round == summary_round {
                out.push(format!("CREATE SUMMARY s{k} ON {t} (X1, X2)"));
            }
            let inserts = rng.range_usize(1, 4);
            for _ in 0..inserts {
                out.push(format!(
                    "INSERT INTO {t} VALUES ({next_id}, {:.3}, {:.3})",
                    rng.range_f64(-50.0, 50.0),
                    rng.range_f64(-50.0, 50.0)
                ));
                next_id += 1;
            }
            match rng.range_usize(0, 3) {
                0 => out.push(format!("SELECT count(*), sum(X1), sum(X2) FROM {t}")),
                1 => out.push(format!("SELECT nlq_list(2, 'triang', X1, X2) FROM {t}")),
                _ => out.push(format!(
                    "SELECT x.i, linearregscore(x.X1, x.X2, b.b0, b.b1, b.b2) \
                     FROM {t} x CROSS JOIN B{k} b"
                )),
            }
        }
        out
    }

    /// Runs a script, returning each SELECT's (columns, rows).
    fn observe(db: &Db, stmts: &[String]) -> Vec<(Vec<String>, Vec<Vec<Value>>)> {
        let mut seen = Vec::new();
        for sql in stmts {
            let rs = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            if sql.starts_with("SELECT") {
                seen.push((rs.columns, rs.rows));
            }
        }
        seen
    }

    let shared = Arc::new(Db::new(4));
    let concurrent: Vec<_> = (0..THREADS)
        .map(|k| {
            let db = Arc::clone(&shared);
            std::thread::spawn(move || observe(&db, &script(k)))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("session thread"))
        .collect();

    // Serial replay on a fresh engine: identical observations.
    let serial_db = Db::new(4);
    for (k, seen) in concurrent.iter().enumerate() {
        let replay = observe(&serial_db, &script(k));
        assert_eq!(seen.len(), replay.len(), "thread {k}");
        for (i, (a, b)) in seen.iter().zip(&replay).enumerate() {
            assert_eq!(a.0, b.0, "thread {k} select {i}: columns");
            assert_eq!(a.1.len(), b.1.len(), "thread {k} select {i}: rows");
            for (ra, rb) in a.1.iter().zip(&b.1) {
                for (va, vb) in ra.iter().zip(rb) {
                    match (va, vb) {
                        // Packed nlq strings and float cells may pick
                        // up reassociation noise across partitioned
                        // scans; everything else must be identical.
                        (Value::Str(sa), Value::Str(sb))
                            if sa.starts_with("NLQ;") && sb.starts_with("NLQ;") =>
                        {
                            let (na, nb) = (unpack_nlq(sa).unwrap(), unpack_nlq(sb).unwrap());
                            assert_eq!(na.n(), nb.n(), "thread {k} select {i}");
                        }
                        (Value::Float(fa), Value::Float(fb)) => assert!(
                            (fa - fb).abs() <= 1e-9 * (1.0 + fa.abs().max(fb.abs())),
                            "thread {k} select {i}: {fa} vs {fb}"
                        ),
                        _ => assert_eq!(va, vb, "thread {k} select {i}"),
                    }
                }
            }
        }
    }
}
