//! End-to-end tests of the `Db` facade: SQL execution, the three
//! `n, L, Q` implementations, grouped and blocked statistics, and the
//! scoring query patterns of §3.5.

use nlq_datagen::{MixtureGenerator, MixtureSpec};
use nlq_engine::{sqlgen, Db, EngineError, NlqMethod, SqlEngine};
use nlq_linalg::Vector;
use nlq_models::{LinearRegression, MatrixShape, Nlq};
use nlq_storage::Value;
use nlq_udf::ParamStyle;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn ddl_insert_select_roundtrip() {
    let db = Db::new(4);
    db.execute("CREATE TABLE t (i INT, v FLOAT, s VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, NULL, 'b'), (3, 3.5, 'c')")
        .unwrap();
    let rs = db
        .execute("SELECT i, v, s FROM t WHERE v IS NOT NULL")
        .unwrap();
    assert_eq!(rs.len(), 2);
    let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 3]);
}

#[test]
fn select_star_expands_columns() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2.0)").unwrap();
    let rs = db.execute("SELECT * FROM t").unwrap();
    assert_eq!(rs.columns, vec!["a", "b"]);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Float(2.0)]);
}

#[test]
fn builtin_aggregates_and_group_by() {
    let db = Db::new(4);
    db.execute("CREATE TABLE t (g INT, v FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1.0), (1, 3.0), (2, 10.0), (2, NULL), (2, 20.0)")
        .unwrap();
    let rs = db
        .execute("SELECT g, count(*), count(v), sum(v), avg(v), min(v), max(v) FROM t GROUP BY g")
        .unwrap();
    assert_eq!(rs.len(), 2);
    // Rows are sorted by the group key.
    assert_eq!(rs.value(0, 0), &Value::Int(1));
    assert_eq!(rs.value(0, 1), &Value::Int(2));
    assert_eq!(rs.value(0, 3), &Value::Float(4.0));
    assert_eq!(rs.value(1, 0), &Value::Int(2));
    assert_eq!(rs.value(1, 1), &Value::Int(3)); // count(*) counts NULL rows
    assert_eq!(rs.value(1, 2), &Value::Int(2)); // count(v) does not
    assert_eq!(rs.value(1, 4), &Value::Float(15.0));
    assert_eq!(rs.value(1, 5), &Value::Float(10.0));
    assert_eq!(rs.value(1, 6), &Value::Float(20.0));
}

#[test]
fn global_aggregate_over_empty_table() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    let rs = db.execute("SELECT count(*), sum(v) FROM t").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(0));
    assert_eq!(rs.value(0, 1), &Value::Null);
}

#[test]
fn aggregate_arithmetic_on_results() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)")
        .unwrap();
    // Variance-style expression combining several aggregates.
    let rs = db
        .execute("SELECT sum(v*v)/count(*) - (sum(v)/count(*)) * (sum(v)/count(*)) FROM t")
        .unwrap();
    assert!(close(rs.f64(0, 0).unwrap(), 2.0 / 3.0));
}

#[test]
fn cross_join_with_aliases_and_where() {
    let db = Db::new(2);
    db.execute("CREATE TABLE x (i INT, v FLOAT)").unwrap();
    db.execute("INSERT INTO x VALUES (1, 10.0), (2, 20.0)")
        .unwrap();
    db.execute("CREATE TABLE c (j INT, w FLOAT)").unwrap();
    db.execute("INSERT INTO c VALUES (1, 0.5), (2, 2.0)")
        .unwrap();
    let rs = db
        .execute("SELECT x.i, x.v * c.w FROM x CROSS JOIN c WHERE c.j = 2")
        .unwrap();
    assert_eq!(rs.len(), 2);
    let mut vals: Vec<f64> = rs.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
    vals.sort_by(f64::total_cmp);
    assert_eq!(vals, vec![20.0, 40.0]);
}

#[test]
fn views_execute_on_access() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (2.0)").unwrap();
    db.execute("CREATE VIEW doubled AS SELECT v * 2 AS v2 FROM t")
        .unwrap();
    let rs = db.execute("SELECT sum(v2) FROM doubled").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Float(6.0));
}

#[test]
fn create_table_as_and_insert_select() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (2.0)").unwrap();
    db.execute("CREATE TABLE t2 AS SELECT v + 1 AS w FROM t")
        .unwrap();
    db.execute("INSERT INTO t2 SELECT v FROM t").unwrap();
    let rs = db.execute("SELECT count(*), sum(w) FROM t2").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(4));
    assert_eq!(rs.value(0, 1), &Value::Float(8.0));
}

#[test]
fn errors_are_descriptive() {
    let db = Db::new(2);
    assert!(matches!(
        db.execute("SELECT 1 FROM missing"),
        Err(EngineError::UnknownTable(_))
    ));
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    assert!(matches!(
        db.execute("CREATE TABLE t (v FLOAT)"),
        Err(EngineError::DuplicateTable(_))
    ));
    assert!(matches!(
        db.execute("SELECT nope FROM t"),
        Err(EngineError::UnknownColumn(_))
    ));
    assert!(matches!(
        db.execute("SELECT frob(v) FROM t"),
        Err(EngineError::UnknownFunction(_))
    ));
    assert!(matches!(
        db.execute("DROP TABLE missing"),
        Err(EngineError::UnknownTable(_))
    ));
}

// ---------------------------------------------------------------------------
// n, L, Q computation: all three implementations agree
// ---------------------------------------------------------------------------

fn sample_data(n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut generator = MixtureGenerator::new(MixtureSpec::paper_defaults(d).with_seed(17));
    generator.generate(n)
}

fn assert_nlq_eq(a: &Nlq, b: &Nlq, check_q_upper: bool) {
    assert_eq!(a.d(), b.d());
    assert!(close(a.n(), b.n()), "n: {} vs {}", a.n(), b.n());
    for i in 0..a.d() {
        assert!(close(a.l()[i], b.l()[i]), "L[{i}]");
        for j in 0..a.d() {
            if check_q_upper || j <= i {
                assert!(
                    close(a.q_raw()[(i, j)], b.q_raw()[(i, j)]),
                    "Q[{i}][{j}]: {} vs {}",
                    a.q_raw()[(i, j)],
                    b.q_raw()[(i, j)]
                );
            }
        }
    }
}

#[test]
fn three_nlq_methods_agree_with_reference() {
    let data = sample_data(500, 6);
    let db = Db::new(8);
    db.load_points("X", &data, false).unwrap();
    let cols: Vec<&str> = ["X1", "X2", "X3", "X4", "X5", "X6"].to_vec();

    let reference = Nlq::from_rows(6, MatrixShape::Triangular, &data);
    for method in [NlqMethod::Sql, NlqMethod::UdfList, NlqMethod::UdfString] {
        let got = db
            .compute_nlq_with(method, "X", &cols, MatrixShape::Triangular)
            .unwrap();
        assert_nlq_eq(&got, &reference, false);
    }
}

#[test]
fn nlq_shapes_all_work_via_sql() {
    let data = sample_data(200, 3);
    let db = Db::new(4);
    db.load_points("X", &data, false).unwrap();
    let cols = ["X1", "X2", "X3"];
    for shape in [
        MatrixShape::Diagonal,
        MatrixShape::Triangular,
        MatrixShape::Full,
    ] {
        let got = db
            .compute_nlq_with(NlqMethod::Sql, "X", &cols, shape)
            .unwrap();
        let reference = Nlq::from_rows(3, shape, &data);
        assert_nlq_eq(&got, &reference, true);
    }
}

#[test]
fn udf_nlq_includes_min_max() {
    let data = vec![vec![1.0, -5.0], vec![3.0, 7.0], vec![2.0, 0.0]];
    let db = Db::new(2);
    db.load_points("X", &data, false).unwrap();
    let nlq = db
        .compute_nlq("X", &["X1", "X2"], MatrixShape::Diagonal)
        .unwrap();
    assert_eq!(nlq.min(), &[1.0, -5.0]);
    assert_eq!(nlq.max(), &[3.0, 7.0]);
}

#[test]
fn grouped_nlq_partitions_by_modulo() {
    // The paper's Table 5 workload: partition X on k groups with mod.
    let data = sample_data(300, 2);
    let db = Db::new(4);
    db.load_points("X", &data, false).unwrap();
    let groups = db
        .compute_nlq_grouped(
            "mod_view",
            &["X1", "X2"],
            "g",
            MatrixShape::Diagonal,
            ParamStyle::List,
        )
        .map(|_| ())
        .err(); // view does not exist yet
    assert!(groups.is_some());

    db.execute("CREATE VIEW mod_view AS SELECT i % 4 AS g, X1, X2 FROM X")
        .unwrap();
    let groups = db
        .compute_nlq_grouped(
            "mod_view",
            &["X1", "X2"],
            "g",
            MatrixShape::Diagonal,
            ParamStyle::List,
        )
        .unwrap();
    assert_eq!(groups.len(), 4);
    let total: f64 = groups.iter().map(|(_, s)| s.n()).sum();
    assert_eq!(total, 300.0);

    // Same via the string style.
    let groups_str = db
        .compute_nlq_grouped(
            "mod_view",
            &["X1", "X2"],
            "g",
            MatrixShape::Diagonal,
            ParamStyle::String,
        )
        .unwrap();
    for ((gv_a, sa), (gv_b, sb)) in groups.iter().zip(&groups_str) {
        assert_eq!(gv_a, gv_b);
        assert!(close(sa.n(), sb.n()));
        assert!(close(sa.l()[0], sb.l()[0]));
    }
}

#[test]
fn blocked_nlq_matches_direct() {
    let d = 10;
    let data = sample_data(150, d);
    let db = Db::new(4);
    db.load_points("X", &data, false).unwrap();
    let cols: Vec<String> = sqlgen::x_cols(d);
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let blocked = db.compute_nlq_blocked("X", &col_refs, 4).unwrap();
    let reference = Nlq::from_rows(d, MatrixShape::Full, &data);
    assert_nlq_eq(&blocked, &reference, true);
}

// ---------------------------------------------------------------------------
// Scoring (§3.5)
// ---------------------------------------------------------------------------

#[test]
fn regression_scoring_udf_and_sql_agree() {
    // y = 2 + 3 x1 - x2 exactly.
    let rows: Vec<Vec<f64>> = (0..50)
        .map(|i| {
            let x1 = i as f64;
            let x2 = (i % 7) as f64;
            vec![x1, x2, 2.0 + 3.0 * x1 - x2]
        })
        .collect();
    let db = Db::new(4);
    db.load_points("X", &rows, true).unwrap();

    let nlq = db
        .compute_nlq("X", &["X1", "X2", "Y"], MatrixShape::Triangular)
        .unwrap();
    let model = LinearRegression::fit(&nlq).unwrap();
    db.register_beta("BETA", model.intercept(), model.coefficients())
        .unwrap();

    let cols = sqlgen::x_cols(2);
    let udf_rs = db
        .execute(&sqlgen::score_regression_udf("X", &cols, "BETA"))
        .unwrap();
    let sql_rs = db
        .execute(&sqlgen::score_regression_sql(
            "X",
            &cols,
            model.intercept(),
            model.coefficients(),
        ))
        .unwrap();
    assert_eq!(udf_rs.len(), 50);
    assert_eq!(sql_rs.len(), 50);

    let mut udf_scores: Vec<(i64, f64)> = udf_rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap()))
        .collect();
    udf_scores.sort_by_key(|&(i, _)| i);
    let mut sql_scores: Vec<(i64, f64)> = sql_rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap()))
        .collect();
    sql_scores.sort_by_key(|&(i, _)| i);

    for ((ia, ya), ((ib, yb), truth)) in udf_scores.iter().zip(sql_scores.iter().zip(&rows)) {
        assert_eq!(ia, ib);
        assert!(close(*ya, *yb), "udf {ya} vs sql {yb}");
        assert!(close(*ya, truth[2]), "prediction {ya} vs true {}", truth[2]);
    }
}

#[test]
fn pca_scoring_udf_and_sql_agree() {
    use nlq_models::{Pca, PcaInput};
    let data = sample_data(200, 3);
    let db = Db::new(4);
    db.load_points("X", &data, false).unwrap();
    let cols = sqlgen::x_cols(3);
    let nlq = db
        .compute_nlq("X", &["X1", "X2", "X3"], MatrixShape::Triangular)
        .unwrap();
    let pca = Pca::fit(&nlq, 2, PcaInput::Covariance).unwrap();
    db.register_lambda("LAMBDA", pca.lambda()).unwrap();
    db.register_mu("MU", pca.mu()).unwrap();

    let udf_rs = db
        .execute(&sqlgen::score_pca_udf("X", &cols, 2, "LAMBDA", "MU"))
        .unwrap();
    let sql_rs = db
        .execute(&sqlgen::score_pca_sql("X", &cols, pca.lambda(), pca.mu()))
        .unwrap();
    assert_eq!(udf_rs.len(), 200);
    assert_eq!(sql_rs.len(), 200);

    let sort = |rs: &nlq_engine::ResultSet| {
        let mut v: Vec<(i64, f64, f64)> = rs
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap(),
                    r[1].as_f64().unwrap(),
                    r[2].as_f64().unwrap(),
                )
            })
            .collect();
        v.sort_by_key(|&(i, ..)| i);
        v
    };
    for ((i, a1, a2), (j, b1, b2)) in sort(&udf_rs).into_iter().zip(sort(&sql_rs)) {
        assert_eq!(i, j);
        assert!(close(a1, b1));
        assert!(close(a2, b2));
        // Check against the library's own scoring for row i.
        let expect = pca.score(&data[(i - 1) as usize]);
        assert!(close(a1, expect[0]));
        assert!(close(a2, expect[1]));
    }
}

#[test]
fn cluster_scoring_udf_and_sql_agree() {
    use nlq_models::{KMeans, KMeansConfig};
    let data = sample_data(300, 2);
    let db = Db::new(4);
    db.load_points("X", &data, false).unwrap();
    let cols = sqlgen::x_cols(2);
    let km = KMeans::fit(&data, &KMeansConfig::new(4)).unwrap();
    db.register_centroids("C", km.centroids()).unwrap();

    // UDF path: one statement.
    let udf_rs = db
        .execute(&sqlgen::score_cluster_udf("X", &cols, 4, "C"))
        .unwrap();
    // SQL path: two statements (distances, then argmin), as the paper
    // notes SQL needs two scans.
    db.execute(&sqlgen::score_cluster_sql_distances(
        "DIST",
        "X",
        &cols,
        km.centroids(),
    ))
    .unwrap();
    let sql_rs = db
        .execute(&sqlgen::score_cluster_sql_argmin("DIST", 4))
        .unwrap();

    let sort = |rs: &nlq_engine::ResultSet| {
        let mut v: Vec<(i64, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        v.sort_by_key(|&(i, _)| i);
        v
    };
    for ((i, ja), (ib, jb)) in sort(&udf_rs).into_iter().zip(sort(&sql_rs)) {
        assert_eq!(i, ib);
        assert_eq!(ja, jb, "row {i}: UDF cluster {ja} vs SQL cluster {jb}");
        // 1-based J matches the library's 0-based assignment.
        let expect = km.assign(&data[(i - 1) as usize]) as i64 + 1;
        assert_eq!(ja, expect);
    }
}

#[test]
fn case_based_binary_flags() {
    // §3.6: "binary flags are generally derived with the SQL CASE
    // statement ... to convert categorical variables into binary
    // dimensions".
    let db = Db::new(2);
    db.execute("CREATE TABLE cust (i INT, state VARCHAR, spend FLOAT)")
        .unwrap();
    db.execute("INSERT INTO cust VALUES (1, 'TX', 10.0), (2, 'CA', 20.0), (3, 'TX', 30.0)")
        .unwrap();
    let rs = db
        .execute("SELECT sum(CASE WHEN state = 'TX' THEN 1 ELSE 0 END), sum(spend) FROM cust")
        .unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(2));
    assert_eq!(rs.value(0, 1), &Value::Float(60.0));
}

#[test]
fn save_and_load_table_roundtrip() {
    let db = Db::new(3);
    let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, (i % 9) as f64]).collect();
    db.load_points("X", &rows, false).unwrap();
    let path = std::env::temp_dir().join(format!("nlq_db_save_{}", std::process::id()));
    db.table("X").unwrap().save(&path).unwrap();

    let db2 = Db::new(3);
    let disk = nlq_storage::DiskTable::open(&path).unwrap();
    db2.register_table("X", disk.to_table().unwrap()).unwrap();
    let a = db
        .compute_nlq("X", &["X1", "X2"], MatrixShape::Triangular)
        .unwrap();
    let b = db2
        .compute_nlq("X", &["X1", "X2"], MatrixShape::Triangular)
        .unwrap();
    assert_eq!(a.n(), b.n());
    assert_eq!(a.l(), b.l());
    assert_eq!(a.q_raw(), b.q_raw());
    std::fs::remove_file(&path).ok();
}

#[test]
fn register_model_tables_have_single_io_layout() {
    let db = Db::new(2);
    db.register_beta("BETA", 1.0, &Vector::from_vec(vec![2.0, 3.0]))
        .unwrap();
    let rs = db.execute("SELECT b0, b1, b2 FROM BETA").unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(
        rs.rows[0],
        vec![Value::Float(1.0), Value::Float(2.0), Value::Float(3.0)]
    );

    db.register_mu("MU", &Vector::from_vec(vec![5.0, 6.0]))
        .unwrap();
    let rs = db.execute("SELECT X1, X2 FROM MU").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Float(5.0), Value::Float(6.0)]);

    db.register_centroids(
        "C",
        &[
            Vector::from_vec(vec![0.0, 0.0]),
            Vector::from_vec(vec![1.0, 2.0]),
        ],
    )
    .unwrap();
    let rs = db.execute("SELECT j, X1, X2 FROM C WHERE j = 2").unwrap();
    assert_eq!(
        rs.rows[0],
        vec![Value::Int(2), Value::Float(1.0), Value::Float(2.0)]
    );
}

#[test]
fn plan_cache_hits_and_ddl_invalidation() {
    let db = Db::new(1);
    db.execute("CREATE TABLE T (a FLOAT)").unwrap();
    db.execute("INSERT INTO T VALUES (1.0), (2.0)").unwrap();

    let plan = |db: &Db| -> Vec<String> {
        let rs = db.execute("EXPLAIN SELECT sum(a) FROM T").unwrap();
        rs.rows.iter().map(|r| r[0].to_string()).collect()
    };
    let text = plan(&db);
    assert!(
        text.iter().any(|l| l.contains("plan cache: miss")),
        "{text:?}"
    );
    let text = plan(&db);
    assert!(
        text.iter().any(|l| l.contains("plan cache: hit")),
        "{text:?}"
    );

    let stats = db.engine_stats().plan_cache;
    assert_eq!(stats.hits, 1);
    assert!(stats.entries >= 1);

    // A cached SELECT hits too, with parse skipped entirely.
    db.execute("SELECT sum(a) FROM T").unwrap();
    let rs = db.execute("SELECT sum(a) FROM T").unwrap();
    assert_eq!(rs.stats.parse_nanos, 0);

    // DDL clears the cache.
    db.execute("CREATE TABLE U (b FLOAT)").unwrap();
    assert_eq!(db.engine_stats().plan_cache.entries, 0);
}

#[test]
fn explain_analyze_shows_phases_and_cache_hit() {
    let db = Db::new(2);
    db.execute("CREATE TABLE T (a FLOAT)").unwrap();
    db.execute("INSERT INTO T VALUES (1.0), (2.0), (3.0)")
        .unwrap();

    let sql = "EXPLAIN ANALYZE SELECT sum(a) FROM T";
    let first = db.execute(sql).unwrap();
    let text: Vec<String> = first.rows.iter().map(|r| r[0].to_string()).collect();
    for want in ["phase parse:", "phase scan:"] {
        assert!(text.iter().any(|l| l.starts_with(want)), "{want}: {text:?}");
    }
    assert!(
        text.iter().any(|l| l.contains("plan cache: miss")),
        "{text:?}"
    );

    // Second run: plan-cache hit eliminates the parse phase.
    let second = db.execute(sql).unwrap();
    let text: Vec<String> = second.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        !text.iter().any(|l| l.starts_with("phase parse:")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("plan cache: hit")),
        "{text:?}"
    );
    assert_eq!(second.stats.parse_nanos, 0);
}

#[test]
fn dml_and_views_over_partitions() {
    let db = Db::new(3);
    db.execute("CREATE TABLE T (id INT, a FLOAT)").unwrap();
    let values: Vec<String> = (1..=30).map(|i| format!("({i}, {i}.5)")).collect();
    db.execute(&format!("INSERT INTO T VALUES {}", values.join(", ")))
        .unwrap();
    assert_eq!(db.table("T").unwrap().partition_count(), 3);

    db.execute("CREATE VIEW V AS SELECT a FROM T WHERE a > 10.5")
        .unwrap();
    let rs = db.execute("SELECT count(*) FROM V").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(20));

    db.execute("UPDATE T SET a = 0.0 WHERE id > 20").unwrap();
    db.execute("DELETE FROM T WHERE a = 0.0").unwrap();
    let rs = db.execute("SELECT count(*), max(id) FROM T").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(20));
    assert_eq!(rs.value(0, 1), &Value::Int(20));

    // CTAS materializes derived rows into a new partitioned table.
    db.execute("CREATE TABLE T2 AS SELECT id, a FROM T WHERE id <= 5")
        .unwrap();
    let rs = db.execute("SELECT count(*) FROM T2").unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(5));
}

/// Records whether it ran on the thread that created it.
struct OnThread(std::thread::ThreadId);

impl nlq_udf::ScalarUdf for OnThread {
    fn name(&self) -> &str {
        "on_caller_thread"
    }

    fn eval(&self, _args: &[Value]) -> nlq_udf::Result<Value> {
        Ok(Value::Int((std::thread::current().id() == self.0) as i64))
    }
}

/// A statement runs on its caller: an INSERT's literal rows are
/// evaluated on the caller's thread, with no hop to another thread.
#[test]
fn statements_run_on_the_callers_thread() {
    let db = Db::new(1);
    let caller = std::thread::current().id();
    db.with_registry_mut(|r| r.register_scalar(std::sync::Arc::new(OnThread(caller))));
    db.execute("CREATE TABLE T (i INT, here INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1, on_caller_thread()), (2, on_caller_thread())")
        .unwrap();
    let rs = db.execute("SELECT min(here), max(here) FROM T").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(1)]);
}
