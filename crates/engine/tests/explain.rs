//! Tests for EXPLAIN: the plan text must reflect the executor's
//! actual decisions (pushdown, join sizing, fast paths, aggregation).

use nlq_engine::{sqlgen, Db, ExecOptions};
use nlq_models::MatrixShape;

fn plan_text(db: &Db, sql: &str) -> String {
    plan_text_with(db, sql, &ExecOptions::default())
}

fn plan_text_with(db: &Db, sql: &str, opts: &ExecOptions) -> String {
    let rs = db.execute_with(sql, opts).unwrap();
    assert_eq!(rs.columns, vec!["plan"]);
    rs.rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Statement options that keep every scan on the row path.
fn row_scan() -> ExecOptions {
    ExecOptions {
        block_scan: Some(false),
        ..ExecOptions::default()
    }
}

fn scoring_db() -> Db {
    let db = Db::new(4);
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 7) as f64]).collect();
    db.load_points("X", &rows, false).unwrap();
    db
}

#[test]
fn explain_simple_scan() {
    let db = scoring_db();
    let plan = plan_text(&db, "EXPLAIN SELECT X1, X2 FROM X WHERE X1 > 10");
    assert!(
        plan.contains("scan X (100 rows, 4 partitions, 4 workers)"),
        "{plan}"
    );
    assert!(plan.contains("filter: 1 residual predicate(s)"), "{plan}");
    assert!(plan.contains("project: 2 expression(s)"), "{plan}");
}

#[test]
fn explain_shows_pushdown_collapsing_the_join() {
    let db = scoring_db();
    // 16-centroid scoring: 16 aliases of C, each pinned by WHERE.
    let centroids: Vec<nlq_linalg::Vector> = (0..16)
        .map(|j| nlq_linalg::Vector::from_vec(vec![j as f64, 0.0]))
        .collect();
    db.register_centroids("C", &centroids).unwrap();
    let names = sqlgen::x_cols(2);
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::score_cluster_udf("X", &names, 16, "C")
    );
    let plan = plan_text(&db, &sql);
    // Without pushdown this product would be 16^16; with it, exactly 1.
    assert!(
        plan.contains("-> 1 combination(s) after pushing 16 predicate(s)"),
        "{plan}"
    );
}

#[test]
fn explain_aggregate_counts_fast_paths_and_udfs() {
    let db = scoring_db();
    let names = sqlgen::x_cols(2);
    // The paper's long SQL query: 1 + d + d(d+1)/2 = 6 sum() terms at
    // d = 2 (plus 1 null placeholder) — all fast-path candidates.
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::nlq_sql_query("X", &names, MatrixShape::Triangular)
    );
    let plan = plan_text(&db, &sql);
    assert!(
        plan.contains("aggregate: 6 call(s) (6 fast-path candidate(s), 0 UDF state(s))"),
        "{plan}"
    );

    // The UDF form: exactly one aggregate call, one UDF state.
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::nlq_udf_query(
            "X",
            &names,
            MatrixShape::Triangular,
            nlq_udf::ParamStyle::List
        )
    );
    let plan = plan_text(&db, &sql);
    assert!(
        plan.contains("aggregate: 1 call(s) (0 fast-path candidate(s), 1 UDF state(s))"),
        "{plan}"
    );
}

#[test]
fn explain_group_order_limit() {
    let db = scoring_db();
    let plan = plan_text(
        &db,
        "EXPLAIN SELECT X2, count(*) FROM X GROUP BY X2 HAVING count(*) > 5 \
         ORDER BY count(*) DESC LIMIT 3",
    );
    assert!(plan.contains("group by 1 key(s)"), "{plan}");
    assert!(plan.contains("having: post-aggregation filter"), "{plan}");
    assert!(plan.contains("order by: 1 key(s)"), "{plan}");
    assert!(plan.contains("limit: 3"), "{plan}");
}

#[test]
fn explain_reports_scan_mode() {
    let db = scoring_db();
    let names = sqlgen::x_cols(2);

    // All-numeric aggregate pipeline, no predicates → block mode,
    // over the 2 projected float columns.
    let sql = format!(
        "EXPLAIN {}",
        sqlgen::nlq_udf_query(
            "X",
            &names,
            MatrixShape::Triangular,
            nlq_udf::ParamStyle::List
        )
    );
    let plan = plan_text(&db, &sql);
    assert!(
        plan.contains("scan mode: block (1024-row column blocks over 2 float column(s))"),
        "{plan}"
    );

    // A compilable residual predicate stays on the block path as a
    // selection bitmap.
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM X WHERE X2 > 1");
    assert!(
        plan.contains("scan mode: block") && plan.contains("1 predicate(s) as selection bitmap"),
        "{plan}"
    );

    // A predicate outside the compilable subset (arithmetic) forces
    // the row path.
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1) FROM X WHERE X1 + X2 > 1");
    assert!(
        plan.contains("scan mode: row-at-a-time (1 residual predicate(s) not block-compilable)"),
        "{plan}"
    );

    // GROUP BY forces the row path.
    let plan = plan_text(&db, "EXPLAIN SELECT X2, sum(X1) FROM X GROUP BY X2");
    assert!(plan.contains("scan mode: row-at-a-time"), "{plan}");

    // So does disabling the block path on the connection.
    let plan = plan_text_with(&db, "EXPLAIN SELECT sum(X1) FROM X", &row_scan());
    assert!(plan.contains("scan mode: row-at-a-time"), "{plan}");
}

#[test]
fn result_sets_carry_exec_stats() {
    let db = scoring_db();
    let rs = db.execute("SELECT sum(X1), min(X2) FROM X").unwrap();
    assert!(rs.stats.block_path);
    assert_eq!(rs.stats.rows_scanned, 100);
    // 100 rows over 4 partitions: one (partial) block each.
    assert_eq!(rs.stats.blocks_scanned, 4);

    let rs = db
        .execute_with("SELECT sum(X1), min(X2) FROM X", &row_scan())
        .unwrap();
    assert!(!rs.stats.block_path);
    assert_eq!(rs.stats.rows_scanned, 100);
    assert_eq!(rs.stats.blocks_scanned, 0);
}

#[test]
fn explain_analyze_executes_and_reports_phases() {
    let db = scoring_db();
    let plan = plan_text(&db, "EXPLAIN ANALYZE SELECT sum(X1), min(X2) FROM X");
    assert!(plan.starts_with("total: "), "{plan}");
    assert!(plan.contains("phase parse: "), "{plan}");
    assert!(plan.contains("phase plan: "), "{plan}");
    assert!(plan.contains("phase scan: "), "{plan}");
    assert!(plan.contains("rows=100"), "{plan}");
    // The trailing remainder phase makes the listed times sum exactly
    // to the reported total.
    assert!(plan.contains("phase other: "), "{plan}");
    assert!(plan.contains("scan mode: block"), "{plan}");
    assert!(plan.contains("rows scanned: 100"), "{plan}");

    // EXPLAIN ANALYZE really executes: stats carry the scan counters.
    let rs = db.execute("EXPLAIN ANALYZE SELECT sum(X1) FROM X").unwrap();
    assert_eq!(rs.stats.rows_scanned, 100);
    assert!(rs.stats.block_path);
}

#[test]
fn explain_analyze_reports_summary_answers() {
    let db = scoring_db();
    db.execute("CREATE SUMMARY sx ON X (X1, X2)").unwrap();
    let plan = plan_text(&db, "EXPLAIN ANALYZE SELECT sum(X1) FROM X");
    assert!(plan.contains("phase summary-lookup: "), "{plan}");
    assert!(
        plan.contains("scan mode: summary (answered from materialized Γ, no scan)"),
        "{plan}"
    );
    assert!(plan.contains("rows scanned: 0"), "{plan}");
    assert!(plan.contains("summary: 1 hit(s)"), "{plan}");
}

#[test]
fn trace_option_records_engine_phase_spans() {
    use nlq_engine::ExecOptions;
    use nlq_obs::{Phase, Trace};

    let db = scoring_db();
    let trace = Trace::new();
    let opts = ExecOptions {
        trace: Some(trace.clone()),
        ..ExecOptions::default()
    };
    db.execute_with("SELECT sum(X1) FROM X", &opts).unwrap();
    let spans = trace.spans();
    let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
    assert!(phases.contains(&Phase::Parse), "{phases:?}");
    assert!(phases.contains(&Phase::Plan), "{phases:?}");
    assert!(phases.contains(&Phase::Scan), "{phases:?}");
    let scan = spans.iter().find(|s| s.phase == Phase::Scan).unwrap();
    assert_eq!(scan.rows, 100);
    // Spans are laid out sequentially from the statement start.
    for pair in spans.windows(2) {
        assert!(pair[1].start_nanos >= pair[0].start_nanos + pair[0].dur_nanos);
    }
}

/// A statement that fails to parse charges the CPU its parse burned:
/// 50k terms and then a syntax error at the very end.
#[test]
fn a_parse_error_charges_its_cpu() {
    use nlq_obs::{thread_cpu_nanos, Trace};

    if thread_cpu_nanos() == 0 {
        return; // no per-thread CPU clock on this platform
    }
    let db = Db::new(1);
    let terms: Vec<String> = (0..50_000).map(|k| format!("{k} + 1.5")).collect();
    let sql = format!("SELECT {} FROM", terms.join(", "));
    let trace = Trace::new();
    let opts = ExecOptions {
        trace: Some(trace.clone()),
        ..ExecOptions::default()
    };
    let started = thread_cpu_nanos();
    assert!(db.execute_with(&sql, &opts).is_err());
    let spent = thread_cpu_nanos() - started;
    let charged = trace.cpu_nanos();
    assert!(
        charged * 2 >= spent && charged > 0,
        "the parse burned {spent} ns of CPU, the trace charged {charged} ns"
    );
}

#[test]
fn explain_does_not_execute_the_scan() {
    // EXPLAIN of a query with a failing UDF argument must still work:
    // the scan never runs, so per-row errors never happen.
    let db = scoring_db();
    let plan = plan_text(&db, "EXPLAIN SELECT sum(X1 / (X2 - X2)) FROM X");
    assert!(plan.contains("aggregate: 1 call(s)"), "{plan}");
}

#[test]
fn explain_counts_aggregates_that_only_order_by_calls() {
    let db = scoring_db();
    let sql = "SELECT i % 2 FROM X GROUP BY i % 2 ORDER BY sum(X1)";
    let plan = plan_text(&db, &format!("EXPLAIN {sql}"));
    assert!(plan.contains("aggregate: 1 call(s)"), "{plan}");
    // Row `i` holds X1 = i - 1, so odd ids sum to less (2450 < 2500)
    // and ascending order puts them first.
    let rs = db.execute(sql).unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.value(0, 0).as_i64(), Some(1));
}

/// The word after `scan mode: ` — `summary`, `block` or
/// `row-at-a-time` — in EXPLAIN or EXPLAIN ANALYZE output.
fn scan_mode(plan: &str) -> String {
    let line = plan
        .lines()
        .find_map(|l| l.strip_prefix("scan mode: "))
        .unwrap_or_else(|| panic!("no scan mode in {plan}"));
    line.split_whitespace().next().unwrap().to_owned()
}

/// `X(i, X1, X2)` with 100 points, four centroids `C`, and three
/// 30-row tables `(a, b)` with a summary each: on `F` it is fresh, on
/// `G` stale, and on `N` stale with the rows whose `b` is NULL skipped
/// (every third row, so every partition holds some at four workers).
fn agreement_db(workers: usize) -> Db {
    let db = Db::new(workers);
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 7) as f64]).collect();
    db.load_points("X", &rows, false).unwrap();
    let centroids: Vec<nlq_linalg::Vector> = (0..4)
        .map(|j| nlq_linalg::Vector::from_vec(vec![j as f64 * 25.0, 3.0]))
        .collect();
    db.register_centroids("C", &centroids).unwrap();
    for t in ["F", "G", "N"] {
        db.execute(&format!("CREATE TABLE {t} (a FLOAT, b FLOAT)"))
            .unwrap();
        let values: Vec<String> = (0..30)
            .map(|k| match k % 3 {
                0 if t == "N" => format!("({k}.5, NULL)"),
                _ => format!("({k}.5, {k}.25)"),
            })
            .collect();
        db.execute(&format!("INSERT INTO {t} VALUES {}", values.join(", ")))
            .unwrap();
        db.execute(&format!("CREATE SUMMARY s{t} ON {t} (a, b)"))
            .unwrap();
    }
    // An UPDATE leaves the table's summaries stale.
    for t in ["G", "N"] {
        db.execute(&format!("UPDATE {t} SET a = a + 1.0")).unwrap();
    }
    db
}

#[test]
fn explain_agrees_with_execution() {
    let names = sqlgen::x_cols(2);
    let list = sqlgen::nlq_udf_query(
        "X",
        &names,
        MatrixShape::Triangular,
        nlq_udf::ParamStyle::List,
    );
    let long = sqlgen::nlq_sql_query("X", &names, MatrixShape::Triangular);
    // (statement, whether it fails)
    let statements = [
        (list.clone(), false),
        (format!("{list} WHERE X2 > 1"), false),
        (long.clone(), false),
        (format!("{long} WHERE X2 > 1"), false),
        ("SELECT X2, sum(X1) FROM X GROUP BY X2".to_owned(), false),
        (sqlgen::score_cluster_udf("X", &names, 4, "C"), false),
        (
            "SELECT i, X1 FROM X ORDER BY X1 DESC LIMIT 5".to_owned(),
            false,
        ),
        ("SELECT sum(a), count(*) FROM F".to_owned(), false),
        ("SELECT sum(a) FROM G".to_owned(), false),
        ("SELECT sum(a) FROM N".to_owned(), false),
        ("SELECT X1 FROM X ORDER BY 5".to_owned(), true),
        ("SELECT X1 FROM X HAVING X1 > 1.0".to_owned(), true),
    ];
    for workers in [1, 4] {
        // EXPLAIN before EXPLAIN ANALYZE: executing rebuilds the stale
        // summaries.
        let db = agreement_db(workers);
        for (sql, fails) in &statements {
            let ctx = format!("{workers} worker(s): {sql}");
            let explain = db.execute(&format!("EXPLAIN {sql}"));
            let analyze = db.execute(&format!("EXPLAIN ANALYZE {sql}"));
            assert_eq!(analyze.is_err(), *fails, "{ctx}: {analyze:?}");
            let (explain, analyze) = match (explain, analyze) {
                (Err(_), Err(_)) => continue,
                (Ok(e), Ok(a)) => (e, a),
                (e, a) => panic!("{ctx}: EXPLAIN gave {e:?}, execution {a:?}"),
            };
            let text = |rs: nlq_engine::ResultSet| {
                rs.rows
                    .iter()
                    .map(|r| r[0].to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            let (explain, analyze) = (text(explain), text(analyze));
            assert_eq!(
                scan_mode(&explain),
                scan_mode(&analyze),
                "{ctx}\n--- EXPLAIN\n{explain}\n--- EXPLAIN ANALYZE\n{analyze}"
            );
        }
    }
}
