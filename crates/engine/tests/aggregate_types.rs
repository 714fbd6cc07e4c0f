//! What an aggregate answers, and in which type, on every path.
//!
//! * `sum` over INT arguments is exact: it folds in an `i128` lane,
//!   answers the exact Int up to the i64 edge, and errors one past it
//!   (never rounds through `f64`, never saturates), also when
//!   partition partials pass the edge on the way.
//! * An aggregate whose argument is a FLOAT column answers FLOAT on
//!   every path, even when the column holds Int-typed values;
//!   expression arguments answer by value.
//! * Two Ints compare exactly, also beyond 2^53 where `f64` rounds,
//!   and so does an Int against a Float: `min` / `max`, ORDER BY and
//!   WHERE agree on every path.

use nlq_engine::{Db, EngineError, ExecOptions, ResultSet};
use nlq_storage::Value;

const MAX: i64 = i64::MAX;

/// Loads `values` into `t (g INT, v INT)` in one INSERT batch, all in
/// group 1, plus one row `(2, 5)`, over `workers` partitions.
fn int_db(workers: usize, values: &[i64]) -> Db {
    let db = Db::new(workers);
    db.execute("CREATE TABLE t (g INT, v INT)").unwrap();
    let mut rows: Vec<String> = values.iter().map(|v| format!("(1, {v})")).collect();
    rows.push("(2, 5)".into());
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db
}

/// `sum(v)` over the group-1 rows, global and under GROUP BY, at
/// 1, 2 and 4 partitions; each must agree with `want`.
fn check_sum(values: &[i64], want: std::result::Result<i64, ()>) {
    for workers in [1, 2, 4] {
        let db = int_db(workers, values);
        let global = db.execute("SELECT sum(v) FROM t WHERE g = 1");
        let grouped = db.execute("SELECT g, sum(v) FROM t GROUP BY g ORDER BY g");
        let ctx = format!("{workers} partition(s), {values:?}");
        match want {
            Ok(sum) => {
                assert_eq!(global.unwrap().value(0, 0), &Value::Int(sum), "{ctx}");
                let grouped = grouped.unwrap();
                assert_eq!(grouped.value(0, 1), &Value::Int(sum), "{ctx}");
                assert_eq!(grouped.value(1, 1), &Value::Int(5), "{ctx}");
            }
            Err(()) => {
                for err in [global.unwrap_err(), grouped.unwrap_err()] {
                    assert!(matches!(err, EngineError::Type(_)), "{ctx}: {err:?}");
                    assert!(err.to_string().contains("sum"), "{ctx}: {err}");
                }
            }
        }
    }
}

#[test]
fn int_sum_is_exact_up_to_the_i64_edge() {
    // 2^53 + 1 is the first integer an f64 cannot hold.
    check_sum(&[9_007_199_254_740_993, 0], Ok(9_007_199_254_740_993));
    check_sum(&[MAX - 10, 7], Ok(MAX - 3));
    check_sum(&[MAX - 10, 7, 3], Ok(MAX));
    check_sum(&[-MAX, -1], Ok(i64::MIN));
}

#[test]
fn int_sum_one_past_the_edge_is_an_error() {
    check_sum(&[MAX, 1], Err(()));
    check_sum(&[-MAX, -2], Err(()));
}

#[test]
fn int_sum_partials_may_pass_the_edge() {
    // One batch of eight rows goes round-robin over four partitions, so
    // rows k and k + 4 share a partition: one partition's partial is
    // 2·MAX and another's is about −2·MAX. The exact total is back in range.
    check_sum(
        &[MAX, -MAX, 1, 2, MAX, -(MAX - 10), 3, 1],
        Ok(10 + 1 + 2 + 3 + 1),
    );
}

/// A database whose statements run with the block scan on or off.
struct OnPath {
    db: Db,
    opts: ExecOptions,
}

impl OnPath {
    fn new(db: Db, block_scan: bool) -> OnPath {
        let opts = ExecOptions {
            block_scan: Some(block_scan),
            ..ExecOptions::default()
        };
        OnPath { db, opts }
    }

    fn execute(&self, sql: &str) -> nlq_engine::Result<ResultSet> {
        self.db.execute_with(sql, &self.opts)
    }
}

/// Runs `check` on an [`int_db`] of `values` over 1, 2 and 4
/// partitions with the block scan on and off.
fn on_every_path(values: &[i64], check: impl Fn(&OnPath, &str)) {
    for workers in [1, 2, 4] {
        for block in [true, false] {
            let db = OnPath::new(int_db(workers, values), block);
            check(&db, &format!("{workers} partition(s), block scan {block}"));
        }
    }
}

#[test]
fn ints_beyond_2_pow_53_compare_exactly() {
    // 2^60 + k: f64 spacing there is 256, so every value rounds to 2^60.
    const BASE: i64 = 1 << 60;
    let values: Vec<i64> = (0..40).map(|k| BASE + k).collect();
    on_every_path(&values, |db, ctx| {
        let rs = db.execute("SELECT min(v), max(v) FROM t").unwrap();
        assert_eq!(row(&rs), [Value::Int(5), Value::Int(BASE + 39)], "{ctx}");
        let rs = db
            .execute("SELECT g, min(v), max(v) FROM t GROUP BY g ORDER BY g")
            .unwrap();
        assert_eq!(
            rs.rows[0],
            [Value::Int(1), Value::Int(BASE), Value::Int(BASE + 39)],
            "{ctx}"
        );
        let rs = db
            .execute("SELECT v FROM t WHERE g = 1 ORDER BY v DESC LIMIT 3")
            .unwrap();
        let top: Vec<Value> = (37..40).rev().map(|k| Value::Int(BASE + k)).collect();
        assert_eq!(rs.rows.concat(), top, "{ctx}");
        let hit = BASE + 17;
        let rs = db
            .execute(&format!("SELECT g, v FROM t WHERE v = {hit}"))
            .unwrap();
        assert_eq!(rs.rows, [[Value::Int(1), Value::Int(hit)]], "{ctx}");
        let rs = db
            .execute(&format!("SELECT g FROM t WHERE v = {hit}"))
            .unwrap();
        assert_eq!(rs.rows, [[Value::Int(1)]], "{ctx}");
        let rs = db
            .execute(&format!("SELECT count(*) FROM t WHERE v = {hit}"))
            .unwrap();
        assert_eq!(row(&rs), [Value::Int(1)], "{ctx}");
        // Against a FLOAT, too, an Int compares by its exact value, not
        // by the double it rounds to; floats beyond ±2^63 order past
        // every Int.
        let count = |pred: &str| {
            let rs = db
                .execute(&format!("SELECT count(*) FROM t WHERE {pred}"))
                .unwrap();
            rs.value(0, 0).as_i64().unwrap()
        };
        let base = BASE as f64;
        assert_eq!(count(&format!("v = {base:.1}")), 1, "{ctx}");
        assert_eq!(count(&format!("v > {base:.1}")), 39, "{ctx}");
        assert_eq!(count("v > -1e19 AND v < 1e19"), 41, "{ctx}");
        let rs = db
            .execute(&format!(
                "SELECT v > {base:.1} FROM t WHERE g = 1 ORDER BY v LIMIT 2"
            ))
            .unwrap();
        assert_eq!(rs.rows.concat(), [Value::Int(0), Value::Int(1)], "{ctx}");
    });
}

#[test]
fn an_int_literal_beyond_2_pow_53_compares_exactly() {
    // Every stored value widens exactly, but 2^53 + 1 would round to
    // 2^53 on the way into a block comparison.
    const EDGE: i64 = 1 << 53;
    on_every_path(&[EDGE, EDGE - 1], |db, ctx| {
        let rs = db
            .execute(&format!("SELECT count(*) FROM t WHERE v = {}", EDGE + 1))
            .unwrap();
        assert_eq!(row(&rs), [Value::Int(0)], "{ctx}");
        let rs = db
            .execute(&format!("SELECT g FROM t WHERE v < {}", EDGE + 1))
            .unwrap();
        assert_eq!(rs.rows.len(), 3, "{ctx}");
    });
}

fn row(rs: &ResultSet) -> Vec<Value> {
    rs.rows[0].clone()
}

#[test]
fn float_column_aggregates_answer_float_on_every_path() {
    for workers in [1, 2, 4] {
        for block_scan in [true, false] {
            let db = OnPath::new(Db::new(workers), block_scan);
            db.execute("CREATE TABLE t (g INT, f FLOAT)").unwrap();
            // Int literals stored into a FLOAT column.
            db.execute("INSERT INTO t VALUES (1, 1), (1, 2), (1, 3)")
                .unwrap();
            let ctx = format!("{workers} partition(s), block_scan = {block_scan}");
            let want = vec![
                Value::Float(1.0),
                Value::Float(3.0),
                Value::Float(6.0),
                Value::Float(2.0),
            ];
            let rs = db
                .execute("SELECT min(f), max(f), sum(f), avg(f) FROM t")
                .unwrap();
            assert_eq!(row(&rs), want, "{ctx}");
            let rs = db
                .execute("SELECT min(f), max(f), sum(f), avg(f) FROM t GROUP BY g")
                .unwrap();
            assert_eq!(row(&rs), want, "{ctx} GROUP BY");
            // The product of two FLOAT columns is a FLOAT term too.
            let rs = db.execute("SELECT sum(f * f) FROM t").unwrap();
            assert_eq!(row(&rs), vec![Value::Float(14.0)], "{ctx}");
            // An expression answers by value: Int * Int stays Int.
            let rs = db.execute("SELECT sum(f * 1), max(f + 0) FROM t").unwrap();
            assert_eq!(row(&rs), vec![Value::Int(6), Value::Int(3)], "{ctx}");
        }
    }
}
