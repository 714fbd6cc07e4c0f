//! SQL-level tests for builtin scalar functions, CASE, string
//! handling, and expression edge cases through the full engine stack.

use nlq_engine::Db;
use nlq_storage::Value;

fn db_one() -> Db {
    let db = Db::new(2);
    db.execute("CREATE TABLE one (x FLOAT, n INT, s VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO one VALUES (9.0, -5, 'mid')")
        .unwrap();
    db
}

fn eval(db: &Db, expr: &str) -> Value {
    let rs = db.execute(&format!("SELECT {expr} FROM one")).unwrap();
    rs.rows[0][0].clone()
}

#[test]
fn math_functions() {
    let db = db_one();
    assert_eq!(eval(&db, "sqrt(x)"), Value::Float(3.0));
    assert_eq!(eval(&db, "abs(n)"), Value::Int(5));
    assert_eq!(eval(&db, "power(2, 10)"), Value::Float(1024.0));
    assert_eq!(eval(&db, "exp(0)"), Value::Float(1.0));
    assert_eq!(eval(&db, "ln(exp(1))"), Value::Float(1.0));
    assert_eq!(eval(&db, "floor(2.7)"), Value::Float(2.0));
    assert_eq!(eval(&db, "ceil(2.1)"), Value::Float(3.0));
    assert_eq!(eval(&db, "mod(7, 3)"), Value::Int(1));
    assert_eq!(eval(&db, "7 % 3"), Value::Int(1));
}

#[test]
fn least_and_greatest() {
    let db = db_one();
    assert_eq!(eval(&db, "least(3, 1.5, 2)"), Value::Float(1.5));
    assert_eq!(eval(&db, "greatest(3, 1.5, 2)"), Value::Int(3));
    // NULL makes the result NULL (SQL convention chosen here).
    assert_eq!(eval(&db, "least(1, NULL)"), Value::Null);
}

#[test]
fn null_arithmetic_propagates() {
    let db = db_one();
    assert_eq!(eval(&db, "x + NULL"), Value::Null);
    assert_eq!(eval(&db, "NULL * 0"), Value::Null);
    assert_eq!(eval(&db, "sqrt(NULL)"), Value::Null);
    // Division by zero is NULL, not an error, so scans never abort.
    assert_eq!(eval(&db, "1 / 0"), Value::Null);
    assert_eq!(eval(&db, "x / 0.0"), Value::Null);
}

#[test]
fn case_without_else_defaults_null() {
    let db = db_one();
    assert_eq!(eval(&db, "CASE WHEN x > 100 THEN 1 END"), Value::Null);
    assert_eq!(
        eval(
            &db,
            "CASE WHEN x > 1 THEN 'big' WHEN x > 0 THEN 'small' END"
        ),
        Value::from("big")
    );
}

#[test]
fn string_comparisons() {
    let db = db_one();
    assert_eq!(eval(&db, "s = 'mid'"), Value::Int(1));
    assert_eq!(eval(&db, "s < 'zzz'"), Value::Int(1));
    assert_eq!(eval(&db, "s <> 'mid'"), Value::Int(0));
    // Cross-type comparison is unknown.
    assert_eq!(eval(&db, "s = 1"), Value::Null);
}

#[test]
fn string_literal_escapes() {
    let db = db_one();
    assert_eq!(eval(&db, "'it''s'"), Value::from("it's"));
}

#[test]
fn not_and_boolean_outputs() {
    let db = db_one();
    assert_eq!(eval(&db, "NOT x > 100"), Value::Int(1));
    assert_eq!(eval(&db, "NOT (1 = 1)"), Value::Int(0));
    assert_eq!(eval(&db, "x > 1 AND n < 0"), Value::Int(1));
    assert_eq!(eval(&db, "x > 100 OR n < 0"), Value::Int(1));
}

#[test]
fn integer_overflow_is_an_error_not_a_panic() {
    let db = db_one();
    // Leaving the i64 range is an SQL type error naming the operator,
    // never a wrapped value.
    for (expr, op) in [
        ("9223372036854775807 + 1", "`+`"),
        ("(0 - 9223372036854775807) - 2", "`-`"),
        ("4611686018427387904 * 2", "`*`"),
        ("-((0 - 9223372036854775807) - 1)", "`unary -`"),
        ("abs((0 - 9223372036854775807) - 1)", "`abs`"),
    ] {
        let err = db
            .execute(&format!("SELECT {expr} FROM one"))
            .expect_err(expr)
            .to_string();
        assert!(
            err.contains("INT overflow") && err.contains(op),
            "{expr}: {err}"
        );
    }
    // The edges themselves are in range.
    assert_eq!(eval(&db, "9223372036854775806 + 1"), Value::Int(i64::MAX));
    assert_eq!(
        eval(&db, "(0 - 9223372036854775807) - 1"),
        Value::Int(i64::MIN)
    );
}

#[test]
fn aggregates_over_expressions_with_functions() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (4.0), (9.0)")
        .unwrap();
    let rs = db
        .execute("SELECT sum(sqrt(v)), avg(v * 2) FROM t")
        .unwrap();
    assert_eq!(rs.value(0, 0), &Value::Float(6.0));
    assert_eq!(rs.value(0, 1), &Value::Float(28.0 / 3.0));
}

#[test]
fn where_with_case_and_functions() {
    let db = Db::new(2);
    db.execute("CREATE TABLE t (v FLOAT)").unwrap();
    db.execute("INSERT INTO t VALUES (-3.0), (2.0), (-1.0), (5.0)")
        .unwrap();
    let rs = db
        .execute("SELECT count(*) FROM t WHERE CASE WHEN v < 0 THEN 1 ELSE 0 END = 1")
        .unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(2));
    let rs = db
        .execute("SELECT count(*) FROM t WHERE abs(v) >= 2")
        .unwrap();
    assert_eq!(rs.value(0, 0), &Value::Int(3));
}
