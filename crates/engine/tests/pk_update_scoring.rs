//! Regression tests: the PK point-lookup path behind `batch_score`
//! must serve *current* rows after UPDATE — whether the update rewrote
//! a feature column (sealed segment or unsealed tail) or the key
//! itself. "Newest wins" at the storage layer is only useful if the
//! scoring surface actually observes it.

use nlq_engine::{Db, ExecOptions, SqlEngine};
use nlq_storage::Value;

/// The model scores `b0 + b1*X1 + b2*X2` = `1 + 0.25*X1 - 0.5*X2`.
fn expect_score(x1: f64, x2: f64) -> f64 {
    1.0 + 0.25 * x1 - 0.5 * x2
}

fn tight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

fn score_of(db: &Db, keys: &[i64]) -> Vec<Value> {
    let rs = db
        .batch_score("F", "BETA", keys, false, &ExecOptions::default())
        .unwrap();
    assert_eq!(rs.rows.len(), keys.len());
    for (row, &k) in rs.rows.iter().zip(keys) {
        assert_eq!(row[0], Value::Int(k), "keys come back in request order");
    }
    rs.rows.into_iter().map(|mut r| r.remove(1)).collect()
}

/// Seeds `F` with 2500 rows `(i, i, 2i)` — two sealed 1024-row
/// segments plus an unsealed tail, so lookups exercise both paths —
/// and a one-row model table `BETA`.
fn seeded_db() -> Db {
    let db = Db::new(2);
    db.execute("CREATE TABLE F (i INT, X1 FLOAT, X2 FLOAT)")
        .unwrap();
    for chunk in (1..=2500i64).collect::<Vec<_>>().chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {:.1}, {:.1})", *i as f64, (2 * i) as f64))
            .collect();
        db.execute(&format!("INSERT INTO F VALUES {}", values.join(", ")))
            .unwrap();
    }
    db.execute("CREATE TABLE BETA (b0 FLOAT, b1 FLOAT, b2 FLOAT)")
        .unwrap();
    db.execute("INSERT INTO BETA VALUES (1.0, 0.25, -0.5)")
        .unwrap();
    db
}

#[test]
fn batch_score_reflects_updated_feature_values() {
    let db = seeded_db();

    // Baseline: both a sealed-segment key and a tail key score off the
    // original features.
    let scores = score_of(&db, &[42, 2400]);
    assert!(tight(scores[0].as_f64().unwrap(), expect_score(42.0, 84.0)));
    assert!(tight(
        scores[1].as_f64().unwrap(),
        expect_score(2400.0, 4800.0)
    ));

    // Update one feature in a sealed row and one in a tail row. The
    // very next lookup must score the new values — a stale PK index
    // pointing at the superseded copy would silently serve old
    // features forever.
    db.execute("UPDATE F SET X1 = 1000.0 WHERE i = 42").unwrap();
    db.execute("UPDATE F SET X2 = -7.0 WHERE i = 2400").unwrap();
    let scores = score_of(&db, &[42, 2400]);
    assert!(
        tight(scores[0].as_f64().unwrap(), expect_score(1000.0, 84.0)),
        "sealed-row update not visible: {:?}",
        scores[0]
    );
    assert!(
        tight(scores[1].as_f64().unwrap(), expect_score(2400.0, -7.0)),
        "tail-row update not visible: {:?}",
        scores[1]
    );

    // A second update to the same key supersedes the first.
    db.execute("UPDATE F SET X1 = -3.0 WHERE i = 42").unwrap();
    let scores = score_of(&db, &[42]);
    assert!(tight(scores[0].as_f64().unwrap(), expect_score(-3.0, 84.0)));
}

#[test]
fn batch_score_follows_a_rewritten_primary_key() {
    let db = seeded_db();

    // Rewriting the key moves the row: the old key stops resolving and
    // the new key serves the row's features.
    db.execute("UPDATE F SET i = 9999 WHERE i = 17").unwrap();
    let scores = score_of(&db, &[17, 9999]);
    assert!(
        scores[0].is_null(),
        "rewritten-away key must score NULL, got {:?}",
        scores[0]
    );
    assert!(tight(scores[1].as_f64().unwrap(), expect_score(17.0, 34.0)));

    // Rewriting onto an existing key: duplicates resolve by global
    // insertion serial (an in-place UPDATE keeps its row's original
    // serial), so the pre-existing row 100 — inserted after row 99 —
    // deterministically wins the contested key.
    db.execute("UPDATE F SET X1 = 500.0, i = 100 WHERE i = 99")
        .unwrap();
    let scores = score_of(&db, &[99, 100]);
    assert!(scores[0].is_null(), "old key 99 must be gone");
    assert!(
        tight(scores[1].as_f64().unwrap(), expect_score(100.0, 200.0)),
        "contested key must resolve by insertion serial: {:?}",
        scores[1]
    );
}
