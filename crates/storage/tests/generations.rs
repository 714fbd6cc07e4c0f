//! Table generations under copy-on-write appends: a clone taken at any
//! point (a snapshot) must keep answering exactly as it did when taken,
//! however many rows its successors append, and every generation's PK
//! lookups must agree with a naive newest-wins oracle over its row scan.
//! Cases come from the seeded [`nlq_testkit`] runner on one thread.

use nlq_storage::{Column, DataType, Row, Schema, Table, Value, SEGMENT_ROWS};
use nlq_testkit::{run_cases, Rng};
use std::collections::BTreeMap;

/// Keys are drawn from `0..KEYS`, so traces of several thousand rows
/// repeat most keys many times across partitions and seals.
const KEYS: i64 = 600;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("x", DataType::Float),
        Column::new("y", DataType::Float),
        Column::new("s", DataType::Str),
    ])
}

fn row(rng: &mut Rng, serial: usize) -> Row {
    let key = if rng.chance(0.05) {
        Value::Null
    } else {
        Value::Int(rng.range_i64(0, KEYS - 1))
    };
    let x = if rng.chance(0.2) {
        Value::Int(rng.range_i64(-1000, 1000)) // Int in a Float column
    } else {
        Value::Float(rng.range_f64(-50.0, 50.0))
    };
    let y = match rng.range_usize(0, 9) {
        0 => Value::Null,
        1 => Value::Int(serial as i64),
        _ => Value::Float(serial as f64 * 0.25),
    };
    vec![key, x, y, Value::Str(format!("r{serial}"))]
}

/// Keys every check probes: the whole key domain plus absent ones.
fn probe_keys() -> Vec<i64> {
    (-3..KEYS + 3).collect()
}

/// Naive newest-wins lookup: the row holding `key` with the largest
/// round-robin serial (`offset · P + p`) over the partition row scans.
fn oracle(t: &Table, keys: &[i64]) -> Vec<Option<Row>> {
    let pcount = t.partition_count();
    let mut newest: BTreeMap<i64, (usize, Row)> = BTreeMap::new();
    for p in 0..pcount {
        for (offset, r) in t.scan_partition(p).enumerate() {
            let r = r.unwrap();
            let serial = offset * pcount + p;
            if let Value::Int(k) = r[0] {
                if newest.get(&k).is_none_or(|(s, _)| serial > *s) {
                    newest.insert(k, (serial, r));
                }
            }
        }
    }
    keys.iter()
        .map(|k| newest.get(k).map(|(_, r)| r.clone()))
        .collect()
}

/// Every projected `(x, y)` value per partition as `Option<f64>`, read
/// through the block scan and through the row scan.
type Columns = Vec<Vec<Option<f64>>>;

fn block_columns(t: &Table) -> Columns {
    let mut out = vec![Vec::new(); 2];
    for p in 0..t.partition_count() {
        let mut iter = t.scan_partition_blocks(p, &[1, 2]).unwrap();
        while let Some(block) = iter.next_block() {
            let block = block.unwrap();
            for (c, col) in out.iter_mut().enumerate() {
                let column = block.column(c);
                for i in 0..block.len() {
                    col.push((!column.is_null(i)).then_some(column.values[i]));
                }
            }
        }
    }
    out
}

fn row_columns(t: &Table) -> Columns {
    let rows = t.collect_rows().unwrap();
    (1..=2)
        .map(|c| rows.iter().map(|r| r[c].as_f64()).collect())
        .collect()
}

/// What a generation answers, recorded when it is taken.
struct Snapshot {
    table: Table,
    rows: Vec<Row>,
    lookups: Vec<Option<Row>>,
    /// Per block-scanned column, the sum of its values (bit pattern)
    /// and its NULL count.
    sums: Vec<(u64, usize)>,
}

fn sums(cols: &Columns) -> Vec<(u64, usize)> {
    cols.iter()
        .map(|c| {
            let sum: f64 = c.iter().flatten().sum();
            (sum.to_bits(), c.iter().filter(|v| v.is_none()).count())
        })
        .collect()
}

impl Snapshot {
    fn take(t: &Table, keys: &[i64]) -> Self {
        Snapshot {
            table: t.clone(),
            rows: t.collect_rows().unwrap(),
            lookups: t.lookup_keys(keys).unwrap(),
            sums: sums(&block_columns(t)),
        }
    }

    fn unchanged(&self, keys: &[i64]) {
        let t = &self.table;
        assert_eq!(t.collect_rows().unwrap(), self.rows, "rows moved");
        assert_eq!(t.lookup_keys(keys).unwrap(), self.lookups, "lookups moved");
        assert_eq!(sums(&block_columns(t)), self.sums, "block sums moved");
    }
}

/// The checks every generation must pass on its own contents.
fn consistent(t: &Table, keys: &[i64]) {
    assert_eq!(
        t.lookup_keys(keys).unwrap(),
        oracle(t, keys),
        "lookup != oracle"
    );
    for &k in keys {
        assert_eq!(t.pk_lookup(k).unwrap(), t.lookup_keys(&[k]).unwrap()[0]);
    }
    assert_eq!(block_columns(t), row_columns(t), "block scan != row scan");
    let chunks: usize = (0..t.partition_count())
        .map(|p| t.partition_row_count(p) / SEGMENT_ROWS)
        .sum();
    let bound = if chunks == 0 {
        0
    } else {
        chunks.ilog2() as usize + 1
    };
    assert!(
        t.pk_layer_count() <= bound,
        "{} layers over {chunks} chunks",
        t.pk_layer_count()
    );
}

#[test]
fn snapshots_are_immutable_and_lookups_match_the_oracle() {
    let keys = probe_keys();
    for pcount in 1..=3 {
        run_cases(2, 0x6e4e + pcount as u64, |rng| trace(rng, pcount, &keys));
    }
}

/// Rows in the next append. Partitions fill in lock-step, so they seal
/// within `P - 1` consecutive rows of each other; a third of the
/// batches end inside that window, where some partitions have sealed
/// and the rest have not.
fn batch_len(rng: &mut Rng, rows: usize, pcount: usize) -> usize {
    let round = SEGMENT_ROWS * pcount;
    if pcount > 1 && rng.chance(1.0 / 3.0) {
        let end = (rows / round + 1) * round - rng.range_usize(1, pcount - 1);
        if end > rows {
            return end - rows;
        }
    }
    rng.range_usize(1, 700)
}

/// One random trace of appends, snapshots, branches and retirements.
fn trace(rng: &mut Rng, pcount: usize, keys: &[i64]) {
    let mut t = Table::new(schema(), pcount);
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut serial = 0;
    let target = rng.range_usize(6 * SEGMENT_ROWS, 10 * SEGMENT_ROWS);
    while t.row_count() < target {
        let batch: Vec<Row> = (0..batch_len(rng, t.row_count(), pcount))
            .map(|_| {
                serial += 1;
                row(rng, serial)
            })
            .collect();
        t.insert_rows(&batch).unwrap();
        match rng.range_usize(0, 9) {
            // Snapshot the current generation.
            0..=2 => snapshots.push(Snapshot::take(&t, keys)),
            // Branch: continue from an older generation, dropping
            // the current one (its layers may become unshared).
            3 if !snapshots.is_empty() => {
                let i = rng.range_usize(0, snapshots.len() - 1);
                t = snapshots[i].table.clone();
            }
            // Retire a snapshot after checking it.
            4 if !snapshots.is_empty() => {
                let i = rng.range_usize(0, snapshots.len() - 1);
                snapshots.swap_remove(i).unchanged(keys);
            }
            _ => {}
        }
        consistent(&t, keys);
    }
    for s in &snapshots {
        s.unchanged(keys);
        consistent(&s.table, keys);
    }
}
