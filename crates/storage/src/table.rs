use crate::pk::{self, PkIndex};
use crate::segment::{Segment, SEGMENT_ROWS};
use crate::{DataType, Result, Row, Schema, Value};
use std::sync::Arc;

/// Largest integer magnitude `f64` represents exactly (2⁵³). Int
/// values beyond this widen lossily in numeric block scans; planners
/// consult [`Table::int_widening_exact`] before trusting the widened
/// view.
pub const F64_EXACT_INT: i64 = 1 << 53;

/// A horizontally partitioned table.
///
/// Rows are distributed round-robin across `p` partitions, matching
/// the paper's setup where the data set is "horizontally partitioned
/// evenly among threads". Each partition is scanned independently by
/// one worker and stores its rows in one layout, column-major chunks
/// (per-column value vectors plus validity bitmaps), in two regions:
///
/// - **sealed chunks** of exactly `SEGMENT_ROWS` rows, immutable and
///   shared through `Arc`; and
/// - a **tail**: one chunk of fewer than `SEGMENT_ROWS` rows that
///   INSERT appends to column by column. When it fills, the tail moves
///   into an `Arc` as the newest sealed chunk, with no copy.
///
/// Block scans ([`Table::scan_partition_blocks`]) borrow slices of
/// both regions' columns in place.
///
/// Cloning a table copies the chunk lists, the tails and the index's
/// tail map, and shares every sealed chunk and index layer:
/// O(chunks + tail), not O(rows). That is what lets a writer clone,
/// append and swap a table generation per ingest envelope.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    partitions: Vec<Partition>,
    /// Next partition to receive a row (round-robin cursor).
    next_partition: usize,
    row_count: usize,
    /// Observed `(min, max)` of non-NULL values per Int-typed column
    /// (None until one is seen). Grows monotonically under INSERT;
    /// DML rebuilds recompute it from scratch.
    int_bounds: Vec<Option<(i64, i64)>>,
    /// Primary-key index (see [`crate::pk`]), present iff the first
    /// schema column is Int-typed.
    pk: Option<PkIndex>,
}

#[derive(Debug, Clone)]
struct Partition {
    /// Full chunks, oldest first; row `r` of the sealed region is
    /// offset `r % SEGMENT_ROWS` of chunk `r / SEGMENT_ROWS`.
    sealed: Vec<Arc<Segment>>,
    /// The newest rows, fewer than `SEGMENT_ROWS`.
    tail: Segment,
}

impl Partition {
    fn sealed_rows(&self) -> usize {
        self.sealed.len() * SEGMENT_ROWS
    }

    fn rows(&self) -> usize {
        self.sealed_rows() + self.tail.len()
    }

    /// The row at partition-local offset `r`.
    fn row(&self, r: usize) -> Row {
        match self.sealed.get(r / SEGMENT_ROWS) {
            Some(chunk) => chunk.row(r % SEGMENT_ROWS),
            None => self.tail.row(r - self.sealed_rows()),
        }
    }
}

impl Table {
    /// Creates an empty table with the given schema and partition count.
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    pub fn new(schema: Schema, partitions: usize) -> Self {
        assert!(partitions > 0, "a table needs at least one partition");
        let int_bounds = vec![None; schema.len()];
        let pk = schema
            .columns()
            .first()
            .filter(|c| c.ty == DataType::Int)
            .map(|_| PkIndex::new(0));
        Table {
            partitions: (0..partitions)
                .map(|_| Partition {
                    sealed: Vec::new(),
                    tail: Segment::new(&schema),
                })
                .collect(),
            schema,
            next_partition: 0,
            row_count: 0,
            int_bounds,
            pk,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of rows in one partition.
    pub fn partition_row_count(&self, p: usize) -> usize {
        self.partitions[p].rows()
    }

    /// Approximate bytes of stored data: the column vectors of the
    /// sealed chunks and the tails.
    pub fn bytes_used(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.sealed.iter().map(|c| c.bytes_used()).sum::<usize>() + p.tail.bytes_used())
            .sum()
    }

    /// Whether every Int value ever stored in column `col` survives
    /// the `i64 → f64` widening of
    /// [`Table::scan_partition_blocks_numeric`] exactly (magnitude
    /// ≤ 2⁵³). Vacuously true for columns with no observed ints.
    pub fn int_widening_exact(&self, col: usize) -> bool {
        match self.int_bounds.get(col).copied().flatten() {
            None => true,
            Some((lo, hi)) => lo >= -F64_EXACT_INT && hi <= F64_EXACT_INT,
        }
    }

    /// Validates and appends one row (see [`Table::insert_rows`]).
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_rows([row])
    }

    /// Validates and appends rows, assigning each round-robin to the
    /// next partition. Each row's values are appended from the borrow
    /// to the partition's tail columns; a tail that reaches
    /// `SEGMENT_ROWS` rows seals as a new chunk. A row that fails
    /// validation stops the batch; the rows before it stay appended.
    pub fn insert_rows<R: AsRef<[Value]>>(
        &mut self,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<()> {
        for row in rows {
            self.push_row(row.as_ref())?;
        }
        Ok(())
    }

    fn push_row(&mut self, row: &[Value]) -> Result<()> {
        self.schema.validate(row)?;
        for (bounds, v) in self.int_bounds.iter_mut().zip(row) {
            if let Value::Int(i) = v {
                *bounds = Some(match *bounds {
                    None => (*i, *i),
                    Some((lo, hi)) => (lo.min(*i), hi.max(*i)),
                });
            }
        }
        let p = self.next_partition;
        let pcount = self.partitions.len();
        self.next_partition = (self.next_partition + 1) % pcount;
        let part = &mut self.partitions[p];
        let serial = pk::serial(p, part.rows(), pcount);
        part.tail.push(row);
        self.row_count += 1;
        if let Some(pk) = &mut self.pk {
            if let Some(key) = row[pk.col()].as_i64() {
                pk.insert_tail(key, serial);
            }
        }
        if part.tail.len() == SEGMENT_ROWS {
            Self::seal_tail(part, &self.schema, p, pcount, self.pk.as_mut());
        }
        Ok(())
    }

    /// Moves the partition's full tail into a new sealed chunk and
    /// indexes its rows.
    fn seal_tail(
        part: &mut Partition,
        schema: &Schema,
        p: usize,
        pcount: usize,
        pk: Option<&mut PkIndex>,
    ) {
        let mut chunk = std::mem::replace(&mut part.tail, Segment::new(schema));
        chunk.shrink_to_fit();
        if let Some(pk) = pk {
            let col = pk.col();
            pk.seal(
                p,
                pcount,
                part.sealed_rows(),
                (0..chunk.len()).map(|r| chunk.value(col, r).as_i64()),
            );
        }
        part.sealed.push(Arc::new(chunk));
    }

    /// Which column the primary-key hash index covers, if the table has
    /// one (the first column, when Int-typed).
    pub fn pk_column(&self) -> Option<usize> {
        self.pk.as_ref().map(PkIndex::col)
    }

    /// Entries in the PK index's sealed layers: the sum over layers of
    /// the distinct non-NULL keys in the chunks each layer covers.
    /// Unsealed tail rows are not counted. With one layer (a table
    /// built without intervening clones) this is the number of
    /// distinct sealed keys; a key sealed into two layers not yet
    /// merged counts twice.
    pub fn pk_indexed_rows(&self) -> usize {
        self.pk.as_ref().map_or(0, PkIndex::layer_entries)
    }

    /// Number of sealed layers in the PK index (0 without one). At
    /// most `⌊log₂ C⌋ + 1` for `C` sealed chunks.
    pub fn pk_layer_count(&self) -> usize {
        self.pk.as_ref().map_or(0, PkIndex::layer_count)
    }

    /// Point lookup of one key: [`Table::lookup_keys`] for a single
    /// key.
    pub fn pk_lookup(&self, key: i64) -> Result<Option<Row>> {
        Ok(self.lookup_keys(&[key])?.pop().flatten())
    }

    /// Batch point lookup through the PK index. Each key costs one
    /// probe of the tail map and of every sealed layer, then the
    /// gather of the one row it hits from its chunk's columns.
    /// Duplicate keys resolve to the newest insertion (by round-robin
    /// serial). Returns one slot per requested key, in request order,
    /// `None` where the key is absent.
    ///
    /// # Errors
    /// Fails with [`crate::StorageError::Unsupported`] if the table has
    /// no PK index (first column not Int-typed).
    pub fn lookup_keys(&self, keys: &[i64]) -> Result<Vec<Option<Row>>> {
        let Some(pk) = &self.pk else {
            return Err(crate::StorageError::Unsupported(
                "table has no primary-key index (first column must be Int)".into(),
            ));
        };
        let pcount = self.partitions.len();
        Ok(keys
            .iter()
            .map(|&k| {
                pk.get(k).map(|serial| {
                    let (p, r) = pk::position(serial, pcount);
                    self.partitions[p].row(r)
                })
            })
            .collect())
    }

    /// The two storage regions of partition `p` (block scans read
    /// both).
    pub(crate) fn partition_parts(&self, p: usize) -> (&[Arc<Segment>], &Segment) {
        let part = &self.partitions[p];
        (&part.sealed, &part.tail)
    }

    /// Iterates the rows of partition `p` in insertion order, each
    /// reconstructed from its chunk's column vectors: sealed rows
    /// first, then the tail.
    pub fn scan_partition(&self, p: usize) -> PartitionIter<'_> {
        PartitionIter {
            part: &self.partitions[p],
            next: 0,
        }
    }

    /// Iterates all rows, partition by partition. Useful for tests and
    /// small dimension tables; large scans should go through
    /// [`crate::parallel_scan`].
    pub fn scan_all(&self) -> impl Iterator<Item = Result<Row>> + '_ {
        (0..self.partition_count()).flat_map(|p| self.scan_partition(p))
    }

    /// Collects the whole table into memory (test/dimension-table helper).
    pub fn collect_rows(&self) -> Result<Vec<Row>> {
        self.scan_all().collect()
    }
}

/// Iterator over the rows of one partition (sealed chunks, then tail).
pub struct PartitionIter<'a> {
    part: &'a Partition,
    /// Next row, as a partition-local offset.
    next: usize,
}

impl Iterator for PartitionIter<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.part.rows() {
            return None;
        }
        self.next += 1;
        Some(Ok(self.part.row(self.next - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, DataType, Value};

    fn small_table(partitions: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("v", DataType::Float),
        ]);
        let mut t = Table::new(schema, partitions);
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        t
    }

    #[test]
    fn round_robin_distributes_evenly() {
        let t = small_table(5);
        for p in 0..5 {
            assert_eq!(t.partition_row_count(p), 2, "partition {p}");
        }
        assert_eq!(t.row_count(), 10);
    }

    #[test]
    fn scan_all_returns_every_row_once() {
        let t = small_table(3);
        let mut ids: Vec<i64> = t
            .collect_rows()
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn partition_scan_preserves_insertion_order() {
        let t = small_table(2);
        let p0: Vec<i64> = t
            .scan_partition(0)
            .map(|r| r.unwrap()[0].as_i64().unwrap())
            .collect();
        assert_eq!(p0, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn insert_validates_against_schema() {
        let mut t = small_table(1);
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::Str("x".into()), Value::Float(0.0)])
            .is_err());
        assert_eq!(
            t.row_count(),
            10,
            "failed inserts must not change the table"
        );
    }

    #[test]
    fn tail_seals_into_segment_at_threshold() {
        let schema = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ]);
        let mut t = Table::new(schema, 1);
        let n = SEGMENT_ROWS * 2 + 37;
        let make = |i: usize| {
            vec![
                if i.is_multiple_of(7) {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                },
                if i.is_multiple_of(5) {
                    Value::Int(i as i64 * 3) // int in a float column
                } else {
                    Value::Float(i as f64 * 0.5)
                },
                Value::Str(format!("r{i}")),
            ]
        };
        for i in 0..n {
            t.insert(make(i)).unwrap();
        }
        assert_eq!(t.partitions[0].sealed.len(), 2);
        assert_eq!(t.partitions[0].tail.len(), 37);
        // Sealed + tail reads back every row exactly, in order.
        let rows: Vec<Row> = t.scan_partition(0).map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &make(i), "row {i}");
        }
    }

    #[test]
    fn int_widening_exactness_tracks_bounds() {
        let schema = Schema::new(vec![Column::new("i", DataType::Int)]);
        let mut t = Table::new(schema, 1);
        assert!(t.int_widening_exact(0), "no ints seen yet");
        t.insert(vec![Value::Int(1 << 53)]).unwrap();
        assert!(t.int_widening_exact(0), "2^53 itself is exact");
        t.insert(vec![Value::Int((1 << 53) + 1)]).unwrap();
        assert!(!t.int_widening_exact(0), "2^53 + 1 is not");

        let schema = Schema::new(vec![Column::new("i", DataType::Int)]);
        let mut t = Table::new(schema, 1);
        t.insert(vec![Value::Int(-((1 << 53) + 1))]).unwrap();
        assert!(!t.int_widening_exact(0), "negative overflow detected");
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = Table::new(Schema::default(), 0);
    }

    fn keyed_table(partitions: usize, n: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema, partitions);
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64), Value::Float(i as f64 * 0.5)])
                .unwrap();
        }
        t
    }

    #[test]
    fn pk_index_exists_only_for_leading_int_column() {
        assert_eq!(keyed_table(2, 0).pk_column(), Some(0));
        let no_pk = Table::new(Schema::new(vec![Column::new("x", DataType::Float)]), 1);
        assert_eq!(no_pk.pk_column(), None);
        assert!(no_pk.lookup_keys(&[1]).is_err());
        assert!(no_pk.pk_lookup(1).is_err());
    }

    #[test]
    fn pk_lookup_spans_sealed_and_tail_regions() {
        let n = SEGMENT_ROWS * 3 + 100; // tails partially sealed
        let t = keyed_table(2, n);
        assert!(t.pk_indexed_rows() > 0, "seals must populate the index");
        assert!(t.pk_indexed_rows() < n, "tail rows stay unindexed");
        for k in [0usize, 1, SEGMENT_ROWS, n - 1] {
            let row = t.pk_lookup(k as i64).unwrap().unwrap();
            assert_eq!(row[0], Value::Int(k as i64));
            assert_eq!(row[1], Value::Float(k as f64 * 0.5));
        }
        assert_eq!(t.pk_lookup(n as i64 + 5).unwrap(), None);
    }

    #[test]
    fn lookup_keys_returns_request_order_with_gaps() {
        let n = SEGMENT_ROWS + 10;
        let t = keyed_table(3, n);
        let keys = [7i64, -1, (n - 1) as i64, 7, 1_000_000];
        let got = t.lookup_keys(&keys).unwrap();
        assert_eq!(got.len(), keys.len());
        assert_eq!(got[0].as_ref().unwrap()[0], Value::Int(7));
        assert!(got[1].is_none());
        assert_eq!(got[2].as_ref().unwrap()[0], Value::Int((n - 1) as i64));
        assert_eq!(got[3], got[0], "duplicate keys resolve identically");
        assert!(got[4].is_none());
    }

    #[test]
    fn pk_lookup_prefers_tail_duplicate_over_sealed() {
        let mut t = keyed_table(1, SEGMENT_ROWS); // key 3 now sealed
        t.insert(vec![Value::Int(3), Value::Float(99.0)]).unwrap();
        let row = t.pk_lookup(3).unwrap().unwrap();
        assert_eq!(row[1], Value::Float(99.0), "tail row is newer");
        let got = t.lookup_keys(&[3]).unwrap();
        assert_eq!(got[0].as_ref().unwrap()[1], Value::Float(99.0));
    }

    #[test]
    fn pk_index_resolves_cross_partition_duplicates_newest_wins() {
        // The older duplicate lands in partition 1, the newer one in
        // partition 0 — and partition 1 seals *after* partition 0, so
        // a latest-sealed-wins index would resurface the stale row.
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema, 2);
        for i in 0..(SEGMENT_ROWS * 2) {
            let (k, x) = match i {
                1 => (42, 1.0), // older copy → partition 1
                2 => (42, 2.0), // newer copy → partition 0
                _ => (i as i64 + 1000, i as f64),
            };
            t.insert(vec![Value::Int(k), Value::Float(x)]).unwrap();
        }
        assert_eq!(t.partitions[0].tail.len(), 0, "both partitions sealed");
        assert_eq!(t.partitions[1].tail.len(), 0);
        assert_eq!(t.pk_lookup(42).unwrap().unwrap()[1], Value::Float(2.0));
        let got = t.lookup_keys(&[42]).unwrap();
        assert_eq!(got[0].as_ref().unwrap()[1], Value::Float(2.0));
    }

    #[test]
    fn sealed_duplicate_newer_than_tail_duplicate_wins() {
        // Partition 0 seals right after receiving the newer copy while
        // partition 1 still holds the older copy in its unsealed tail —
        // blind tail-first preference would return the stale row.
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema, 2);
        for i in 0..(SEGMENT_ROWS * 2 - 1) {
            let (k, x) = match i {
                i if i == SEGMENT_ROWS * 2 - 3 => (42, 1.0), // older → p1 tail
                i if i == SEGMENT_ROWS * 2 - 2 => (42, 2.0), // newer → p0, seals
                _ => (i as i64 + 1000, i as f64),
            };
            t.insert(vec![Value::Int(k), Value::Float(x)]).unwrap();
        }
        assert_eq!(t.partitions[0].tail.len(), 0, "partition 0 sealed");
        assert!(t.partitions[1].tail.len() > 0, "partition 1 tail unsealed");
        assert_eq!(t.pk_lookup(42).unwrap().unwrap()[1], Value::Float(2.0));
        let got = t.lookup_keys(&[42]).unwrap();
        assert_eq!(got[0].as_ref().unwrap()[1], Value::Float(2.0));
    }

    #[test]
    fn pk_index_skips_null_keys() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema, 1);
        for i in 0..SEGMENT_ROWS {
            let key = if i.is_multiple_of(2) {
                Value::Null
            } else {
                Value::Int(i as i64)
            };
            t.insert(vec![key, Value::Float(i as f64)]).unwrap();
        }
        assert_eq!(t.pk_indexed_rows(), SEGMENT_ROWS / 2);
        assert!(t.pk_lookup(1).unwrap().is_some());
        assert!(t.pk_lookup(2).unwrap().is_none(), "NULL keys unreachable");
    }

    #[test]
    fn clone_then_append_shares_sealed_chunks_and_older_layers() {
        // The copy-on-write append of an ingest envelope: the previous
        // generation stays alive while the next one is appended to.
        let mut next = keyed_table(2, SEGMENT_ROWS * 5 + 300);
        assert_eq!(next.pk_layer_count(), 1, "built without clones");
        let mut key = next.row_count() as i64;
        for _ in 0..16 {
            let prev = next.clone();
            next.insert_rows((0..700).map(|_| {
                key += 1;
                [Value::Int(key), Value::Float(0.5)]
            }))
            .unwrap();
            for (old, new) in prev.partitions.iter().zip(&next.partitions) {
                assert!(old.sealed.len() <= new.sealed.len());
                for (a, b) in old.sealed.iter().zip(&new.sealed) {
                    assert!(Arc::ptr_eq(a, b), "a sealed chunk was copied");
                }
                // The cloned tail had capacity equal to its length and
                // grew by doubling before it sealed: the seal must
                // release the slack, which `bytes_used` cannot see.
                for chunk in &new.sealed {
                    assert_eq!(chunk.spare_capacity(), 0, "slack in a sealed chunk");
                }
            }
            // An append pops merged layers off the top and pushes one:
            // every layer below the newest is the old allocation.
            let (old_pk, new_pk) = (prev.pk.as_ref().unwrap(), next.pk.as_ref().unwrap());
            let kept = new_pk.layer_count() - 1;
            assert!(kept <= old_pk.layer_count());
            for i in 0..kept {
                assert!(new_pk.shares_layer(old_pk, i), "layer {i} was copied");
            }
        }
    }
}
