//! Column-major partition storage.
//!
//! A [`Segment`] is one columnar **chunk** of a table partition:
//! per-column value vectors (`f64` / `i64` / `String`) plus an
//! LSB-ordered *validity bitmap* — bit `i % 64` of word `i / 64` is
//! `1` when row `i` holds a non-NULL value (the Arrow convention).
//! Each partition's newest rows live in one growing chunk, its *tail*,
//! appended to a row at a time; at [`SEGMENT_ROWS`] rows the tail is
//! moved, as it is, into an `Arc` and never mutated afterwards. A
//! partition's sealed region is a list of those `Arc`-shared chunks, so
//! cloning a table copies pointers, not rows, and each sealed chunk is
//! one full, word-aligned block window.
//!
//! Bitmap convention used throughout the workspace (validity masks
//! here, selection masks in the engine): a slice of `u64` words covers
//! `len` rows, bit `1` means *valid / selected*, and **bits at
//! positions `>= len` are always zero**. That invariant lets consumers
//! combine masks with plain `&`/`|` and popcount without re-masking.

use crate::{DataType, Row, Schema, Value};

/// Rows per sealed chunk. Equal to the block size
/// ([`crate::BLOCK_ROWS`]) so every chunk is exactly one full,
/// 64-bit-word-aligned block.
pub const SEGMENT_ROWS: usize = 1024;

/// Reads bit `i` of an LSB-ordered bitmap.
#[inline]
pub fn bitmap_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// Number of `u64` words covering `len` bits.
#[inline]
pub fn bitmap_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// Zeroes every bit at position `>= len` in the final word (the
/// invariant all mask producers must uphold).
#[inline]
pub fn bitmap_mask_tail(words: &mut [u64], len: usize) {
    if !len.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (len % 64)) - 1;
        }
    }
}

/// Number of set bits (the mask covers exactly `len` valid positions,
/// so no tail masking is needed).
#[inline]
pub fn bitmap_count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

fn push_bit(words: &mut Vec<u64>, len: usize, set: bool) {
    if len.is_multiple_of(64) {
        words.push(0);
    }
    if set {
        *words.last_mut().expect("word just ensured") |= 1 << (len % 64);
    }
}

/// One chunk column: a fixed-stride value vector plus validity words.
#[derive(Debug, Clone)]
struct SegmentColumn {
    values: ColumnValues,
    validity: Vec<u64>,
    null_count: usize,
}

/// The value vector of a column. NULL slots hold a placeholder (`0`,
/// `0.0`, `""`).
#[derive(Debug, Clone)]
enum ColumnValues {
    Int(Vec<i64>),
    Float {
        values: Vec<f64>,
        /// `(row, original)` for rows whose stored value was
        /// `Value::Int` (the schema admits ints in float columns);
        /// `values[row]` holds the widened `f64`, this list preserves
        /// the exact integer for row reconstruction. Sorted by row.
        int_rows: Vec<(usize, i64)>,
    },
    Str(Vec<String>),
}

impl SegmentColumn {
    fn new(ty: DataType) -> Self {
        let values = match ty {
            DataType::Int => ColumnValues::Int(Vec::new()),
            DataType::Float => ColumnValues::Float {
                values: Vec::new(),
                int_rows: Vec::new(),
            },
            DataType::Str => ColumnValues::Str(Vec::new()),
        };
        SegmentColumn {
            values,
            validity: Vec::new(),
            null_count: 0,
        }
    }

    /// Appends `v`, already validated against the column type, as row
    /// `len`.
    fn push(&mut self, len: usize, v: &Value) {
        match &mut self.values {
            ColumnValues::Int(values) => values.push(v.as_i64().unwrap_or(0)),
            ColumnValues::Float { values, int_rows } => values.push(match v {
                Value::Float(f) => *f,
                Value::Int(i) => {
                    int_rows.push((len, *i));
                    *i as f64
                }
                _ => 0.0,
            }),
            ColumnValues::Str(values) => values.push(match v {
                Value::Str(s) => s.clone(),
                _ => String::new(),
            }),
        }
        push_bit(&mut self.validity, len, !v.is_null());
        self.null_count += usize::from(v.is_null());
    }

    /// Reconstructs the exact stored [`Value`] at `row`.
    fn value(&self, row: usize) -> Value {
        if !bitmap_get(&self.validity, row) {
            return Value::Null;
        }
        match &self.values {
            ColumnValues::Int(values) => Value::Int(values[row]),
            ColumnValues::Float { values, int_rows } => {
                match int_rows.binary_search_by_key(&row, |&(r, _)| r) {
                    Ok(k) => Value::Int(int_rows[k].1),
                    Err(_) => Value::Float(values[row]),
                }
            }
            ColumnValues::Str(values) => Value::Str(values[row].clone()),
        }
    }

    fn shrink_to_fit(&mut self) {
        self.validity.shrink_to_fit();
        match &mut self.values {
            ColumnValues::Int(values) => values.shrink_to_fit(),
            ColumnValues::Float { values, int_rows } => {
                values.shrink_to_fit();
                int_rows.shrink_to_fit();
            }
            ColumnValues::Str(values) => values.shrink_to_fit(),
        }
    }

    /// Allocated but unused vector slots.
    #[cfg(test)]
    fn spare_capacity(&self) -> usize {
        fn spare<T>(v: &Vec<T>) -> usize {
            v.capacity() - v.len()
        }
        spare(&self.validity)
            + match &self.values {
                ColumnValues::Int(values) => spare(values),
                ColumnValues::Float { values, int_rows } => spare(values) + spare(int_rows),
                ColumnValues::Str(values) => spare(values),
            }
    }

    fn bytes_used(&self) -> usize {
        self.validity.len() * 8
            + match &self.values {
                ColumnValues::Int(values) => values.len() * 8,
                ColumnValues::Float { values, int_rows } => values.len() * 8 + int_rows.len() * 16,
                ColumnValues::Str(values) => values.iter().map(String::len).sum(),
            }
    }
}

/// One column-major chunk of a partition: its growing tail, or a
/// sealed chunk behind an `Arc`.
///
/// Tables share sealed chunks through `Arc` and never deep-copy them;
/// `Clone` exists for the tail, which a table clone copies.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    len: usize,
    cols: Vec<SegmentColumn>,
}

impl Segment {
    /// An empty chunk of `schema`'s columns. Nothing is reserved, so a
    /// small table's tails cost only what they hold.
    pub fn new(schema: &Schema) -> Self {
        Segment {
            len: 0,
            cols: schema
                .columns()
                .iter()
                .map(|c| SegmentColumn::new(c.ty))
                .collect(),
        }
    }

    /// Appends one already-validated row.
    pub fn push(&mut self, row: &[Value]) {
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(self.len, v);
        }
        self.len += 1;
    }

    /// Releases spare vector capacity, so that [`Segment::bytes_used`]
    /// accounts for every byte a sealed chunk holds. A tail that grew
    /// by doubling from empty to [`SEGMENT_ROWS`] has none, and keeps
    /// its allocations; one that a table clone copied at `len` capacity
    /// and then grew is reallocated here, once.
    pub fn shrink_to_fit(&mut self) {
        self.cols.iter_mut().for_each(SegmentColumn::shrink_to_fit);
    }

    /// Allocated but unused vector slots, summed over the columns.
    #[cfg(test)]
    pub fn spare_capacity(&self) -> usize {
        self.cols.iter().map(SegmentColumn::spare_capacity).sum()
    }

    /// Number of rows in the chunk ([`SEGMENT_ROWS`] for every sealed
    /// chunk, fewer for a tail).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Reconstructs the exact row at chunk offset `row`.
    pub fn row(&self, row: usize) -> Row {
        self.cols.iter().map(|c| c.value(row)).collect()
    }

    /// Reconstructs the exact value of column `col` at chunk offset
    /// `row`.
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.cols[col].value(row)
    }

    /// The `f64` value vector of a float-typed column.
    pub fn float_values(&self, col: usize) -> Option<&[f64]> {
        match &self.cols[col].values {
            ColumnValues::Float { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The `i64` value vector of an int-typed column.
    pub fn int_values(&self, col: usize) -> Option<&[i64]> {
        match &self.cols[col].values {
            ColumnValues::Int(values) => Some(values),
            _ => None,
        }
    }

    /// The validity words of a column — `None` when the column has no
    /// NULLs in this chunk (consumers take the dense path).
    pub fn validity(&self, col: usize) -> Option<&[u64]> {
        let col = &self.cols[col];
        (col.null_count > 0).then_some(col.validity.as_slice())
    }

    /// Approximate heap bytes held by the chunk's columns.
    pub fn bytes_used(&self) -> usize {
        self.cols.iter().map(SegmentColumn::bytes_used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
        ])
    }

    fn segment(schema: &Schema, rows: &[Row]) -> Segment {
        let mut seg = Segment::new(schema);
        for row in rows {
            seg.push(row);
        }
        seg
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    },
                    match i % 4 {
                        0 => Value::Null,
                        1 => Value::Int(i as i64 * 10), // int in a float column
                        _ => Value::Float(i as f64 * 0.5),
                    },
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("s{i}"))
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn rows_round_trip_exactly() {
        let rows = rows(200);
        let seg = segment(&schema(), &rows);
        assert_eq!(seg.len(), 200);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&seg.row(i), row, "row {i}");
        }
    }

    #[test]
    fn validity_words_follow_lsb_convention() {
        let seg = segment(&schema(), &rows(130));
        let validity = seg.validity(0).expect("column has NULLs");
        assert_eq!(validity.len(), bitmap_words(130));
        for i in 0..130 {
            assert_eq!(bitmap_get(validity, i), i % 5 != 0, "row {i}");
        }
        // Bits past the end stay zero.
        assert_eq!(validity[2] >> 2, 0);
    }

    #[test]
    fn dense_column_reports_no_validity() {
        let seg = segment(
            &Schema::new(vec![Column::new("x", DataType::Float)]),
            &(0..70)
                .map(|i| vec![Value::Float(i as f64)])
                .collect::<Vec<_>>(),
        );
        assert!(seg.validity(0).is_none());
        assert_eq!(seg.float_values(0).unwrap().len(), 70);
    }

    #[test]
    fn int_in_float_column_widen_but_round_trip() {
        let big = (1i64 << 53) + 1; // not representable in f64
        let seg = segment(
            &Schema::new(vec![Column::new("x", DataType::Float)]),
            &[vec![Value::Int(big)], vec![Value::Float(1.5)]],
        );
        // The block view widens (lossy beyond 2^53)...
        assert_eq!(seg.float_values(0).unwrap()[0], big as f64);
        // ...but the row view preserves the exact integer.
        assert_eq!(seg.row(0)[0], Value::Int(big));
        assert_eq!(seg.row(1)[0], Value::Float(1.5));
    }

    #[test]
    fn bitmap_helpers() {
        let mut words = vec![!0u64; 2];
        bitmap_mask_tail(&mut words, 70);
        assert_eq!(bitmap_count_ones(&words), 70);
        assert!(bitmap_get(&words, 69));
        assert_eq!(words[1] >> 6, 0);
        // A multiple of 64 needs no masking.
        let mut full = vec![!0u64];
        bitmap_mask_tail(&mut full, 64);
        assert_eq!(full[0], !0u64);
    }
}
