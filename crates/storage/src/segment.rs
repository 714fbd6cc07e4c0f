//! Column-major sealed storage.
//!
//! A [`Segment`] is one immutable, columnar **chunk** of a table
//! partition: per-column value vectors (`f64` / `i64` / `String`) plus
//! an LSB-ordered *validity bitmap* — bit `i % 64` of word `i / 64` is
//! `1` when row `i` holds a non-NULL value (the Arrow convention).
//! Freshly inserted rows accumulate in a row-paged tail; every
//! [`SEGMENT_ROWS`] tail rows are transposed once into a new chunk,
//! which is never mutated afterwards. A partition's sealed region is a
//! list of `Arc`-shared chunks, so cloning a table copies pointers, not
//! rows, and each chunk is one full, word-aligned block window.
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

/// One sealed column: a fixed-stride value vector plus validity words.
#[derive(Debug)]
pub(crate) enum SegmentColumn {
    Int {
        values: Vec<i64>,
        validity: Vec<u64>,
        null_count: usize,
    },
    Float {
        values: Vec<f64>,
        validity: Vec<u64>,
        null_count: usize,
        /// `(row, original)` for rows whose stored value was
        /// `Value::Int` (the schema admits ints in float columns);
        /// `values[row]` holds the widened `f64`, this list preserves
        /// the exact integer for row reconstruction. Sorted by row.
        int_rows: Vec<(usize, i64)>,
    },
    Str {
        values: Vec<String>,
        validity: Vec<u64>,
        null_count: usize,
    },
}

impl SegmentColumn {
    fn new(ty: DataType, rows: usize) -> Self {
        let validity = Vec::with_capacity(bitmap_words(rows));
        match ty {
            DataType::Int => SegmentColumn::Int {
                values: Vec::with_capacity(rows),
                validity,
                null_count: 0,
            },
            DataType::Float => SegmentColumn::Float {
                values: Vec::with_capacity(rows),
                validity,
                null_count: 0,
                int_rows: Vec::new(),
            },
            DataType::Str => SegmentColumn::Str {
                values: Vec::with_capacity(rows),
                validity,
                null_count: 0,
            },
        }
    }

    fn push(&mut self, len: usize, v: &Value) {
        match self {
            SegmentColumn::Int {
                values,
                validity,
                null_count,
            } => {
                let (val, valid) = match v {
                    Value::Int(i) => (*i, true),
                    _ => (0, false),
                };
                values.push(val);
                push_bit(validity, len, valid);
                *null_count += usize::from(!valid);
            }
            SegmentColumn::Float {
                values,
                validity,
                null_count,
                int_rows,
            } => {
                let (val, valid) = match v {
                    Value::Float(f) => (*f, true),
                    Value::Int(i) => {
                        int_rows.push((len, *i));
                        (*i as f64, true)
                    }
                    _ => (0.0, false),
                };
                values.push(val);
                push_bit(validity, len, valid);
                *null_count += usize::from(!valid);
            }
            SegmentColumn::Str {
                values,
                validity,
                null_count,
            } => {
                let (val, valid) = match v {
                    Value::Str(s) => (s.clone(), true),
                    _ => (String::new(), false),
                };
                values.push(val);
                push_bit(validity, len, valid);
                *null_count += usize::from(!valid);
            }
        }
    }

    /// Reconstructs the exact stored [`Value`] at `row`.
    fn value(&self, row: usize) -> Value {
        match self {
            SegmentColumn::Int {
                values, validity, ..
            } => {
                if bitmap_get(validity, row) {
                    Value::Int(values[row])
                } else {
                    Value::Null
                }
            }
            SegmentColumn::Float {
                values,
                validity,
                int_rows,
                ..
            } => {
                if !bitmap_get(validity, row) {
                    Value::Null
                } else if let Ok(k) = int_rows.binary_search_by_key(&row, |&(r, _)| r) {
                    Value::Int(int_rows[k].1)
                } else {
                    Value::Float(values[row])
                }
            }
            SegmentColumn::Str {
                values, validity, ..
            } => {
                if bitmap_get(validity, row) {
                    Value::Str(values[row].clone())
                } else {
                    Value::Null
                }
            }
        }
    }

    fn bytes_used(&self) -> usize {
        match self {
            SegmentColumn::Int {
                values, validity, ..
            } => values.len() * 8 + validity.len() * 8,
            SegmentColumn::Float {
                values,
                validity,
                int_rows,
                ..
            } => values.len() * 8 + validity.len() * 8 + int_rows.len() * 16,
            SegmentColumn::Str {
                values, validity, ..
            } => values.iter().map(String::len).sum::<usize>() + validity.len() * 8,
        }
    }
}

/// One immutable, column-major chunk of a partition's sealed region.
///
/// Deliberately not `Clone`: tables share chunks through `Arc`, so no
/// table operation can deep-copy sealed data.
#[derive(Debug)]
pub(crate) struct Segment {
    len: usize,
    cols: Vec<SegmentColumn>,
}

impl Segment {
    /// Transposes already-validated rows into a chunk.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Self {
        let mut cols: Vec<SegmentColumn> = schema
            .columns()
            .iter()
            .map(|c| SegmentColumn::new(c.ty, rows.len()))
            .collect();
        for (r, row) in rows.iter().enumerate() {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(r, v);
            }
        }
        Segment {
            len: rows.len(),
            cols,
        }
    }

    /// Number of rows in the chunk ([`SEGMENT_ROWS`] for every chunk a
    /// table seals).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Reconstructs the exact row at chunk offset `row`.
    pub fn row(&self, row: usize) -> Row {
        self.cols.iter().map(|c| c.value(row)).collect()
    }

    /// The `f64` value vector of a float-typed column.
    pub fn float_values(&self, col: usize) -> Option<&[f64]> {
        match &self.cols[col] {
            SegmentColumn::Float { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The `i64` value vector of an int-typed column.
    pub fn int_values(&self, col: usize) -> Option<&[i64]> {
        match &self.cols[col] {
            SegmentColumn::Int { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The validity words of a column — `None` when the column has no
    /// NULLs in this chunk (consumers take the dense path).
    pub fn validity(&self, col: usize) -> Option<&[u64]> {
        let (validity, null_count) = match &self.cols[col] {
            SegmentColumn::Int {
                validity,
                null_count,
                ..
            }
            | SegmentColumn::Float {
                validity,
                null_count,
                ..
            }
            | SegmentColumn::Str {
                validity,
                null_count,
                ..
            } => (validity, *null_count),
        };
        (null_count > 0).then_some(validity.as_slice())
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
        let seg = Segment::from_rows(&schema(), &rows);
        assert_eq!(seg.len(), 200);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&seg.row(i), row, "row {i}");
        }
    }

    #[test]
    fn validity_words_follow_lsb_convention() {
        let seg = Segment::from_rows(&schema(), &rows(130));
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
        let seg = Segment::from_rows(
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
        let seg = Segment::from_rows(
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
