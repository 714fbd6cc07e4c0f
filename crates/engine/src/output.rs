//! Block-path scalar results: column blocks that stay columnar until a
//! consumer needs rows.
//!
//! A block-path projection (the paper's scoring scan) emits one
//! [`ResultBlock`] per scanned block that kept rows, each at most
//! [`nlq_storage::BLOCK_ROWS`] rows, in partition-major order. The
//! server encodes them straight into chunk frames; in-process callers
//! get rows from [`crate::ResultSet`]'s one row builder.

use nlq_storage::{bitmap_get, bitmap_mask_tail, bitmap_words, FloatColumn, Row, Value};
use nlq_udf::FloatBatch;

/// One output column of a [`ResultBlock`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResultColumn {
    /// Numeric values with validity. An `int` column holds `Int`
    /// values widened to `f64` (the planner admits only columns whose
    /// values survive the round trip) and reads back as `Value::Int`.
    Numeric {
        /// Values plus validity, one per block row.
        batch: FloatBatch,
        /// Whether the values narrow back to `Value::Int`.
        int: bool,
    },
    /// The same value on every row.
    Const(Value),
    /// Per-row values (a UDF evaluated a row at a time).
    Values(Vec<Value>),
}

impl ResultColumn {
    /// Row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            ResultColumn::Numeric { batch, int } => match (batch.is_valid(i), int) {
                (false, _) => Value::Null,
                (true, true) => Value::Int(batch.values[i] as i64),
                (true, false) => Value::Float(batch.values[i]),
            },
            ResultColumn::Const(v) => v.clone(),
            ResultColumn::Values(v) => v[i].clone(),
        }
    }

    /// The first `len` rows of a scanned block column.
    pub(crate) fn from_block(col: &FloatColumn<'_>, len: usize, int: bool) -> ResultColumn {
        let mut validity = match col.validity() {
            Some(words) => words[..bitmap_words(len)].to_vec(),
            None => vec![!0u64; bitmap_words(len)],
        };
        bitmap_mask_tail(&mut validity, len);
        ResultColumn::Numeric {
            batch: FloatBatch {
                values: col.values[..len].to_vec(),
                validity,
            },
            int,
        }
    }

    /// Keeps the rows at `kept` (ascending), in place.
    fn compact(&mut self, kept: &[usize]) {
        match self {
            ResultColumn::Numeric { batch, .. } => {
                for (j, &i) in kept.iter().enumerate() {
                    batch.values[j] = batch.values[i];
                    let (word, bit) = (j >> 6, 1u64 << (j & 63));
                    if bitmap_get(&batch.validity, i) {
                        batch.validity[word] |= bit;
                    } else {
                        batch.validity[word] &= !bit;
                    }
                }
                truncate_batch(batch, kept.len());
            }
            ResultColumn::Const(_) => {}
            ResultColumn::Values(values) => {
                for (j, &i) in kept.iter().enumerate() {
                    values.swap(j, i);
                }
                values.truncate(kept.len());
            }
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            ResultColumn::Numeric { batch, .. } => truncate_batch(batch, len),
            ResultColumn::Const(_) => {}
            ResultColumn::Values(values) => values.truncate(len),
        }
    }
}

fn truncate_batch(batch: &mut FloatBatch, len: usize) {
    batch.values.truncate(len);
    batch.validity.truncate(bitmap_words(len));
    bitmap_mask_tail(&mut batch.validity, len);
}

/// A block of result rows held column-wise: every column has `len`
/// rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultBlock {
    len: usize,
    columns: Vec<ResultColumn>,
}

impl ResultBlock {
    /// A block of `len` rows over `columns` (each `len` rows long).
    pub(crate) fn new(len: usize, columns: Vec<ResultColumn>) -> ResultBlock {
        ResultBlock { len, columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The output columns, in projection order.
    pub fn columns(&self) -> &[ResultColumn] {
        &self.columns
    }

    /// Keeps only the rows whose `selection` bit is set, in order.
    pub(crate) fn compact(&mut self, selection: &[u64]) {
        let kept: Vec<usize> = set_bits(selection, self.len).collect();
        for c in &mut self.columns {
            c.compact(&kept);
        }
        self.len = kept.len();
    }

    /// Appends every row to `rows`.
    pub(crate) fn push_rows(&self, rows: &mut Vec<Row>) {
        rows.extend((0..self.len).map(|i| self.columns.iter().map(|c| c.value(i)).collect()));
    }
}

/// Keeps the first `limit` rows of a block sequence.
pub(crate) fn truncate_blocks(blocks: &mut Vec<ResultBlock>, limit: usize) {
    let mut left = limit;
    let mut keep = 0;
    for b in blocks.iter_mut() {
        if left == 0 {
            break;
        }
        if b.len > left {
            for c in &mut b.columns {
                c.truncate(left);
            }
            b.len = left;
        }
        left -= b.len;
        keep += 1;
    }
    blocks.truncate(keep);
}

/// The indices below `len` whose bit is set in an LSB-ordered bitmap,
/// ascending.
pub(crate) fn set_bits(words: &[u64], len: usize) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |m| {
                Some(m & (m - 1)).filter(|&m| m != 0)
            })
            .map(move |m| (w << 6) | m.trailing_zeros() as usize)
        })
        .take_while(move |&i| i < len)
}
