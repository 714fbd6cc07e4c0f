//! Block-at-a-time columnar scans.
//!
//! Every partition stores its rows in column-major chunks (see
//! [`crate::segment`]): full, immutable sealed chunks and one growing
//! tail. Each chunk, the tail included, is exactly one
//! [`ColumnBlock`], a set of *borrowed*, fixed-stride `f64` slices
//! pointing straight into that chunk's column vectors, with the
//! chunk's LSB-ordered validity bitmap alongside. The one case that
//! materializes data per block is an Int column under
//! [`Table::scan_partition_blocks_numeric`], which widens `i64 → f64`
//! into iterator-owned scratch (exact below 2⁵³ — see
//! [`Table::int_widening_exact`]).
//!
//! Only numeric projections are supported — every projected column
//! must be typed [`DataType::Float`](crate::DataType::Float) (or
//! [`DataType::Int`](crate::DataType::Int) in `_numeric` mode).
//! Blocks never straddle a chunk, so sealed blocks are always full
//! [`BLOCK_ROWS`] windows, and every block's validity slices start on
//! a 64-bit word.

use crate::segment::{bitmap_count_ones, bitmap_get, Segment};
use crate::{DataType, Result, StorageError, Table};
use std::sync::Arc;

/// Rows per [`ColumnBlock`]: 1024 keeps a d=8 projection (8 columns ×
/// 8 KB values + 2 KB validity words) comfortably inside L2 while
/// amortizing per-block dispatch to noise. Equal to
/// [`crate::segment::SEGMENT_ROWS`], so each sealed chunk is one full
/// block.
pub const BLOCK_ROWS: usize = 1024;

/// One projected column of a [`ColumnBlock`]: a borrowed value slice
/// plus an optional borrowed validity bitmap.
#[derive(Debug, Clone, Copy)]
pub struct FloatColumn<'a> {
    /// Column values, one per block row. NULL slots hold `0.0` (Int
    /// columns: the widened value).
    pub values: &'a [f64],
    /// LSB-ordered validity words covering the block's rows (bit set =
    /// valid, bits past the block length are zero). `None` when the
    /// block has no NULLs in this column.
    validity: Option<&'a [u64]>,
    null_count: usize,
}

impl<'a> FloatColumn<'a> {
    pub(crate) fn new(values: &'a [f64], validity: Option<&'a [u64]>, null_count: usize) -> Self {
        FloatColumn {
            values,
            validity: if null_count == 0 { None } else { validity },
            null_count,
        }
    }

    /// Whether row `i` of this block is SQL NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self.validity {
            None => false,
            Some(words) => !bitmap_get(words, i),
        }
    }

    /// The validity bitmap (`None` means every row is valid).
    #[inline]
    pub fn validity(&self) -> Option<&'a [u64]> {
        self.validity
    }

    /// Number of NULL rows in this block.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Whether the column has no NULLs in this block.
    pub fn is_dense(&self) -> bool {
        self.null_count == 0
    }
}

/// A batch of up to [`BLOCK_ROWS`] rows viewed column-wise.
///
/// Column order matches the projection list passed to
/// [`Table::scan_partition_blocks`], not the table schema.
#[derive(Debug, Clone)]
pub struct ColumnBlock<'a> {
    len: usize,
    columns: Vec<FloatColumn<'a>>,
}

impl<'a> ColumnBlock<'a> {
    /// Number of rows in this block (the final block of a region is
    /// usually shorter than [`BLOCK_ROWS`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of projected columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The `i`-th projected column.
    ///
    /// # Panics
    /// Panics if `i` is out of range of the projection.
    pub fn column(&self, i: usize) -> &FloatColumn<'a> {
        &self.columns[i]
    }

    /// Whether every projected column is NULL-free in this block.
    pub fn is_dense(&self) -> bool {
        self.columns.iter().all(FloatColumn::is_dense)
    }
}

/// Streaming block reader over one partition (sealed chunks first,
/// then the tail).
///
/// Created by [`Table::scan_partition_blocks`]. Each call to
/// [`BlockIter::next_block`] yields a [`ColumnBlock`] of slice views;
/// the views borrow either a chunk's columns or this iterator's
/// scratch, so they are valid until the next call.
pub struct BlockIter<'a> {
    chunks: &'a [Arc<Segment>],
    tail: &'a Segment,
    /// Next chunk to hand out; `chunks.len()` names the tail.
    next: usize,
    /// Projected table columns, in block order.
    cols: Vec<usize>,
    /// Per projected column, the widened values of an Int column.
    widened: Vec<Vec<f64>>,
}

impl<'a> BlockIter<'a> {
    /// Produces the next block, returning `None` when the partition is
    /// exhausted. The borrow ends at the next `next_block` call.
    pub fn next_block(&mut self) -> Option<Result<ColumnBlock<'_>>> {
        let chunk: &'a Segment = match self.chunks.get(self.next) {
            Some(chunk) => chunk,
            None if self.next == self.chunks.len() && self.tail.len() > 0 => self.tail,
            None => return None,
        };
        self.next += 1;
        Some(Ok(self.block(chunk)))
    }

    /// The whole chunk as one block: Float columns are borrowed in
    /// place, Int columns widen into scratch.
    fn block(&mut self, chunk: &'a Segment) -> ColumnBlock<'_> {
        let n = chunk.len();
        for (&c, widened) in self.cols.iter().zip(&mut self.widened) {
            if let Some(ints) = chunk.int_values(c) {
                widened.clear();
                widened.extend(ints.iter().map(|&v| v as f64));
            }
        }
        let columns = self
            .cols
            .iter()
            .zip(&self.widened)
            .map(|(&c, widened)| {
                let values = chunk.float_values(c).unwrap_or(widened);
                let validity = chunk.validity(c);
                let null_count = validity.map_or(0, |words| n - bitmap_count_ones(words));
                FloatColumn::new(values, validity, null_count)
            })
            .collect();
        ColumnBlock { len: n, columns }
    }
}

impl Table {
    /// Opens a block-at-a-time scan of partition `p` projecting the
    /// given table columns (by schema index, in the order the caller
    /// wants them in the block).
    ///
    /// Every projected column must be typed
    /// [`DataType::Float`](crate::DataType::Float); other types report
    /// [`StorageError::TypeMismatch`]. Out-of-range indices report
    /// [`StorageError::Corrupt`].
    pub fn scan_partition_blocks(&self, p: usize, cols: &[usize]) -> Result<BlockIter<'_>> {
        self.blocks_impl(p, cols, false)
    }

    /// Like [`Table::scan_partition_blocks`], but also accepts
    /// [`DataType::Int`](crate::DataType::Int) columns, whose values
    /// widen to `f64` in the block. The widening is exact iff every
    /// stored magnitude is ≤ 2⁵³ — callers that must reproduce `Int`
    /// values (narrowing back with `as i64`) check
    /// [`Table::int_widening_exact`] first and fall back to the row
    /// scan otherwise.
    pub fn scan_partition_blocks_numeric(&self, p: usize, cols: &[usize]) -> Result<BlockIter<'_>> {
        self.blocks_impl(p, cols, true)
    }

    fn blocks_impl(&self, p: usize, cols: &[usize], allow_int: bool) -> Result<BlockIter<'_>> {
        let schema = self.schema();
        for (slot, &c) in cols.iter().enumerate() {
            if c >= schema.len() {
                return Err(StorageError::Corrupt("projected column out of range"));
            }
            let column = schema.column(c);
            let ok = column.ty == DataType::Float || (allow_int && column.ty == DataType::Int);
            if !ok {
                return Err(StorageError::TypeMismatch {
                    column: column.name.clone(),
                    expected: DataType::Float,
                });
            }
            if cols[..slot].contains(&c) {
                return Err(StorageError::Corrupt("duplicate column in projection"));
            }
        }
        let (chunks, tail) = self.partition_parts(p);
        Ok(BlockIter {
            chunks,
            tail,
            next: 0,
            cols: cols.to_vec(),
            widened: vec![Vec::new(); cols.len()],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, Schema, Value};

    fn points_table(n: usize, partitions: usize) -> Table {
        // X(i, X1, X2) with some NULLs and int-widened floats.
        let mut t = Table::new(Schema::points(2, false), partitions);
        for i in 0..n {
            let x1 = if i % 7 == 3 {
                Value::Null
            } else {
                Value::Float(i as f64)
            };
            let x2 = if i % 5 == 0 {
                Value::Int(i as i64 * 2)
            } else {
                Value::Float(i as f64 * 0.5)
            };
            t.insert(vec![Value::Int(i as i64), x1, x2]).unwrap();
        }
        t
    }

    fn collect_blocks(t: &Table, p: usize, cols: &[usize]) -> (Vec<usize>, Vec<f64>, usize) {
        let mut iter = t.scan_partition_blocks(p, cols).unwrap();
        let mut sizes = Vec::new();
        let mut values = Vec::new();
        let mut nulls = 0;
        while let Some(block) = iter.next_block() {
            let block = block.unwrap();
            assert_eq!(block.column_count(), cols.len());
            sizes.push(block.len());
            values.extend_from_slice(block.column(0).values);
            nulls += block.column(0).null_count();
        }
        (sizes, values, nulls)
    }

    #[test]
    fn blocks_cover_every_row_in_order() {
        // 2600 rows in one partition: 2 sealed blocks + a 552-row tail.
        let t = points_table(2600, 1);
        let (sizes, values, _) = collect_blocks(&t, 0, &[1, 2]);
        assert_eq!(sizes, vec![1024, 1024, 552]);
        assert_eq!(values.len(), 2600);
        // Non-NULL X1 values are the row index; NULL slots read 0.0.
        assert_eq!(values[1], 1.0);
        assert_eq!(values[3], 0.0, "NULL slot holds 0.0");
        assert_eq!(values[2599], 2599.0);
    }

    #[test]
    fn null_mask_counts_match() {
        let t = points_table(700, 1);
        let (_, _, nulls) = collect_blocks(&t, 0, &[1]);
        assert_eq!(nulls, (0..700).filter(|i| i % 7 == 3).count());
    }

    #[test]
    fn sealed_blocks_borrow_segment_columns() {
        // Three full chunks and a partial tail: each block's float view
        // and validity words must point into its own chunk, the tail
        // included (zero-decode).
        let mut t = points_table(4 * 1024 - 1, 1);
        let (chunks, tail) = t.partition_parts(0);
        assert_eq!(chunks.len(), 3);
        assert_eq!(tail.len(), 1023);
        let mut iter = t.scan_partition_blocks(0, &[1]).unwrap();
        for chunk in chunks.iter().map(|c| &**c).chain([tail]) {
            let block = iter.next_block().unwrap().unwrap();
            assert_eq!(block.len(), chunk.len());
            let col = block.column(0);
            assert!(std::ptr::eq(
                col.values.as_ptr(),
                chunk.float_values(1).unwrap().as_ptr()
            ));
            assert!(std::ptr::eq(
                col.validity().unwrap().as_ptr(),
                chunk.validity(1).unwrap().as_ptr()
            ));
        }
        assert!(iter.next_block().is_none());

        // The next insert seals the tail as it is: the new chunk owns
        // the very allocations the tail grew.
        let values = tail.float_values(1).unwrap().as_ptr();
        let validity = tail.validity(1).unwrap().as_ptr();
        t.insert(vec![Value::Int(0), Value::Float(1.0), Value::Float(2.0)])
            .unwrap();
        let (chunks, tail) = t.partition_parts(0);
        assert_eq!((chunks.len(), tail.len()), (4, 0));
        assert!(std::ptr::eq(
            values,
            chunks[3].float_values(1).unwrap().as_ptr()
        ));
        assert!(std::ptr::eq(
            validity,
            chunks[3].validity(1).unwrap().as_ptr()
        ));
    }

    #[test]
    fn int_values_widen_in_float_columns() {
        let t = points_table(10, 1);
        let mut iter = t.scan_partition_blocks(0, &[2]).unwrap();
        let block = iter.next_block().unwrap().unwrap();
        assert_eq!(block.column(0).values[5], 10.0, "Int(10) widens");
        assert!(block.column(0).is_dense());
    }

    #[test]
    fn numeric_scan_widens_int_columns_in_both_regions() {
        let t = points_table(1500, 1); // 1024 sealed + 476 tail
        let mut iter = t.scan_partition_blocks_numeric(0, &[0]).unwrap();
        let mut seen = Vec::new();
        while let Some(block) = iter.next_block() {
            let block = block.unwrap();
            assert!(block.column(0).is_dense());
            seen.extend_from_slice(block.column(0).values);
        }
        let expect: Vec<f64> = (0..1500).map(|i| i as f64).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn projection_order_is_caller_order() {
        let t = points_table(4, 1);
        let mut iter = t.scan_partition_blocks(0, &[2, 1]).unwrap();
        let block = iter.next_block().unwrap().unwrap();
        assert_eq!(block.column(0).values[1], 0.5, "X2 first");
        assert_eq!(block.column(1).values[1], 1.0, "X1 second");
    }

    #[test]
    fn empty_partition_yields_no_blocks() {
        let t = points_table(3, 8); // partitions 3..7 stay empty
        let mut iter = t.scan_partition_blocks(7, &[1]).unwrap();
        assert!(iter.next_block().is_none());
    }

    #[test]
    fn non_float_and_bad_projections_are_rejected() {
        let t = points_table(5, 1);
        assert!(matches!(
            t.scan_partition_blocks(0, &[0]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(t.scan_partition_blocks(0, &[9]).is_err());
        assert!(t.scan_partition_blocks(0, &[1, 1]).is_err());

        let mut strs = Table::new(Schema::new(vec![Column::new("s", DataType::Str)]), 1);
        strs.insert(vec![Value::Str("x".into())]).unwrap();
        assert!(strs.scan_partition_blocks(0, &[0]).is_err());
        assert!(strs.scan_partition_blocks_numeric(0, &[0]).is_err());
    }

    #[test]
    fn blocks_match_row_scan() {
        // Big enough that every partition has sealed blocks and a tail.
        let t = points_table(9000, 4);
        for p in 0..4 {
            let rows: Vec<Option<f64>> = t
                .scan_partition(p)
                .map(|r| r.unwrap()[1].as_f64())
                .collect();
            let mut via_blocks = Vec::new();
            let mut iter = t.scan_partition_blocks(p, &[1]).unwrap();
            while let Some(block) = iter.next_block() {
                let block = block.unwrap();
                let col = block.column(0);
                for i in 0..col.values.len() {
                    via_blocks.push((!col.is_null(i)).then_some(col.values[i]));
                }
            }
            assert_eq!(rows, via_blocks, "partition {p}");
        }
    }
}
