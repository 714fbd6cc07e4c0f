//! Row pages: the checkpoint format of [`Table::save`](crate::Table::save)
//! and [`DiskTable`](crate::DiskTable).

use crate::row::{decode_row, encode_row, encoded_len};
use crate::{Result, Row};

/// Target page size in bytes.
///
/// 64 KB, matching the single heap segment a Teradata UDF may allocate
/// (§2.2) — a convenient coincidence that keeps all buffer math in the
/// workspace on one number.
pub(crate) const PAGE_SIZE: usize = 64 * 1024;

/// A page of encoded rows.
///
/// Rows are appended until the byte budget is exhausted; a row larger
/// than [`PAGE_SIZE`] gets a page to itself.
#[derive(Debug, Default)]
pub(crate) struct Page {
    buf: Vec<u8>,
    rows: u32,
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Self {
        Page::default()
    }

    /// Number of rows stored in this page.
    pub fn row_count(&self) -> usize {
        self.rows as usize
    }

    /// Whether `row` still fits in this page's byte budget.
    pub fn fits(&self, row: &[crate::Value]) -> bool {
        self.buf.is_empty() || self.buf.len() + encoded_len(row) <= PAGE_SIZE
    }

    /// Appends a row. Caller is responsible for checking [`Page::fits`]
    /// first (a row is never rejected, so oversized rows still land).
    pub fn push(&mut self, row: &[crate::Value]) {
        encode_row(row, &mut self.buf);
        self.rows += 1;
    }

    /// Raw encoded bytes of this page (for persistence).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Reconstructs a page from raw bytes and a row count (as written
    /// by [`Page::raw_bytes`]).
    pub fn from_raw(buf: Vec<u8>, rows: u32) -> Self {
        Page { buf, rows }
    }

    /// Iterates the rows of this page, decoding on the fly.
    pub fn iter(&self) -> PageIter<'_> {
        PageIter {
            remaining: &self.buf,
            rows_left: self.rows,
        }
    }
}

/// Iterator over the decoded rows of a [`Page`].
pub(crate) struct PageIter<'a> {
    remaining: &'a [u8],
    rows_left: u32,
}

impl Iterator for PageIter<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rows_left == 0 {
            return None;
        }
        self.rows_left -= 1;
        Some(decode_row(&mut self.remaining))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rows_left as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn push_and_iterate() {
        let mut p = Page::new();
        for i in 0..10 {
            p.push(&[Value::Int(i), Value::Float(i as f64 * 0.5)]);
        }
        assert_eq!(p.row_count(), 10);
        let rows: Vec<Row> = p.iter().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3], vec![Value::Int(3), Value::Float(1.5)]);
    }

    #[test]
    fn fits_respects_budget() {
        let mut p = Page::new();
        let row = vec![Value::Str("x".repeat(1000))];
        assert!(p.fits(&row), "empty page accepts anything");
        while p.fits(&row) {
            p.push(&row);
        }
        assert!(p.raw_bytes().len() <= PAGE_SIZE);
        // ~64 KB / ~1 KB rows: around 65 rows.
        assert!(
            p.row_count() >= 60 && p.row_count() <= 66,
            "{}",
            p.row_count()
        );
    }

    #[test]
    fn oversized_row_is_accepted_on_empty_page() {
        let mut p = Page::new();
        let big = vec![Value::Str("y".repeat(PAGE_SIZE * 2))];
        assert!(p.fits(&big));
        p.push(&big);
        assert_eq!(p.row_count(), 1);
        assert!(!p.fits(&[Value::Int(1)]));
        let rows: Vec<Row> = p.iter().map(|r| r.unwrap()).collect();
        assert_eq!(rows[0], big);
    }

    #[test]
    fn empty_page_iterates_nothing() {
        let p = Page::new();
        assert_eq!(p.iter().count(), 0);
        assert_eq!(p.iter().size_hint(), (0, Some(0)));
    }
}
