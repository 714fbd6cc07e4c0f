use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::bytesx::{Buf, BufMut};

use crate::page::Page;
use crate::{Result, Row, Schema, StorageError, Table};

/// Magic bytes identifying a persisted table file.
const MAGIC: &[u8; 8] = b"NLQTBL01";

/// A table persisted to disk, scanned by re-reading its pages from the
/// file on every pass.
///
/// This mirrors the paper's experimental setting: "Table X is read
/// from disk every time; table X is not cached under any
/// circumstance" (§4). In-memory [`Table`]s model a warm buffer pool;
/// `DiskTable` models the paper's cold scans, paying real file I/O
/// and page decoding per scan. The on-disk layout is:
///
/// ```text
/// magic | schema | partition count | per-partition page directory | pages
/// ```
#[derive(Debug, Clone)]
pub struct DiskTable {
    path: PathBuf,
    schema: Schema,
    /// Per partition: (file offset, byte length, row count) per page.
    directory: Vec<Vec<(u64, u32, u32)>>,
    row_count: usize,
}

impl Table {
    /// Persists the table to `path` (overwriting), returning a
    /// [`DiskTable`] that scans it from disk.
    pub fn save(&self, path: &Path) -> Result<DiskTable> {
        let file = std::fs::File::create(path).map_err(StorageError::from_io)?;
        let mut out = BufWriter::new(file);
        let mut header = Vec::new();
        header.put_slice(MAGIC);
        encode_schema(self.schema(), &mut header);
        header.put_u32_le(self.partition_count() as u32);
        // The page directory is written after the pages (we need the
        // offsets first); reserve its position by writing pages
        // sequentially and collecting the directory in memory, then
        // appending it with a trailing pointer.
        out.write_all(&header).map_err(StorageError::from_io)?;
        let mut offset = header.len() as u64;
        let mut directory: Vec<Vec<(u64, u32, u32)>> = Vec::with_capacity(self.partition_count());
        // In-memory partitions are column-major chunks; the on-disk
        // format stays row-paged, so each partition re-encodes its rows
        // into transient pages while writing.
        let flush = |out: &mut BufWriter<std::fs::File>,
                     offset: &mut u64,
                     page: &Page|
         -> Result<(u64, u32, u32)> {
            let bytes = page.raw_bytes();
            out.write_all(bytes).map_err(StorageError::from_io)?;
            let entry = (*offset, bytes.len() as u32, page.row_count() as u32);
            *offset += bytes.len() as u64;
            Ok(entry)
        };
        for p in 0..self.partition_count() {
            let mut pages = Vec::new();
            let mut page = Page::new();
            for row in self.scan_partition(p) {
                let row = row?;
                if !page.fits(&row) && page.row_count() > 0 {
                    pages.push(flush(&mut out, &mut offset, &page)?);
                    page = Page::new();
                }
                page.push(&row);
            }
            if page.row_count() > 0 {
                pages.push(flush(&mut out, &mut offset, &page)?);
            }
            directory.push(pages);
        }
        // Trailer: directory + its starting offset.
        let mut trailer = Vec::new();
        for pages in &directory {
            trailer.put_u32_le(pages.len() as u32);
            for &(off, len, rows) in pages {
                trailer.put_u64_le(off);
                trailer.put_u32_le(len);
                trailer.put_u32_le(rows);
            }
        }
        trailer.put_u64_le(offset); // where the trailer starts
        out.write_all(&trailer).map_err(StorageError::from_io)?;
        out.flush().map_err(StorageError::from_io)?;
        Ok(DiskTable {
            path: path.to_path_buf(),
            schema: self.schema().clone(),
            directory,
            row_count: self.row_count(),
        })
    }
}

impl DiskTable {
    /// Opens a previously saved table.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = std::fs::File::open(path).map_err(StorageError::from_io)?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic).map_err(StorageError::from_io)?;
        if &magic != MAGIC {
            return Err(StorageError::Corrupt("bad table file magic"));
        }
        // Schema.
        let mut header = Vec::new();
        // Read the remainder of the file once to parse schema + trailer
        // (the directory); page reads afterwards seek directly.
        file.read_to_end(&mut header)
            .map_err(StorageError::from_io)?;
        let mut cursor = header.as_slice();
        let schema = decode_schema(&mut cursor)?;
        if cursor.remaining() < 4 {
            return Err(StorageError::Corrupt("truncated partition count"));
        }
        let partitions = cursor.get_u32_le() as usize;
        // Trailer offset is the last 8 bytes of the file.
        if header.len() < 8 {
            return Err(StorageError::Corrupt("truncated trailer"));
        }
        let trailer_off = {
            let tail = &header[header.len() - 8..];
            u64::from_le_bytes(tail.try_into().expect("8 bytes"))
        };
        // The header vec starts right after MAGIC (offset 8 in file).
        let trailer_idx = (trailer_off - 8) as usize;
        let mut trailer = &header[trailer_idx..header.len() - 8];
        let mut directory = Vec::with_capacity(partitions);
        let mut row_count = 0usize;
        for _ in 0..partitions {
            if trailer.remaining() < 4 {
                return Err(StorageError::Corrupt("truncated directory"));
            }
            let pages = trailer.get_u32_le() as usize;
            let mut dir = Vec::with_capacity(pages);
            for _ in 0..pages {
                if trailer.remaining() < 16 {
                    return Err(StorageError::Corrupt("truncated directory entry"));
                }
                let off = trailer.get_u64_le();
                let len = trailer.get_u32_le();
                let rows = trailer.get_u32_le();
                row_count += rows as usize;
                dir.push((off, len, rows));
            }
            directory.push(dir);
        }
        Ok(DiskTable {
            path: path.to_path_buf(),
            schema,
            directory,
            row_count,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.directory.len()
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Scans one partition, reading each page from disk as the scan
    /// reaches it (a cold scan: no page is retained).
    pub fn scan_partition(&self, p: usize) -> DiskPartitionIter<'_> {
        DiskPartitionIter {
            table: self,
            pages: &self.directory[p],
            page_idx: 0,
            file: None,
            current: None,
        }
    }

    /// Loads the whole table back into memory.
    pub fn to_table(&self) -> Result<Table> {
        let mut table = Table::new(self.schema.clone(), self.partition_count().max(1));
        for p in 0..self.partition_count() {
            for row in self.scan_partition(p) {
                table.insert(row?)?;
            }
        }
        Ok(table)
    }
}

/// Iterator over one disk partition's rows; owns a file handle and
/// the decoded rows of one page at a time.
pub struct DiskPartitionIter<'a> {
    table: &'a DiskTable,
    pages: &'a [(u64, u32, u32)],
    page_idx: usize,
    file: Option<std::fs::File>,
    current: Option<std::vec::IntoIter<Result<Row>>>,
}

impl DiskPartitionIter<'_> {
    fn next_page(&mut self) -> Result<Option<Page>> {
        if self.page_idx >= self.pages.len() {
            return Ok(None);
        }
        let (off, len, rows) = self.pages[self.page_idx];
        self.page_idx += 1;
        if self.file.is_none() {
            self.file = Some(std::fs::File::open(&self.table.path).map_err(StorageError::from_io)?);
        }
        let file = self.file.as_mut().expect("just opened");
        file.seek(SeekFrom::Start(off))
            .map_err(StorageError::from_io)?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf).map_err(StorageError::from_io)?;
        Ok(Some(Page::from_raw(buf, rows)))
    }
}

impl Iterator for DiskPartitionIter<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rows) = &mut self.current {
                if let Some(row) = rows.next() {
                    return Some(row);
                }
                self.current = None;
            }
            match self.next_page() {
                Err(e) => return Some(Err(e)),
                Ok(None) => return None,
                Ok(Some(page)) => {
                    // Decode the freshly read page once; the decode
                    // cost per row matches the in-memory scan path.
                    let rows: Vec<Result<Row>> = page.iter().collect();
                    self.current = Some(rows.into_iter());
                }
            }
        }
    }
}

fn encode_schema(schema: &Schema, buf: &mut Vec<u8>) {
    buf.put_u32_le(schema.len() as u32);
    for col in schema.columns() {
        let ty = match col.ty {
            crate::DataType::Int => 0u8,
            crate::DataType::Float => 1,
            crate::DataType::Str => 2,
        };
        buf.put_u8(ty);
        buf.put_u32_le(col.name.len() as u32);
        buf.put_slice(col.name.as_bytes());
    }
}

fn decode_schema(buf: &mut &[u8]) -> Result<Schema> {
    if buf.remaining() < 4 {
        return Err(StorageError::Corrupt("truncated schema"));
    }
    let ncols = buf.get_u32_le() as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if buf.remaining() < 5 {
            return Err(StorageError::Corrupt("truncated column"));
        }
        let ty = match buf.get_u8() {
            0 => crate::DataType::Int,
            1 => crate::DataType::Float,
            2 => crate::DataType::Str,
            _ => return Err(StorageError::Corrupt("unknown column type")),
        };
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(StorageError::Corrupt("truncated column name"));
        }
        let name = std::str::from_utf8(&buf[..len])
            .map_err(|_| StorageError::Corrupt("invalid column name"))?
            .to_owned();
        buf.advance(len);
        cols.push(crate::Column::new(name, ty));
    }
    Ok(Schema::new(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nlq_disk_{name}_{}", std::process::id()))
    }

    /// `X(i, X1, X2)` with a NULL in every seventh X1 and an Int in
    /// every fifth X2 (the schema admits ints in float columns).
    fn sample_table(n: usize, partitions: usize) -> Table {
        let mut t = Table::new(Schema::points(2, false), partitions);
        for i in 0..n {
            t.insert(vec![
                Value::Int(i as i64),
                if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::Float(i as f64 * 0.5)
                },
                if i % 5 == 0 {
                    Value::Int(-(i as i64))
                } else {
                    Value::Float(-(i as f64))
                },
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn save_open_roundtrip() {
        // 125 rows per partition stay in the tails; the larger size
        // gives every partition two sealed chunks and a 37-row tail.
        for per_partition in [125, 2 * crate::SEGMENT_ROWS + 37] {
            let n = 4 * per_partition;
            let table = sample_table(n, 4);
            let path = temp(&format!("roundtrip_{n}"));
            let saved = table.save(&path).unwrap();
            assert_eq!(saved.row_count(), n);
            assert_eq!(saved.partition_count(), 4);

            let opened = DiskTable::open(&path).unwrap();
            assert_eq!(opened.row_count(), n);
            assert_eq!(opened.schema(), table.schema());

            // Rows come back identical, per partition.
            for p in 0..4 {
                let mem: Vec<Row> = table.scan_partition(p).map(|r| r.unwrap()).collect();
                let disk: Vec<Row> = opened.scan_partition(p).map(|r| r.unwrap()).collect();
                assert_eq!(mem.len(), per_partition);
                assert_eq!(mem, disk, "partition {p}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn to_table_restores_everything() {
        let table = sample_table(200, 3);
        let path = temp("restore");
        let saved = table.save(&path).unwrap();
        let restored = saved.to_table().unwrap();
        assert_eq!(restored.row_count(), table.row_count());
        // Re-insertion re-distributes rows round-robin, so compare as
        // multisets (sorted by the id column).
        let sorted = |t: &Table| -> Vec<Row> {
            let mut rows: Vec<Row> = t.scan_all().map(|r| r.unwrap()).collect();
            rows.sort_by_key(|r| r[0].as_i64().unwrap());
            rows
        };
        assert_eq!(sorted(&table), sorted(&restored));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multiple_scans_reread_from_disk() {
        let table = sample_table(100, 2);
        let path = temp("rescan");
        let saved = table.save(&path).unwrap();
        // Two scans of the same partition produce the same rows (each
        // opens its own file handle).
        let one: Vec<Row> = saved.scan_partition(0).map(|r| r.unwrap()).collect();
        let two: Vec<Row> = saved.scan_partition(0).map(|r| r.unwrap()).collect();
        assert_eq!(one, two);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let path = temp("corrupt");
        std::fs::write(&path, b"not a table").unwrap();
        assert!(DiskTable::open(&path).is_err());
        std::fs::write(&path, b"NLQTBL01").unwrap();
        assert!(DiskTable::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strings_and_nulls_survive() {
        let mut t = Table::new(
            Schema::new(vec![
                crate::Column::new("s", crate::DataType::Str),
                crate::Column::new("v", crate::DataType::Float),
            ]),
            2,
        );
        t.insert(vec![Value::from("héllo, wörld"), Value::Null])
            .unwrap();
        t.insert(vec![Value::Null, Value::Float(2.5)]).unwrap();
        let path = temp("strings");
        let saved = t.save(&path).unwrap();
        let rows: Vec<Row> = (0..2)
            .flat_map(|p| saved.scan_partition(p).map(|r| r.unwrap()))
            .collect();
        assert!(rows.contains(&vec![Value::from("héllo, wörld"), Value::Null]));
        assert!(rows.contains(&vec![Value::Null, Value::Float(2.5)]));
        std::fs::remove_file(&path).ok();
    }
}
