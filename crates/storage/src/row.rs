use crate::bytesx::{Buf, BufMut};

use crate::{StorageError, Value};

/// A row is an ordered list of values.
pub type Row = Vec<Value>;

/// Value tags used in the page encoding.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Appends the wire encoding of `row` to `buf`.
///
/// Layout: `u16` column count, then per value a 1-byte tag followed by
/// the payload (`i64`/`f64` little-endian, or `u32` length + UTF-8
/// bytes for strings).
pub(crate) fn encode_row(row: &[Value], buf: &mut Vec<u8>) {
    buf.put_u16_le(row.len() as u16);
    for v in row {
        match v {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*i);
            }
            Value::Float(f) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_f64_le(*f);
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// Size in bytes that `row` will occupy once encoded.
pub(crate) fn encoded_len(row: &[Value]) -> usize {
    2 + row
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

/// Decodes one row from the front of `buf`, advancing it.
pub(crate) fn decode_row(buf: &mut &[u8]) -> crate::Result<Row> {
    if buf.remaining() < 2 {
        return Err(StorageError::Corrupt("truncated row header"));
    }
    let ncols = buf.get_u16_le() as usize;
    let mut row = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if buf.remaining() < 1 {
            return Err(StorageError::Corrupt("truncated value tag"));
        }
        let tag = buf.get_u8();
        let value = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated int payload"));
                }
                Value::Int(buf.get_i64_le())
            }
            TAG_FLOAT => {
                if buf.remaining() < 8 {
                    return Err(StorageError::Corrupt("truncated float payload"));
                }
                Value::Float(buf.get_f64_le())
            }
            TAG_STR => {
                if buf.remaining() < 4 {
                    return Err(StorageError::Corrupt("truncated string length"));
                }
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(StorageError::Corrupt("truncated string payload"));
                }
                let bytes = &buf[..len];
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| StorageError::Corrupt("invalid utf8 in string"))?
                    .to_owned();
                buf.advance(len);
                Value::Str(s)
            }
            _ => return Err(StorageError::Corrupt("unknown value tag")),
        };
        row.push(value);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Row) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), encoded_len(&row));
        let mut slice = buf.as_slice();
        let decoded = decode_row(&mut slice).unwrap();
        assert!(slice.is_empty(), "decoder must consume the whole row");
        assert_eq!(decoded, row);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.5),
            Value::Str("hello".into()),
        ]);
    }

    #[test]
    fn roundtrip_empty_and_unicode() {
        roundtrip(vec![]);
        roundtrip(vec![
            Value::Str(String::new()),
            Value::Str("héllo ∑".into()),
        ]);
    }

    #[test]
    fn roundtrip_extreme_floats() {
        roundtrip(vec![
            Value::Float(f64::MAX),
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(-0.0),
            Value::Int(i64::MIN),
        ]);
    }

    #[test]
    fn truncated_data_is_detected() {
        let mut buf = Vec::new();
        encode_row(&[Value::Int(7)], &mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(decode_row(&mut slice).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_is_detected() {
        let buf = vec![1, 0, 99]; // one column, bogus tag 99
        let mut slice = buf.as_slice();
        assert_eq!(
            decode_row(&mut slice).unwrap_err(),
            StorageError::Corrupt("unknown value tag")
        );
    }

    #[test]
    fn multiple_rows_decode_sequentially() {
        let mut buf = Vec::new();
        encode_row(&[Value::Int(1)], &mut buf);
        encode_row(&[Value::Int(2)], &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_row(&mut slice).unwrap(), vec![Value::Int(1)]);
        assert_eq!(decode_row(&mut slice).unwrap(), vec![Value::Int(2)]);
        assert!(slice.is_empty());
    }
}
