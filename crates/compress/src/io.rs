//! Little-endian byte cursors used by every codec.
//!
//! Reads are bounds-checked and surface [`VwError::Corruption`] rather than
//! panicking: a corrupted block must fail the query, not the process.

use vw_common::{Result, VwError};

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Finish, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte cursor.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(VwError::Corruption(format!(
                "unexpected end of block: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        // Infallible: take(4) is exactly 4 bytes or a Corruption error.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        // Infallible: take(8) is exactly 8 bytes or a Corruption error.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEADBEEF);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes(3).unwrap(), b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn overrun_is_corruption_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(VwError::Corruption(_))));
        // Failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u8().unwrap(), 1);
    }
}
