//! The one bounded little-endian reader over untrusted bytes, shared by
//! the report blob parser and every CSRP payload decoder.
//!
//! Every accessor fails with a [`CursorError`] instead of slicing past
//! the end. The error only says what happened and where; each format
//! converts it into its own typed error (`CuszpError` for report blobs,
//! `WireError` for CSRP payloads).

/// Why a [`ByteCursor`] read failed, and at which byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorError {
    /// Fewer bytes remained than the read needed; `pos` is where the
    /// read started.
    Truncated {
        /// Offset of the failed read.
        pos: usize,
    },
    /// A length-prefixed string was not UTF-8; `pos` is just past it.
    NotUtf8 {
        /// Offset after the string's bytes.
        pos: usize,
    },
}

/// Bounded little-endian reader over `(buf, pos)`.
#[derive(Debug, Clone)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CursorError> {
        if self.remaining() < n {
            return Err(CursorError::Truncated { pos: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CursorError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returned exactly N bytes"))
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// All bytes not yet consumed (a "rest of payload" field).
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// How many bytes are left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CursorError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CursorError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CursorError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CursorError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CursorError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A string as [`put_str`] wrote it: `u16` byte length, then UTF-8.
    pub fn str(&mut self) -> Result<String, CursorError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| CursorError::NotUtf8 { pos: self.pos })
    }
}

/// Appends `s` as a `u16` byte length plus its bytes (longer strings are
/// cut at `u16::MAX` bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_bounded_and_report_where_they_stopped() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0x0102u16.to_le_bytes());
        put_str(&mut buf, "héllo");
        let mut c = ByteCursor::new(&buf);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u16(), Ok(0x0102));
        assert_eq!(c.str().as_deref(), Ok("héllo"));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.u32(), Err(CursorError::Truncated { pos: buf.len() }));

        // A string cut mid-character is typed, not a panic.
        let mut c = ByteCursor::new(&[2, 0, b'h', 0xC3]);
        assert_eq!(c.str(), Err(CursorError::NotUtf8 { pos: 4 }));
    }
}
