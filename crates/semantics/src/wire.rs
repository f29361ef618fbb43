//! Minimal byte-reader helpers shared by every decoder of untrusted
//! bytes.
//!
//! The canonical encoding produced by `Config::canonical_bytes` doubles
//! as the checkpoint wire format for frontier configurations, so the
//! decoders in `config.rs` / `value.rs` and the checker's checkpoint and
//! spill codecs need a common way to consume little-endian scalars from
//! a shrinking slice. Every reader returns `None` on underflow; callers
//! treat that as "malformed input", never as a panic.

/// Splits `n` bytes off the front of `buf`, or `None` on underflow.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

/// Reads one byte.
pub fn read_u8(buf: &mut &[u8]) -> Option<u8> {
    take(buf, 1).map(|b| b[0])
}

/// Reads a little-endian `u32`.
pub fn read_u32(buf: &mut &[u8]) -> Option<u32> {
    take(buf, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Reads a little-endian `u64`.
pub fn read_u64(buf: &mut &[u8]) -> Option<u64> {
    take(buf, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Reads a little-endian `u128`.
pub fn read_u128(buf: &mut &[u8]) -> Option<u128> {
    take(buf, 16).map(|b| u128::from_le_bytes(b.try_into().expect("16 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_consume_and_bound_check() {
        let bytes = [7u8, 1, 0, 0, 0, 9];
        let mut cur = &bytes[..];
        assert_eq!(read_u8(&mut cur), Some(7));
        assert_eq!(read_u32(&mut cur), Some(1));
        assert_eq!(cur, &[9]);
        assert_eq!(read_u32(&mut cur), None, "underflow must not consume");
        assert_eq!(read_u8(&mut cur), Some(9));
        assert_eq!(read_u8(&mut cur), None);
    }

    #[test]
    fn readers_consume_in_order() {
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&11u128.to_le_bytes());
        let mut cur = &bytes[..];
        assert_eq!(read_u8(&mut cur), Some(3));
        assert_eq!(read_u32(&mut cur), Some(7));
        assert_eq!(read_u64(&mut cur), Some(9));
        assert_eq!(read_u128(&mut cur), Some(11));
        assert!(cur.is_empty());
        assert_eq!(read_u8(&mut cur), None);
    }
}
