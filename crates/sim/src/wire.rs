//! Wire-size accounting for simulated messages.
//!
//! The paper's motivation leans on bandwidth: flooding "does not scale in
//! terms of bandwidth consumption" and broadcasting indexes "is prohibitive
//! in terms of bandwidth and storage". To make those comparisons concrete,
//! every simulated message reports its encoded size, and [`NetStats`]
//! accumulates bytes alongside message counts.
//!
//! [`NetStats`]: crate::NetStats

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "length prefix in the f32-slice encoding: payload lengths are bounded by corpus dimensions validated to fit u32"
)]

use bytes::{BufMut, BytesMut};

/// A message with a well-defined encoded size.
///
/// Implementations may serialize for real (see [`encode_f32_slice`]) or
/// compute the size analytically; the simulator only needs the byte count.
pub trait WireMessage {
    /// Size of the message on the wire, in bytes.
    fn wire_size(&self) -> usize;
}

/// Encodes a `f32` slice with a `u32` length prefix; returns the buffer.
///
/// Helper for protocol crates that want real encodings in tests: the
/// returned buffer's length is the wire size of the payload.
pub fn encode_f32_slice(values: &[f32]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(4 + 4 * values.len());
    buf.put_u32(values.len() as u32);
    for v in values {
        buf.put_f32(*v);
    }
    buf
}

/// Decodes a buffer produced by [`encode_f32_slice`].
///
/// Returns `None` if the buffer is truncated or the length prefix
/// disagrees with the payload.
pub fn decode_f32_slice(buf: &[u8]) -> Option<Vec<f32>> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if buf.len() != 4 + 4 * len {
        return None;
    }
    let mut out = Vec::with_capacity(len);
    for chunk in buf[4..].chunks_exact(4) {
        out.push(f32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    Some(out)
}

impl WireMessage for Vec<f32> {
    /// Length-prefixed IEEE-754 encoding: `4 + 4n` bytes.
    fn wire_size(&self) -> usize {
        4 + 4 * self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let values = vec![1.5f32, -2.25, 0.0, f32::MAX];
        let buf = encode_f32_slice(&values);
        assert_eq!(buf.len(), values.wire_size());
        let back = decode_f32_slice(&buf).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn empty_slice() {
        let buf = encode_f32_slice(&[]);
        assert_eq!(buf.len(), 4);
        assert_eq!(decode_f32_slice(&buf).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn rejects_truncated() {
        let buf = encode_f32_slice(&[1.0, 2.0]);
        assert!(decode_f32_slice(&buf[..buf.len() - 1]).is_none());
        assert!(decode_f32_slice(&[]).is_none());
        assert!(decode_f32_slice(&[0, 0]).is_none());
    }

    #[test]
    fn rejects_bad_length_prefix() {
        let mut buf = encode_f32_slice(&[1.0]).to_vec();
        buf[3] = 9; // claims 9 floats, carries 1
        assert!(decode_f32_slice(&buf).is_none());
    }
}
