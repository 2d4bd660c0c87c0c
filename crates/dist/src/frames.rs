//! Wire frames of the distributed shard exchange.
//!
//! Boundary data crosses the simulated interconnect as two frame kinds:
//! [`ShardFrame::Residual`] carries buffered cross-shard residual mass for
//! one push round barrier, and [`ShardFrame::Kick`] is the driver's
//! injected wake-up that makes a shard endpoint transmit its staged frames
//! (kicks are injected locally and never traverse a link, so they do not
//! pollute byte accounting).
//!
//! Every frame is epoch-tagged so round barriers can match deliveries to
//! the exchange round they belong to, and [`WireMessage::wire_size`] is
//! **exact**: it equals the length of [`ShardFrame::encode`]'s output byte
//! for byte (asserted by tests and by the `ablation_distributed` smoke
//! run), so transport byte statistics are truthful.
//!
//! # Encoding
//!
//! Big-endian throughout, one tag byte then the epoch:
//!
//! ```text
//! Kick:     0x00 | epoch u64                                    (9 bytes)
//! Residual: 0x02 | epoch u64 | n u32 | n × (u32, f32)     (13 + 8n bytes)
//! ```

#![expect(
    clippy::expect_used,
    reason = "try_into on the 4-byte halves of chunks_exact(8): each half is statically 4 bytes; a Residual frame's entry count past u32::MAX is a caller bug encode documents"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_sim::WireMessage;

/// Tag byte + epoch.
const HEADER_BYTES: usize = 1 + 8;
/// Header + payload-length prefix.
const PREFIXED_HEADER_BYTES: usize = HEADER_BYTES + 4;

/// One message of the distributed shard-exchange protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFrame {
    /// Driver-injected wake-up: "transmit your staged frames for `epoch`".
    Kick {
        /// The exchange round being (re)transmitted.
        epoch: u64,
    },
    /// Cross-shard residual mass for one push round: `(destination-local
    /// row, weight)` contributions in emission order.
    Residual {
        /// The exchange round the mass belongs to.
        epoch: u64,
        /// Contributions, in the sender's emission order.
        entries: Vec<(u32, f32)>,
    },
}

impl ShardFrame {
    /// The frame's epoch tag.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        match self {
            ShardFrame::Kick { epoch } | ShardFrame::Residual { epoch, .. } => *epoch,
        }
    }

    /// Serializes the frame; the returned buffer's length is exactly
    /// [`WireMessage::wire_size`].
    ///
    /// # Panics
    ///
    /// Panics if a Residual frame holds more than `u32::MAX` entries, the
    /// most its `u32` length prefix can count.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_size());
        match self {
            ShardFrame::Kick { epoch } => {
                buf.push(0);
                buf.extend_from_slice(&epoch.to_be_bytes());
            }
            ShardFrame::Residual { epoch, entries } => {
                buf.push(2);
                buf.extend_from_slice(&epoch.to_be_bytes());
                buf.extend_from_slice(&entry_count(entries.len()).to_be_bytes());
                for (row, w) in entries {
                    buf.extend_from_slice(&row.to_be_bytes());
                    buf.extend_from_slice(&w.to_be_bytes());
                }
            }
        }
        debug_assert_eq!(buf.len(), self.wire_size());
        buf
    }

    /// Deserializes a frame produced by [`ShardFrame::encode`]. Values
    /// round-trip bit-for-bit (IEEE-754 bytes are copied verbatim), which
    /// is what lets the distributed engines reproduce the in-process
    /// results exactly.
    ///
    /// Returns `None` for truncated, oversized or unknown-tag buffers.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let tag = *buf.first()?;
        let epoch = u64::from_be_bytes(buf.get(1..HEADER_BYTES)?.try_into().ok()?);
        match tag {
            0 => (buf.len() == HEADER_BYTES).then_some(ShardFrame::Kick { epoch }),
            2 => {
                let n = u32::from_be_bytes(
                    buf.get(HEADER_BYTES..PREFIXED_HEADER_BYTES)?
                        .try_into()
                        .ok()?,
                ) as usize;
                let body = buf.get(PREFIXED_HEADER_BYTES..)?;
                if body.len() != 8 * n {
                    return None;
                }
                let entries = body
                    .chunks_exact(8)
                    .map(|c| {
                        (
                            u32::from_be_bytes(c[..4].try_into().expect("chunk of 4")),
                            f32::from_be_bytes(c[4..].try_into().expect("chunk of 4")),
                        )
                    })
                    .collect();
                Some(ShardFrame::Residual { epoch, entries })
            }
            _ => None,
        }
    }
}

/// A Residual frame's length prefix: its entry count, which must fit the
/// prefix's `u32`.
fn entry_count(len: usize) -> u32 {
    u32::try_from(len).expect("a Residual frame holds at most u32::MAX entries")
}

impl WireMessage for ShardFrame {
    /// Exact encoded size (asserted against [`ShardFrame::encode`] in
    /// tests) — the transport's byte statistics are meaningful only if
    /// this never drifts from the real encoding.
    fn wire_size(&self) -> usize {
        match self {
            ShardFrame::Kick { .. } => HEADER_BYTES,
            ShardFrame::Residual { entries, .. } => PREFIXED_HEADER_BYTES + 8 * entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ShardFrame> {
        vec![
            ShardFrame::Kick { epoch: 0 },
            ShardFrame::Kick { epoch: u64::MAX },
            ShardFrame::Residual {
                epoch: 9,
                entries: vec![],
            },
            ShardFrame::Residual {
                epoch: 1 << 40,
                entries: vec![
                    (0, 0.125),
                    (u32::MAX, -7.5),
                    (3, f32::MIN_POSITIVE),
                    (7, -0.0),
                ],
            },
        ]
    }

    #[test]
    fn wire_size_is_exactly_the_encoded_length() {
        for frame in samples() {
            assert_eq!(
                frame.encode().len(),
                frame.wire_size(),
                "wire_size drifted for {frame:?}"
            );
        }
    }

    #[test]
    fn a_residual_frame_keeps_its_bytes() {
        let frame = ShardFrame::Residual {
            epoch: 1 << 40,
            entries: vec![(0, 0.125), (7, -0.0)],
        };
        let want = [
            [2].as_slice(),               // tag
            &[0, 0, 1, 0, 0, 0, 0, 0],    // epoch
            &[0, 0, 0, 2],                // entry count
            &[0, 0, 0, 0, 0x3e, 0, 0, 0], // (0, 0.125)
            &[0, 0, 0, 7, 0x80, 0, 0, 0], // (7, -0.0)
        ];
        assert_eq!(frame.encode(), want.concat());
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX entries")]
    fn an_entry_count_past_the_prefix_panics() {
        assert_eq!(entry_count(u32::MAX as usize), u32::MAX);
        let _ = entry_count(u32::MAX as usize + 1);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for frame in samples() {
            let back = ShardFrame::decode(&frame.encode()).expect("decodes");
            // Compare the bits, not the floats: -0.0 == 0.0 under
            // PartialEq but must still survive the wire unchanged.
            assert_eq!(back.encode(), frame.encode());
            assert_eq!(back.epoch(), frame.epoch());
        }
    }

    #[test]
    fn rejects_malformed_buffers() {
        assert!(ShardFrame::decode(&[]).is_none());
        assert!(ShardFrame::decode(&[9; 9]).is_none(), "unknown tag");
        let buf = ShardFrame::Residual {
            epoch: 1,
            entries: vec![(1, 1.0), (2, 2.0)],
        }
        .encode();
        assert!(ShardFrame::decode(&buf[..buf.len() - 1]).is_none());
        let mut long = buf.clone();
        long.push(0);
        assert!(ShardFrame::decode(&long).is_none());
        let mut bad_len = buf;
        bad_len[12] = 9; // claims 9 entries, carries 2
        assert!(ShardFrame::decode(&bad_len).is_none());
        let kick = ShardFrame::Kick { epoch: 3 }.encode();
        assert!(ShardFrame::decode(&kick[..5]).is_none());
        // Every truncation and every one-byte extension of every sample
        // reaches the length checks before a "chunk of 4" `expect`.
        for frame in samples() {
            let buf = frame.encode();
            for len in 0..buf.len() {
                assert!(
                    ShardFrame::decode(&buf[..len]).is_none(),
                    "{len}-byte prefix of {frame:?}"
                );
            }
            let mut long = buf;
            long.push(0);
            assert!(ShardFrame::decode(&long).is_none(), "{frame:?} + 1 byte");
        }
    }
}
