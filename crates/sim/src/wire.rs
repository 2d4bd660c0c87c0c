//! Wire-size accounting for simulated messages.
//!
//! The paper's motivation leans on bandwidth: flooding "does not scale in
//! terms of bandwidth consumption" and broadcasting indexes "is prohibitive
//! in terms of bandwidth and storage". To make those comparisons concrete,
//! every simulated message reports its encoded size, and [`NetStats`]
//! accumulates bytes alongside message counts.
//!
//! [`NetStats`]: crate::NetStats

/// A message with a well-defined encoded size.
///
/// The simulator only needs the byte count, so implementations compute
/// the size of the message's encoding analytically.
pub trait WireMessage {
    /// Size of the message on the wire, in bytes.
    fn wire_size(&self) -> usize;
}
