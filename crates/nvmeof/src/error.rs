//! Error types for the NVMe-oF stack.

use crate::nvme::completion::Status;

/// Errors surfaced by the NVMe-oF target, initiator and codec.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a catch-all
/// arm so new fault classes (the robustness work keeps finding them) can
/// be added without breaking callers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NvmeofError {
    /// Malformed or truncated PDU bytes.
    Codec(String),
    /// The peer hung up or the transport failed.
    TransportClosed,
    /// The peer violated the protocol state machine.
    Protocol(String),
    /// The device returned a non-success NVMe status.
    Nvme(Status),
    /// Shared-memory payload channel failure.
    Payload(String),
    /// A ring-based transport stayed full past its backoff budget —
    /// congestion (or a stalled peer), not corruption. Retryable.
    RingFull,
    /// A blocking operation timed out. Carries the command identifier
    /// when the timeout belongs to a specific in-flight command (its
    /// retry budget ran out); `None` for connection-level waits such as
    /// the handshake.
    Timeout {
        /// The command that exhausted its deadline, if any.
        cid: Option<u16>,
    },
    /// A received frame failed its CRC — bit damage on the fabric, not
    /// a protocol violation. Droppable: the sender's deadline/retry
    /// machinery re-covers the loss.
    CorruptFrame,
    /// The peer stopped responding to keep-alives past the grace
    /// period; the connection is unusable.
    PeerDead,
    /// A wait named a command id that is not in flight on this
    /// connection — already returned, or never issued — so no frame can
    /// ever complete it.
    UnknownCid {
        /// The command id that was awaited.
        cid: u16,
    },
}

impl std::fmt::Display for NvmeofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmeofError::Codec(m) => write!(f, "codec error: {m}"),
            NvmeofError::TransportClosed => write!(f, "transport closed"),
            NvmeofError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NvmeofError::Nvme(s) => write!(f, "nvme status: {s:?}"),
            NvmeofError::Payload(m) => write!(f, "payload channel: {m}"),
            NvmeofError::RingFull => write!(f, "transport ring full (congestion)"),
            NvmeofError::Timeout { cid: Some(cid) } => {
                write!(f, "command {cid} timed out (retry budget exhausted)")
            }
            NvmeofError::Timeout { cid: None } => write!(f, "operation timed out"),
            NvmeofError::CorruptFrame => write!(f, "frame failed CRC (corrupt)"),
            NvmeofError::PeerDead => write!(f, "peer declared dead (keep-alive misses)"),
            NvmeofError::UnknownCid { cid } => write!(f, "command {cid} is not in flight"),
        }
    }
}

impl NvmeofError {
    /// A connection-level timeout (no specific command).
    pub fn timeout() -> Self {
        NvmeofError::Timeout { cid: None }
    }
}

impl std::error::Error for NvmeofError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NvmeofError::Codec("short header".into());
        assert!(e.to_string().contains("short header"));
        assert!(NvmeofError::timeout().to_string().contains("timed out"));
        assert!(NvmeofError::Timeout { cid: Some(17) }
            .to_string()
            .contains("17"));
        assert!(NvmeofError::CorruptFrame.to_string().contains("CRC"));
        assert!(NvmeofError::PeerDead.to_string().contains("dead"));
        assert!(NvmeofError::UnknownCid { cid: 42 }
            .to_string()
            .contains("42 is not in flight"));
        assert!(NvmeofError::Nvme(Status::LbaOutOfRange)
            .to_string()
            .contains("LbaOutOfRange"));
    }
}
