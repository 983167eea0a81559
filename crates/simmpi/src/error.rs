//! Runtime errors of the simulated MPI layer.

use std::fmt;

/// Errors raised by simulated communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The peer rank terminated (panicked or returned) while this rank was
    /// waiting for a message.
    PeerGone { from: u32 },
    /// Rank index out of range.
    InvalidRank { rank: u32, size: u32 },
    /// A receive observed a dropped message (an injected message-drop
    /// fault) and gave up after the fault plan's virtual-time receive
    /// timeout.
    Timeout { from: u32 },
    /// The operating rank passed its scheduled crash time: every further
    /// communication attempt fails with this error.
    RankCrashed { rank: u32 },
    /// A resilient operation used up its whole retry budget without
    /// succeeding.
    RetriesExhausted { peer: u32, attempts: u32 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PeerGone { from } => {
                write!(f, "rank {from} terminated while being waited on")
            }
            SimError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            SimError::Timeout { from } => {
                write!(f, "receive from rank {from} timed out (message dropped)")
            }
            SimError::RankCrashed { rank } => {
                write!(f, "rank {rank} has crashed (scheduled fault)")
            }
            SimError::RetriesExhausted { peer, attempts } => {
                write!(
                    f,
                    "operation with rank {peer} failed after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SimError::PeerGone { from: 3 };
        assert!(e.to_string().contains("rank 3"));
        let e = SimError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
    }
}
