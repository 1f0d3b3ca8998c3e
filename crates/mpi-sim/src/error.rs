//! Error type for communicator operations.

use std::fmt;

/// Errors produced by point-to-point or collective operations.
#[derive(Debug)]
pub enum CommError {
    /// The peer's endpoint has been dropped (its rank body returned early or
    /// panicked), so the message can never be delivered or received.
    Disconnected {
        /// Rank of the unreachable peer.
        peer: usize,
    },
    /// A message arrived with the expected tag but its payload was not of the
    /// requested type. In a correct SPMD program this indicates mismatched
    /// send/receive types.
    TypeMismatch {
        /// Rank of the sender.
        src: usize,
        /// Tag of the offending message.
        tag: u64,
    },
    /// A rank index outside `0..size` was supplied.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer } => {
                write!(f, "peer rank {peer} disconnected")
            }
            CommError::TypeMismatch { src, tag } => {
                write!(
                    f,
                    "payload type mismatch on message from rank {src} tag {tag}"
                )
            }
            CommError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias for communicator operations.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let d = CommError::Disconnected { peer: 3 };
        assert!(d.to_string().contains("rank 3"));
        let t = CommError::TypeMismatch { src: 1, tag: 42 };
        assert!(t.to_string().contains("tag 42"));
        let r = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(r.to_string().contains('9'));
        assert!(r.to_string().contains('4'));
    }

    #[test]
    fn error_trait_object_is_constructible() {
        let e: Box<dyn std::error::Error> = Box::new(CommError::Disconnected { peer: 0 });
        assert!(e.source().is_none());
    }
}
