//! Typed failures of the campaign service.
//!
//! Everything that can go wrong while *driving* the service — as
//! opposed to speaking its protocol ([`WireError`]) — is a
//! [`ServeError`]: a shard worker panicking mid-drain, a migration
//! naming a shard that does not exist — never bytes refusing to open:
//! no drain or migration reads any (that `CkptError` is `restore`'s or
//! `adopt`'s). The drain driver ([`crate::supervisor`]) keeps these
//! from ever escaping as panics: every drain catches a worker panic and
//! returns it typed, and a supervised drain converts failures into
//! restarts or typed cancellations.

use crate::wire::WireError;
use std::fmt;

/// A failure while driving the campaign service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A protocol failure on a session transport.
    Wire(WireError),
    /// A shard worker thread panicked (or a chaos plan crashed it).
    ShardPanicked {
        /// The shard whose worker died.
        shard: u32,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A caller named a shard the server does not have.
    NoSuchShard {
        /// The shard id asked for.
        shard: u32,
        /// How many shards the server has.
        n_shards: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
            ServeError::NoSuchShard { shard, n_shards } => {
                write!(f, "no shard {shard}: the server has {n_shards}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}
