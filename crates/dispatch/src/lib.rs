//! # wcs-dispatch — shard dispatching with heartbeats and requeue
//!
//! `wcs-shard` slices a workload into K byte-identical shards and knows
//! how to merge the partials back; this crate runs them. A
//! [`Dispatcher`] state machine deals shards to a pool of host *slots*
//! ([`HostPool`]), launches each `repro shard worker` through an
//! object-safe [`Transport`] ([`SshExec`]: a plain subprocess for
//! `local` hosts, ssh or any exec wrapper for `exec` hosts), wakes as
//! soon as a worker exits, watches per-worker **heartbeat files**
//! ([`heartbeat`]), declares silent workers dead on a timeout, requeues
//! their shards onto live slots, and retries transient spawn failures
//! with capped exponential backoff + deterministic jitter
//! ([`BackoffPolicy`]). It is the only subprocess driver: `repro shard
//! run` is a dispatch onto [`HostPool::local`]`(k)`.
//!
//! The invariant everything here leans on is inherited from the shard
//! layer: shard partials are pure functions of the manifest, so a
//! re-run attempt writes byte-identical partials and the final
//! [`merge`](wcs_shard::merge_dir) is **bitwise identical to a
//! single-process run no matter how many workers died mid-flight** —
//! and the per-shard partial cache makes a requeue cheap, because any
//! work the dead worker managed to store is served back instead of
//! recomputed. `tests/dispatch_faults.rs` states the delivery
//! guarantees as properties over random fault plans: validity (the
//! merge equals the serial run), no duplication (every plan row is
//! delivered exactly once) and integrity (a partial from outside the
//! plan is rejected).
//!
//! Fault injection is first-class: [`FaultyTransport`] wraps any
//! transport and kills workers after N heartbeats, fails spawns, or
//! mutes heartbeats on chosen (shard, attempt) pairs — it is how the
//! integration tests and the CI `dispatch-smoke` job prove the
//! requeue/giveup paths deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod dispatcher;
pub mod fault;
pub mod heartbeat;
pub mod hosts;
pub mod transport;

pub use backoff::BackoffPolicy;
pub use dispatcher::{DispatchOptions, DispatchOutcome, DispatchStats, Dispatcher};
pub use fault::{Fault, FaultyTransport};
pub use heartbeat::HeartbeatWriter;
pub use hosts::{Host, HostKind, HostPool};
pub use transport::{SpawnRequest, SshExec, Transport, WorkerHandle, WorkerStatus};

use wcs_shard::ShardError;

/// Everything that can go wrong while dispatching a plan.
#[derive(Debug)]
pub enum DispatchError {
    /// A plan/merge/worker failure from the shard layer.
    Shard(ShardError),
    /// The hosts file could not be parsed.
    Hosts {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The host pool has no worker slots.
    NoHosts,
    /// A shard exhausted its retry budget. This is the dispatcher's
    /// structured give-up: the shard id, how many attempts were made,
    /// and the last failure, so the CLI can exit with a stable code and
    /// message instead of a stringly error chain.
    Exhausted {
        /// The shard that could not be completed.
        shard: usize,
        /// Total attempts made (first try + retries).
        attempts: usize,
        /// The last attempt's failure, rendered.
        last: String,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Shard(e) => write!(f, "{e}"),
            DispatchError::Hosts { line, message } => {
                write!(f, "hosts file line {line}: {message}")
            }
            DispatchError::NoHosts => write!(f, "host pool has no worker slots"),
            DispatchError::Exhausted {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "dispatch gave up on shard {shard} after {attempts} attempt(s): {last}"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<ShardError> for DispatchError {
    fn from(e: ShardError) -> Self {
        DispatchError::Shard(e)
    }
}
