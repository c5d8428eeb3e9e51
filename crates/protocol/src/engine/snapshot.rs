//! Replay-based simulation checkpointing.
//!
//! A snapshot does **not** serialize the engine's internal state — the
//! caches, directories, queues, link-layer windows, and fabric combining
//! state stay where they live. Instead the engine journals every
//! *external input* (issued accesses, user-level sends, markers) together
//! with the dispatch-step position at which it arrived, and a snapshot is
//! that journal plus the current step count. [`Engine::restore`] replays
//! the journal into a **fresh, identically-configured** engine, pumping
//! [`Engine::run_next`] the recorded number of steps through one reused
//! notification buffer whose contents it drops. Because the engine
//! is deterministic, the restored engine is *bit-identical* to the
//! original at the checkpoint — same caches, same directories, same
//! event queue, same statistics, same trace — by construction rather
//! than by field-by-field serialization. There is exactly one source of
//! truth for what the state "is": the simulation itself.
//!
//! The cost is replay time proportional to the checkpoint position,
//! which for capacity-planning interactive runs (the `cenju4-serve`
//! use case) is milliseconds. The benefit is that the snapshot format
//! cannot drift out of sync with the engine's internals: any state the
//! engine grows next PR is covered automatically.
//!
//! A snapshot is portable data: small, `Send`, and independent of the
//! engine it came from, so a service can keep it by id and resume it on
//! any thread. Its counterpart [`Engine::fork`] is the opposite trade:
//! a full live copy on the same thread, with no replay, for searches
//! that backtrack (the checker's DFS restores forks instead of replaying
//! its pick path from the root).

use super::{Engine, MemOp};
use crate::addr::Addr;
use cenju4_des::SimTime;
use cenju4_directory::NodeId;
use core::fmt;

/// One external input to the simulation — everything a driver can feed
/// an engine. Internal events (protocol messages, timers) are *derived*
/// from these deterministically and are never journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExternalInput {
    /// [`Engine::issue`] / [`Engine::try_issue`].
    Access {
        /// Issue time.
        at: SimTime,
        /// Issuing node.
        node: NodeId,
        /// The operation.
        op: MemOp,
        /// The target block.
        addr: Addr,
    },
    /// [`Engine::mp_send`].
    MpSend {
        /// Send time.
        at: SimTime,
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Transfer size in bytes.
        bytes: u64,
        /// The sender's tag.
        tag: u64,
    },
    /// [`Engine::schedule_marker`].
    Marker {
        /// Fire time.
        at: SimTime,
        /// The caller's token.
        token: u64,
    },
}

/// An [`ExternalInput`] pinned to the dispatch-step position at which it
/// was journaled: the input was applied after exactly `step` events had
/// been dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InputRecord {
    /// Dispatch steps executed when the input arrived.
    pub step: u64,
    /// The input itself.
    pub input: ExternalInput,
}

/// A checkpoint of a live simulation: the external-input journal and the
/// dispatch-step position to replay to. See the module docs for why this
/// is the whole state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Machine size the journal was recorded on (sanity-checked by
    /// [`Engine::restore`]; the rest of the configuration is the
    /// caller's contract).
    pub nodes: u16,
    /// Every external input applied so far, in arrival order.
    pub inputs: Vec<InputRecord>,
    /// Dispatch steps executed at the checkpoint.
    pub steps: u64,
}

/// Why [`Engine::snapshot`] refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Controlled-schedule (checker) engines fire events out of time
    /// order under external choice; a step count does not determine
    /// their state.
    Controlled,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Controlled => {
                write!(f, "cannot snapshot a controlled-schedule engine")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why [`Engine::restore`] refused or failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// Restore targets must be fresh: no inputs issued, no events run.
    NotFresh,
    /// Controlled-schedule engines cannot replay by step count.
    Controlled,
    /// The snapshot was recorded on a different machine size.
    SystemMismatch {
        /// Nodes recorded in the snapshot.
        snapshot: u16,
        /// Nodes of the engine being restored into.
        engine: u16,
    },
    /// The replay went quiescent before reaching the recorded step —
    /// the snapshot does not belong to this configuration.
    QuiescentBeforeCheckpoint {
        /// Steps reached when the event queue drained.
        reached: u64,
        /// Steps the snapshot recorded.
        wanted: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::NotFresh => {
                write!(f, "restore target must be a fresh engine")
            }
            RestoreError::Controlled => {
                write!(f, "cannot restore into a controlled-schedule engine")
            }
            RestoreError::SystemMismatch { snapshot, engine } => {
                write!(
                    f,
                    "snapshot recorded on {snapshot} nodes, engine has {engine}"
                )
            }
            RestoreError::QuiescentBeforeCheckpoint { reached, wanted } => {
                write!(
                    f,
                    "replay went quiescent at step {reached}, checkpoint is at step {wanted} \
                     (configuration mismatch?)"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl Engine {
    /// Dispatch steps executed so far. Together with the input journal
    /// this determines the engine's entire state (see module docs).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Checkpoints the simulation: the external-input journal plus the
    /// current dispatch-step position. Restore with [`Engine::restore`]
    /// on a fresh engine built from the same configuration.
    pub fn snapshot(&self) -> Result<EngineSnapshot, SnapshotError> {
        if self.is_controlled() {
            return Err(SnapshotError::Controlled);
        }
        Ok(EngineSnapshot {
            nodes: self.sys.nodes(),
            inputs: self.journal.clone(),
            steps: self.steps,
        })
    }

    /// Restores a checkpoint into this engine, which must be **fresh**
    /// (no inputs issued, no events run) and configured identically to
    /// the engine the snapshot was taken from: same [`ProtoParams`],
    /// [`NetParams`], protocol, directory format, fault plan, recovery
    /// parameters, and update-block marks. Observers and tracing may be
    /// attached before restoring; the replay rebuilds their state
    /// exactly as the original run did, so statistics, traces, and
    /// spans are bit-identical to the uninterrupted run's at the
    /// checkpoint. Notifications produced during replay are discarded —
    /// the original driver already consumed them.
    ///
    /// [`ProtoParams`]: crate::params::ProtoParams
    /// [`NetParams`]: cenju4_network::NetParams
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), RestoreError> {
        if self.is_controlled() {
            return Err(RestoreError::Controlled);
        }
        if self.steps != 0 || self.next_txn != 0 || !self.journal.is_empty() {
            return Err(RestoreError::NotFresh);
        }
        if self.sys.nodes() != snap.nodes {
            return Err(RestoreError::SystemMismatch {
                snapshot: snap.nodes,
                engine: self.sys.nodes(),
            });
        }
        let mut next = 0usize;
        // Replay's notifications are dropped, one step at a time.
        let mut notes = Vec::new();
        loop {
            while next < snap.inputs.len() && snap.inputs[next].step == self.steps {
                self.apply(snap.inputs[next].input);
                next += 1;
            }
            if self.steps == snap.steps {
                break;
            }
            if !self.run_next(&mut notes) {
                return Err(RestoreError::QuiescentBeforeCheckpoint {
                    reached: self.steps,
                    wanted: snap.steps,
                });
            }
            notes.clear();
        }
        debug_assert_eq!(next, snap.inputs.len(), "journal not sorted by step");
        debug_assert_eq!(
            self.journal, snap.inputs,
            "replay rebuilt a different journal"
        );
        Ok(())
    }

    /// Applies a journaled input through the public entry points, so the
    /// replayed engine re-journals it identically (a restored engine can
    /// be snapshotted again).
    fn apply(&mut self, input: ExternalInput) {
        match input {
            ExternalInput::Access { at, node, op, addr } => {
                self.issue(at, node, op, addr);
            }
            ExternalInput::MpSend {
                at,
                src,
                dst,
                bytes,
                tag,
            } => self.mp_send(at, src, dst, bytes, tag),
            ExternalInput::Marker { at, token } => self.schedule_marker(at, token),
        }
    }
}
