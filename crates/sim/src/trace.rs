//! Optional structured trace of kernel-level happenings.
//!
//! Disabled by default (zero cost beyond a branch); tests and debugging
//! sessions enable it with [`crate::Sim::enable_trace`] and inspect the
//! collected [`TraceEvent`]s from the run report.

use crate::process::Pid;
use crate::time::SimTime;

/// Typed protocol event, recorded through [`crate::SimCtx::trace_proto`].
///
/// These are the machine-checkable records the `ftmpi-check` invariant
/// checker consumes: per-channel message sequence numbers on send and
/// delivery, checkpoint-wave markers, image forks, wave commits, and
/// failure restarts. The kernel knows nothing about their semantics — the
/// fields are plain integers (ranks, seqnos, wave numbers) so the type can
/// live below the model crates and stay `Copy`.
///
/// All variants order and hash structurally, which lets checkers build
/// deterministic indices over them without auxiliary keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtoEvent {
    /// An application message was injected into the network.
    Send {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Per-channel (src → dst) sequence number.
        seq: u64,
        /// Payload size.
        bytes: u64,
        /// Job epoch the message was launched in.
        epoch: u64,
    },
    /// An application message reached the destination's matching engine.
    Deliver {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Per-channel sequence number (as stamped at send time).
        seq: u64,
        /// Epoch stamped on the message at launch.
        epoch: u64,
    },
    /// A checkpointed message (image-pending or channel-log entry) was
    /// re-injected into the destination's runtime during a restart.
    Replay {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Per-channel sequence number of the original message.
        seq: u64,
        /// Epoch the original message was launched in (pre-restart).
        epoch: u64,
    },
    /// A checkpoint-wave marker left `from` towards `to`.
    MarkerSend {
        /// Wave number.
        wave: u64,
        /// Marker origin rank.
        from: usize,
        /// Marker destination rank.
        to: usize,
    },
    /// A checkpoint-wave marker from `from` was accepted at `to`
    /// (transport arrival, after duplicate filtering).
    MarkerRecv {
        /// Wave number.
        wave: u64,
        /// Marker origin rank.
        from: usize,
        /// Marker destination rank.
        to: usize,
    },
    /// A rank forked and captured its local checkpoint image.
    Fork {
        /// Wave number.
        wave: u64,
        /// The rank taking its checkpoint.
        rank: usize,
        /// Completed application operations recorded in the image.
        ops: u64,
    },
    /// A message was recorded as channel state (Chandy–Lamport log).
    LogMsg {
        /// Wave number.
        wave: u64,
        /// Sending rank of the logged message.
        src: usize,
        /// Receiving (logging) rank.
        dst: usize,
        /// Per-channel sequence number of the logged message.
        seq: u64,
    },
    /// A checkpoint wave was initiated.
    WaveStart {
        /// Wave number.
        wave: u64,
    },
    /// A checkpoint wave committed (every image and log stored).
    WaveCommit {
        /// Wave number.
        wave: u64,
    },
    /// A checkpoint wave was aborted before committing (failure restart or
    /// checkpoint-server loss); its partial images are garbage-collected.
    WaveAbort {
        /// Wave number.
        wave: u64,
    },
    /// A checkpoint-server node failed: every image replica it stored
    /// became unavailable.
    ServerFail {
        /// The failed server's node id.
        node: u64,
    },
    /// An image replica finished storing on a server (initial push,
    /// reroute, or scrub re-replication). The integrity checker uses
    /// these to prove quarantined servers receive no placements.
    ImageStore {
        /// Wave number the image belongs to.
        wave: u64,
        /// Rank whose image was stored.
        rank: usize,
        /// Server node the replica landed on.
        node: u64,
    },
    /// A stored replica's bits were damaged (injected bit-flip or torn
    /// write). Silent to the runtime; the checker pairs these with
    /// `RestoreImage` records to prove no restore consumed a damaged
    /// copy.
    Corrupt {
        /// Wave number of the damaged replica.
        wave: u64,
        /// Rank of the damaged replica.
        rank: usize,
        /// Server node holding the damaged replica.
        node: u64,
    },
    /// Verify-on-fetch or the scrubber caught a damaged replica.
    CorruptDetected {
        /// Wave number of the damaged replica.
        wave: u64,
        /// Rank of the damaged replica.
        rank: usize,
        /// Server node holding the damaged replica.
        node: u64,
    },
    /// A damaged replica was overwritten from a verified good copy
    /// (scrub re-replication).
    Repair {
        /// Wave number of the repaired replica.
        wave: u64,
        /// Rank of the repaired replica.
        rank: usize,
        /// Server node the clean copy landed on.
        node: u64,
    },
    /// A restore consumed rank `rank`'s image of `wave` from server
    /// `node` (after digest verification).
    RestoreImage {
        /// Wave number restored from.
        wave: u64,
        /// Rank whose image was fetched.
        rank: usize,
        /// Server node the image came from.
        node: u64,
    },
    /// A checkpoint server exceeded the corruption threshold and was
    /// quarantined: no further placements may target it.
    Quarantine {
        /// The quarantined server's node id.
        node: u64,
    },
    /// A global failure-restart: all ranks rolled back, epoch bumped.
    Restart {
        /// The new job epoch.
        epoch: u64,
    },
}

/// Category of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A process was spawned.
    Spawn,
    /// A process terminated (normally, killed, or by panic).
    Exit,
    /// A process was killed by the failure injector.
    Kill,
    /// Typed protocol event (see [`ProtoEvent`]).
    Proto(ProtoEvent),
}

/// One trace record.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time of the record.
    pub time: SimTime,
    /// Category.
    pub kind: TraceKind,
    /// Process the record concerns, if any.
    pub pid: Option<Pid>,
    /// Free-form detail.
    pub detail: String,
}

/// Trace collector owned by the kernel.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Tracer {
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of records captured so far. Step-effect attribution in
    /// exploration mode snapshots this before dispatching each event.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }
}
