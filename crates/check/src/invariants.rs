//! Consistent-cut invariants over protocol traces.
//!
//! The checker is one pass over a trace: it reads each record once, in
//! execution order, and splits the trace into eras (spans between global
//! restarts) as it goes. It proves, per era:
//!
//! * every message carries the epoch of the era it was launched in;
//! * per channel, deliveries replay the send order exactly (FIFO), with
//!   no duplication, and — in the final era — no loss;
//! * deliveries of pre-restart messages are preceded by a recorded
//!   `Replay` (a checkpointed message re-injected during recovery);
//!
//! and, for every *committed* checkpoint wave:
//!
//! * each rank forked exactly once before the commit;
//! * exactly one channel marker crossed every ordered rank pair, each
//!   matching a recorded marker send;
//! * no orphan messages (sent after the source's fork yet delivered
//!   before the destination's — a message "from the future" that would
//!   be received twice after a rollback);
//! * blocking protocol (Pcl): channels are empty at fork — every message
//!   sent before the source forked was delivered before the destination
//!   forked;
//! * non-blocking protocol (Vcl): the channel logs hold *exactly* the
//!   messages crossing the cut (sent before the source's fork, delivered
//!   after the destination's);
//!
//! and, over the whole trace, checkpoint-image integrity (the store
//! outlives eras):
//!
//! * a `RestoreImage` never names a `(wave, rank, node)` whose damage
//!   (`Corrupt`) was not overwritten by a verified write (`ImageStore` /
//!   `Repair`) first — verify-on-fetch walked past every damaged copy;
//! * after a node's `Quarantine`, no replica lands on it — placement,
//!   reroute, and scrub re-replication all exclude quarantined servers
//!   (fetching a pre-quarantine replica *from* it stays legal).
//!
//! Records are numbered by their position among the trace's protocol
//! records, not by virtual time: many protocol steps share an instant, and
//! only their execution order defines the cut.

use std::collections::{BTreeMap, BTreeSet};

use ftmpi_core::ProtocolChoice;
use ftmpi_sim::{ProtoEvent, TraceEvent, TraceKind};

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A message was launched with an epoch different from its era.
    SendEpochMismatch {
        /// Era the send was recorded in.
        era: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Channel sequence number.
        seq: u64,
        /// Epoch stamped on the message.
        epoch: u64,
    },
    /// Restart events did not arrive in epoch order.
    EraOutOfOrder {
        /// Expected era number at this position.
        expected: u64,
        /// Era number actually recorded.
        got: u64,
    },
    /// Per-channel delivery order diverged from send order.
    FifoMismatch {
        /// Era of the channel segment.
        era: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Position in the channel's delivery order.
        pos: usize,
        /// Sequence number sent at that position.
        sent: u64,
        /// Sequence number delivered at that position.
        delivered: u64,
    },
    /// More deliveries than sends on a channel (duplication).
    DuplicatedDelivery {
        /// Era of the channel segment.
        era: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Number of surplus deliveries.
        extra: usize,
    },
    /// The final era ended with sent-but-never-delivered messages.
    LostMessages {
        /// Era of the channel segment (the last one).
        era: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Number of undelivered sends.
        missing: usize,
    },
    /// A pre-restart message was delivered without a recorded replay.
    UnreplayedDelivery {
        /// Era the delivery happened in.
        era: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Channel sequence number.
        seq: u64,
        /// Epoch stamped on the message.
        epoch: u64,
    },
    /// A committed wave saw `count` forks for a rank instead of one.
    ForkCount {
        /// Wave number.
        wave: u64,
        /// The rank concerned.
        rank: usize,
        /// Forks recorded before the commit.
        count: usize,
    },
    /// A committed wave saw `recvs` marker receptions on an ordered rank
    /// pair instead of exactly one.
    MarkerMismatch {
        /// Wave number.
        wave: u64,
        /// Marker origin rank.
        from: usize,
        /// Marker destination rank.
        to: usize,
        /// Receptions recorded before the commit.
        recvs: usize,
    },
    /// A marker was received without a matching recorded send.
    UnmatchedMarker {
        /// Wave number.
        wave: u64,
        /// Marker origin rank.
        from: usize,
        /// Marker destination rank.
        to: usize,
    },
    /// Orphan message: sent after the source's fork, delivered before the
    /// destination's — it would be resent *and* already consumed after a
    /// rollback to this wave.
    OrphanMessage {
        /// Wave number.
        wave: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Channel sequence number.
        seq: u64,
    },
    /// Blocking protocol: a message was still in the channel when the
    /// endpoint forked (Pcl's synchronization exists to prevent this).
    ChannelNotEmptyAtFork {
        /// Wave number.
        wave: u64,
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Channel sequence number.
        seq: u64,
    },
    /// A wave was both aborted and committed: the protocol garbage-collected
    /// images for a cut it also declared durable.
    AbortedWaveCommitted {
        /// Wave number.
        wave: u64,
    },
    /// Vcl: a channel's log differs from the messages that actually
    /// crossed the cut.
    LogMismatch {
        /// Wave number.
        wave: u64,
        /// Sending rank of the channel.
        src: usize,
        /// Receiving (logging) rank of the channel.
        dst: usize,
        /// Seqnos crossing the cut per the send/deliver records.
        crossing: Vec<u64>,
        /// Seqnos actually logged.
        logged: Vec<u64>,
    },
    /// A restore consumed a replica whose recorded damage was never
    /// repaired: verify-on-fetch let corrupt bits through.
    CorruptRestore {
        /// Wave number restored from.
        wave: u64,
        /// Rank whose image was fetched.
        rank: usize,
        /// Server node the damaged replica lived on.
        node: u64,
    },
    /// A replica landed on a server after its quarantine: placement and
    /// reroute must exclude quarantined servers.
    QuarantinedPlacement {
        /// Wave number of the replica.
        wave: u64,
        /// Rank whose image landed.
        rank: usize,
        /// The quarantined server node.
        node: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::SendEpochMismatch {
                era,
                src,
                dst,
                seq,
                epoch,
            } => write!(
                f,
                "era {era}: send {src}->{dst} seq {seq} stamped epoch {epoch}"
            ),
            Violation::EraOutOfOrder { expected, got } => {
                write!(
                    f,
                    "restart out of order: expected era {expected}, got {got}"
                )
            }
            Violation::FifoMismatch {
                era,
                src,
                dst,
                pos,
                sent,
                delivered,
            } => write!(
                f,
                "era {era}: channel {src}->{dst} position {pos} sent seq {sent} \
                 but delivered seq {delivered}"
            ),
            Violation::DuplicatedDelivery {
                era,
                src,
                dst,
                extra,
            } => write!(
                f,
                "era {era}: channel {src}->{dst} delivered {extra} more message(s) than sent"
            ),
            Violation::LostMessages {
                era,
                src,
                dst,
                missing,
            } => write!(
                f,
                "era {era}: channel {src}->{dst} lost {missing} message(s)"
            ),
            Violation::UnreplayedDelivery {
                era,
                src,
                dst,
                seq,
                epoch,
            } => write!(
                f,
                "era {era}: delivery of epoch-{epoch} message {src}->{dst} seq {seq} \
                 without a recorded replay"
            ),
            Violation::ForkCount { wave, rank, count } => write!(
                f,
                "wave {wave}: rank {rank} forked {count} time(s) before commit (expected 1)"
            ),
            Violation::MarkerMismatch {
                wave,
                from,
                to,
                recvs,
            } => write!(
                f,
                "wave {wave}: marker {from}->{to} received {recvs} time(s) before commit \
                 (expected 1)"
            ),
            Violation::UnmatchedMarker { wave, from, to } => {
                write!(
                    f,
                    "wave {wave}: marker {from}->{to} received but never sent"
                )
            }
            Violation::OrphanMessage {
                wave,
                src,
                dst,
                seq,
            } => write!(
                f,
                "wave {wave}: orphan message {src}->{dst} seq {seq} (sent after source fork, \
                 delivered before destination fork)"
            ),
            Violation::ChannelNotEmptyAtFork {
                wave,
                src,
                dst,
                seq,
            } => write!(
                f,
                "wave {wave}: channel {src}->{dst} not empty at fork (seq {seq} in transit)"
            ),
            Violation::AbortedWaveCommitted { wave } => {
                write!(f, "wave {wave}: both aborted and committed")
            }
            Violation::LogMismatch {
                wave,
                src,
                dst,
                crossing,
                logged,
            } => write!(
                f,
                "wave {wave}: channel {src}->{dst} log mismatch: crossing seqs {crossing:?} \
                 vs logged {logged:?}"
            ),
            Violation::CorruptRestore { wave, rank, node } => write!(
                f,
                "wave {wave}: rank {rank} restored from damaged replica on node {node}"
            ),
            Violation::QuarantinedPlacement { wave, rank, node } => write!(
                f,
                "wave {wave}: rank {rank}'s replica placed on quarantined node {node}"
            ),
        }
    }
}

/// Result of checking one trace.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Every violation found: era by era (each era's record-order checks,
    /// then its FIFO checks, then its cut checks; an out-of-order restart
    /// just ahead of the era it opens), then the integrity violations in
    /// record order.
    pub violations: Vec<Violation>,
    /// Protocol events examined (`Restart` records included).
    pub proto_events: usize,
    /// Eras (1 + restarts) in the trace.
    pub eras: usize,
    /// Committed waves whose cut was verified.
    pub waves_checked: usize,
}

impl CheckReport {
    /// `true` when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

type Chan = (usize, usize);

/// Bookkeeping for one era, filled as its records stream past. An index
/// is a record's position among the trace's protocol records.
#[derive(Default)]
struct EraData {
    /// Per channel: `(index, seq)` of current-epoch sends, in order.
    sends: BTreeMap<Chan, Vec<(usize, u64)>>,
    /// Per channel: `(index, seq)` of current-epoch deliveries.
    delivers: BTreeMap<Chan, Vec<(usize, u64)>>,
    /// Replayed checkpointed messages not yet claimed by a delivery.
    replays: Vec<(usize, usize, u64, u64)>,
    /// Per wave: `(index, rank)` of forks.
    forks: BTreeMap<u64, Vec<(usize, usize)>>,
    /// Marker sends seen, keyed `(wave, from, to)`.
    marker_sends: BTreeMap<(u64, usize, usize), usize>,
    /// Per wave: `(index, from, to)` of marker receptions.
    marker_recvs: BTreeMap<u64, Vec<(usize, usize, usize)>>,
    /// Per wave: logged channel-state entries `(src, dst, seq)`.
    logs: BTreeMap<u64, Vec<(usize, usize, u64)>>,
    /// Per wave: index of the commit.
    commits: BTreeMap<u64, usize>,
    /// Waves whose in-flight checkpoint was aborted.
    aborts: BTreeSet<u64>,
}

/// [`check_trace`] as a fold: [`Self::observe`] takes each trace record
/// once, in order, and [`Self::finish`] returns the verdict. The open
/// era's records are bucketed as they arrive; a `Restart` record closes
/// the era — its FIFO and cut checks run then — and opens the next. The
/// integrity state rides the same pass and never resets at a restart,
/// because the checkpoint store outlives eras; its violations are held
/// back and reported after every era's.
pub(crate) struct Checker {
    protocol: ProtocolChoice,
    nranks: usize,
    report: CheckReport,
    /// The open era's number, as the `Restart` that opened it claimed
    /// (0 for the first era).
    era: u64,
    /// The open era's records.
    data: EraData,
    /// Replicas `(wave, rank, node)` damaged and not yet overwritten by a
    /// verified write.
    damaged: BTreeSet<(u64, usize, u64)>,
    /// Quarantined server nodes.
    quarantined: BTreeSet<u64>,
    /// Integrity violations, in record order.
    integrity: Vec<Violation>,
}

impl Checker {
    /// The checker of the empty trace of an `nranks`-rank `protocol` job.
    pub(crate) fn new(protocol: ProtocolChoice, nranks: usize) -> Checker {
        Checker {
            protocol,
            nranks,
            report: CheckReport {
                eras: 1,
                ..CheckReport::default()
            },
            era: 0,
            data: EraData::default(),
            damaged: BTreeSet::new(),
            quarantined: BTreeSet::new(),
            integrity: Vec::new(),
        }
    }

    /// Take the next trace record. Kernel records are skipped and do not
    /// consume a protocol index. Epoch stamping and replay pairing are
    /// checked here, because they depend on the order within the era.
    pub(crate) fn observe(&mut self, te: &TraceEvent) {
        let TraceKind::Proto(ev) = te.kind else {
            return;
        };
        let idx = self.report.proto_events;
        self.report.proto_events += 1;
        let era = self.era;
        let data = &mut self.data;
        match ev {
            ProtoEvent::Restart { epoch } => {
                self.close_era(false);
                let expected = self.report.eras as u64;
                if epoch != expected {
                    self.report.violations.push(Violation::EraOutOfOrder {
                        expected,
                        got: epoch,
                    });
                }
                self.report.eras += 1;
                self.era = epoch;
            }
            ProtoEvent::Send {
                src,
                dst,
                seq,
                epoch,
                ..
            } => {
                if epoch != era {
                    self.report.violations.push(Violation::SendEpochMismatch {
                        era,
                        src,
                        dst,
                        seq,
                        epoch,
                    });
                }
                data.sends.entry((src, dst)).or_default().push((idx, seq));
            }
            ProtoEvent::Deliver {
                src,
                dst,
                seq,
                epoch,
            } => {
                if epoch == era {
                    data.delivers
                        .entry((src, dst))
                        .or_default()
                        .push((idx, seq));
                } else {
                    // A pre-restart message: legitimate only as the
                    // re-injection of a checkpointed message, which records
                    // a Replay just before.
                    let found = data
                        .replays
                        .iter()
                        .position(|&(s, d, q, e)| (s, d, q, e) == (src, dst, seq, epoch));
                    match found {
                        Some(i) => {
                            data.replays.swap_remove(i);
                        }
                        None => self.report.violations.push(Violation::UnreplayedDelivery {
                            era,
                            src,
                            dst,
                            seq,
                            epoch,
                        }),
                    }
                }
            }
            ProtoEvent::Replay {
                src,
                dst,
                seq,
                epoch,
            } => {
                data.replays.push((src, dst, seq, epoch));
            }
            ProtoEvent::MarkerSend { wave, from, to } => {
                *data.marker_sends.entry((wave, from, to)).or_default() += 1;
            }
            ProtoEvent::MarkerRecv { wave, from, to } => {
                data.marker_recvs
                    .entry(wave)
                    .or_default()
                    .push((idx, from, to));
            }
            ProtoEvent::Fork { wave, rank, .. } => {
                data.forks.entry(wave).or_default().push((idx, rank));
            }
            ProtoEvent::LogMsg {
                wave,
                src,
                dst,
                seq,
            } => {
                data.logs.entry(wave).or_default().push((src, dst, seq));
            }
            ProtoEvent::WaveCommit { wave } => {
                data.commits.insert(wave, idx);
            }
            ProtoEvent::WaveAbort { wave } => {
                data.aborts.insert(wave);
            }
            ProtoEvent::Corrupt { wave, rank, node } => {
                self.damaged.insert((wave, rank, node));
            }
            ProtoEvent::ImageStore { wave, rank, node }
            | ProtoEvent::Repair { wave, rank, node } => {
                // A verified write replaces whatever bits the slot held.
                self.damaged.remove(&(wave, rank, node));
                if self.quarantined.contains(&node) {
                    self.integrity
                        .push(Violation::QuarantinedPlacement { wave, rank, node });
                }
            }
            ProtoEvent::RestoreImage { wave, rank, node } => {
                if self.damaged.contains(&(wave, rank, node)) {
                    self.integrity
                        .push(Violation::CorruptRestore { wave, rank, node });
                }
            }
            ProtoEvent::Quarantine { node } => {
                self.quarantined.insert(node);
            }
            ProtoEvent::WaveStart { .. }
            | ProtoEvent::ServerFail { .. }
            | ProtoEvent::CorruptDetected { .. } => {}
        }
    }

    /// Run the FIFO and cut checks on the open era's records.
    fn close_era(&mut self, is_final: bool) {
        let data = std::mem::take(&mut self.data);
        check_fifo(self.era, &data, is_final, &mut self.report.violations);
        check_waves(self.protocol, self.nranks, &data, &mut self.report);
    }

    /// Close the last era and report every violation found.
    pub(crate) fn finish(mut self) -> CheckReport {
        self.close_era(true);
        self.report.violations.append(&mut self.integrity);
        self.report
    }
}

/// Check every invariant the trace supports for `protocol`, in one pass.
///
/// `nranks` is the job size (defines the marker/fork completeness
/// expectations); `trace` is the raw record from
/// [`ftmpi_core::run_job_with`] with tracing enabled.
pub fn check_trace(protocol: ProtocolChoice, nranks: usize, trace: &[TraceEvent]) -> CheckReport {
    let mut checker = Checker::new(protocol, nranks);
    for te in trace {
        checker.observe(te);
    }
    checker.finish()
}

/// Per-channel FIFO: deliveries must replay the send order as a prefix
/// (exactly, in the final era). Replayed pre-restart messages are checked
/// separately in [`Checker::observe`]; duplicate-suppressed replays are
/// legal.
fn check_fifo(era: u64, data: &EraData, is_final: bool, violations: &mut Vec<Violation>) {
    for (&(src, dst), dvec) in &data.delivers {
        let svec = data
            .sends
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        if dvec.len() > svec.len() {
            violations.push(Violation::DuplicatedDelivery {
                era,
                src,
                dst,
                extra: dvec.len() - svec.len(),
            });
        }
        for (pos, &(_, dseq)) in dvec.iter().enumerate() {
            let Some(&(_, sseq)) = svec.get(pos) else {
                break;
            };
            if dseq != sseq {
                violations.push(Violation::FifoMismatch {
                    era,
                    src,
                    dst,
                    pos,
                    sent: sseq,
                    delivered: dseq,
                });
                break;
            }
        }
    }
    if is_final {
        for (&(src, dst), svec) in &data.sends {
            let delivered = data.delivers.get(&(src, dst)).map(Vec::len).unwrap_or(0);
            if delivered < svec.len() {
                violations.push(Violation::LostMessages {
                    era,
                    src,
                    dst,
                    missing: svec.len() - delivered,
                });
            }
        }
    }
}

/// Cut consistency for every committed wave of the era.
fn check_waves(protocol: ProtocolChoice, nranks: usize, data: &EraData, report: &mut CheckReport) {
    for (&wave, &commit_idx) in &data.commits {
        report.waves_checked += 1;
        if data.aborts.contains(&wave) {
            report
                .violations
                .push(Violation::AbortedWaveCommitted { wave });
        }
        // Exactly one fork per rank, before the commit.
        let mut fork_of: Vec<Option<usize>> = vec![None; nranks];
        let mut fork_count = vec![0usize; nranks];
        for &(idx, rank) in data.forks.get(&wave).map(Vec::as_slice).unwrap_or(&[]) {
            if rank < nranks && idx < commit_idx {
                fork_count[rank] += 1;
                fork_of[rank].get_or_insert(idx);
            }
        }
        for (rank, &count) in fork_count.iter().enumerate() {
            if count != 1 {
                report
                    .violations
                    .push(Violation::ForkCount { wave, rank, count });
            }
        }
        // Exactly one marker per ordered pair, each matching a send.
        let mut recv_count: BTreeMap<Chan, usize> = BTreeMap::new();
        for &(idx, from, to) in data
            .marker_recvs
            .get(&wave)
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            if idx < commit_idx {
                *recv_count.entry((from, to)).or_default() += 1;
                if data
                    .marker_sends
                    .get(&(wave, from, to))
                    .copied()
                    .unwrap_or(0)
                    == 0
                {
                    report
                        .violations
                        .push(Violation::UnmatchedMarker { wave, from, to });
                }
            }
        }
        for from in 0..nranks {
            for to in 0..nranks {
                if from == to {
                    continue;
                }
                let recvs = recv_count.get(&(from, to)).copied().unwrap_or(0);
                if recvs != 1 {
                    report.violations.push(Violation::MarkerMismatch {
                        wave,
                        from,
                        to,
                        recvs,
                    });
                }
            }
        }
        // Per-channel cut checks need the fork on both endpoints.
        for (&(src, dst), svec) in &data.sends {
            if src == dst {
                continue; // self-channels never cross the cut
            }
            let (Some(fs), Some(fd)) = (
                fork_of.get(src).copied().flatten(),
                fork_of.get(dst).copied().flatten(),
            ) else {
                continue; // fork violations already reported above
            };
            let dvec = data
                .delivers
                .get(&(src, dst))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let mut crossing: Vec<u64> = Vec::new();
            for (pos, &(sidx, seq)) in svec.iter().enumerate() {
                // Positional pairing; if FIFO already failed the pairing is
                // unreliable, but those traces are rejected regardless.
                match dvec.get(pos) {
                    Some(&(didx, _)) => {
                        if sidx > fs && didx < fd {
                            report.violations.push(Violation::OrphanMessage {
                                wave,
                                src,
                                dst,
                                seq,
                            });
                        }
                        if sidx < fs && didx > fd {
                            crossing.push(seq);
                        }
                    }
                    None => {
                        // Sent before the fork but never delivered this
                        // era: the message was in the channel at the cut.
                        if sidx < fs {
                            crossing.push(seq);
                        }
                    }
                }
            }
            match protocol {
                ProtocolChoice::Pcl => {
                    for &seq in &crossing {
                        report.violations.push(Violation::ChannelNotEmptyAtFork {
                            wave,
                            src,
                            dst,
                            seq,
                        });
                    }
                }
                ProtocolChoice::Vcl => {
                    let mut logged: Vec<u64> = data
                        .logs
                        .get(&wave)
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                        .iter()
                        .filter(|&&(s, d, _)| (s, d) == (src, dst))
                        .map(|&(_, _, q)| q)
                        .collect();
                    let mut crossing = crossing;
                    crossing.sort_unstable();
                    logged.sort_unstable();
                    if crossing != logged {
                        report.violations.push(Violation::LogMismatch {
                            wave,
                            src,
                            dst,
                            crossing,
                            logged,
                        });
                    }
                }
                _ => {}
            }
        }
        // Vcl: logged entries on channels that never sent anything are
        // fabrications (the per-channel loop above cannot see them).
        if protocol == ProtocolChoice::Vcl {
            for &(src, dst, seq) in data.logs.get(&wave).map(Vec::as_slice).unwrap_or(&[]) {
                if !data.sends.contains_key(&(src, dst)) {
                    report.violations.push(Violation::LogMismatch {
                        wave,
                        src,
                        dst,
                        crossing: Vec::new(),
                        logged: vec![seq],
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_sim::SimTime;

    fn te(ev: ProtoEvent) -> TraceEvent {
        TraceEvent {
            time: SimTime::ZERO,
            kind: TraceKind::Proto(ev),
            pid: None,
            detail: String::new(),
        }
    }

    fn send(seq: u64, epoch: u64) -> TraceEvent {
        te(ProtoEvent::Send {
            src: 0,
            dst: 1,
            seq,
            bytes: 8,
            epoch,
        })
    }

    /// Two eras in one pass: a kernel record between two protocol records
    /// takes no protocol index, a `Restart` closes era 0 (its FIFO break is
    /// reported then), era 1's lost message is reported when the trace
    /// ends, and the damage recorded in era 0 is still remembered when era
    /// 1 restores the replica — that violation comes after every era's.
    #[test]
    fn one_pass_splits_eras_and_reports_integrity_last() {
        let replica = (1, 0, 5);
        let trace = vec![
            send(1, 0),
            send(2, 0),
            TraceEvent {
                time: SimTime::ZERO,
                kind: TraceKind::Spawn,
                pid: None,
                detail: String::new(),
            },
            te(ProtoEvent::Deliver {
                src: 0,
                dst: 1,
                seq: 2,
                epoch: 0,
            }),
            te(ProtoEvent::Corrupt {
                wave: replica.0,
                rank: replica.1,
                node: replica.2,
            }),
            te(ProtoEvent::Restart { epoch: 1 }),
            te(ProtoEvent::RestoreImage {
                wave: replica.0,
                rank: replica.1,
                node: replica.2,
            }),
            send(1, 1),
        ];
        let report = check_trace(ProtocolChoice::Pcl, 2, &trace);
        assert_eq!(report.proto_events, 7);
        assert_eq!(report.eras, 2);
        assert_eq!(report.waves_checked, 0);
        assert_eq!(
            report.violations,
            [
                Violation::FifoMismatch {
                    era: 0,
                    src: 0,
                    dst: 1,
                    pos: 0,
                    sent: 1,
                    delivered: 2,
                },
                Violation::LostMessages {
                    era: 1,
                    src: 0,
                    dst: 1,
                    missing: 1,
                },
                Violation::CorruptRestore {
                    wave: replica.0,
                    rank: replica.1,
                    node: replica.2,
                },
            ]
        );
    }
}
