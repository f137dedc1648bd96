//! The application-facing MPI handle.
//!
//! Each rank's simulated process owns an `Mpi` value. Operations either
//! interact with the shared [`World`](crate::world::World) through the
//! kernel — the handle parks the op in the runtime under its process's pid
//! and posts it ([`ProcCtx::post_op`]) — or, in *skip-replay* mode after a
//! restart, complete instantly: the first `skip_until` operations were
//! already performed before the restored checkpoint, so replaying them
//! costs nothing — the fault-tolerance protocols guarantee the
//! message-level consistency of the cut (see DESIGN.md §5.1).

use ftmpi_sim::{ProcCtx, ReplyWords, SimDuration};

use crate::runtime::Op;
use crate::types::{Rank, RecvInfo, Tag};
use crate::world::WorldRef;

/// Handle on a nonblocking receive.
#[derive(Debug, Clone, Copy)]
pub struct ReqHandle {
    kind: ReqKind,
}

#[derive(Debug, Clone, Copy)]
enum ReqKind {
    /// A live receive request registered with the runtime.
    Recv { id: u64 },
    /// A receive request whose posting was skip-replayed but whose wait was
    /// not: the wait re-posts a blocking receive with these parameters.
    ReplayRecv { src: Option<Rank>, tag: Option<Tag> },
}

/// Per-rank application handle: point-to-point operations, collectives,
/// virtual compute, and the virtual clock.
pub struct Mpi {
    ctx: ProcCtx,
    world: WorldRef,
    rank: Rank,
    size: usize,
    /// Operations issued so far (kernel-interacting ops only).
    ops_done: u64,
    /// Ops below this index replay instantly (restored from an image).
    skip_until: u64,
    /// Compute time already performed before the checkpoint (consumed by
    /// the first compute phases after the skip region).
    credit: SimDuration,
    /// Collective round counter (gives each collective instance fresh tags).
    pub(crate) coll_seq: u64,
    finished: bool,
}

impl Mpi {
    pub(crate) fn new(
        ctx: ProcCtx,
        world: WorldRef,
        rank: Rank,
        size: usize,
        skip_until: u64,
        credit: SimDuration,
    ) -> Mpi {
        Mpi {
            ctx,
            world,
            rank,
            size,
            ops_done: 0,
            skip_until,
            credit,
            coll_seq: 0,
            finished: false,
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank-local virtual clock in seconds (MPI_Wtime).
    pub fn wtime(&self) -> f64 {
        self.ctx.now().as_secs_f64()
    }

    /// Is this execution currently skip-replaying restored operations?
    pub fn replaying(&self) -> bool {
        self.ops_done < self.skip_until
    }

    /// Post `op` as this process's kernel interaction and wait for its
    /// reply.
    async fn post<R: ReplyWords>(&mut self, op: Op) -> R {
        self.world
            .borrow_mut()
            .rt
            .park_op(self.ctx.pid(), self.rank, op);
        self.ctx.post_op().await
    }

    /// Begin the next operation; returns `true` if it must be skip-replayed.
    fn next_op_skipped(&mut self) -> bool {
        let skipped = self.ops_done < self.skip_until;
        self.ops_done += 1;
        skipped
    }

    /// Model local computation of duration `d`.
    ///
    /// Free during skip-replay; partially free while restart credit remains.
    pub fn compute(&mut self, d: SimDuration) {
        if self.replaying() {
            return;
        }
        let d = if self.credit.is_zero() {
            d
        } else {
            let used = self.credit.min(d);
            self.credit = self.credit.saturating_sub(used);
            d.saturating_sub(used)
        };
        if !d.is_zero() {
            self.ctx.advance(d);
        }
    }

    /// Blocking standard send (eager/buffered completion semantics).
    pub async fn send(&mut self, dst: Rank, tag: Tag, bytes: u64) {
        assert!(dst < self.size, "send to invalid rank {dst}");
        if self.next_op_skipped() {
            return;
        }
        self.post(Op::Send { dst, tag, bytes }).await
    }

    /// Blocking receive; `None` matches any source / any tag.
    pub async fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> RecvInfo {
        if self.next_op_skipped() {
            return RecvInfo::replayed();
        }
        self.post(Op::Recv { src, tag }).await
    }

    /// Nonblocking receive: returns a request to [`wait`](Mpi::wait) on.
    pub async fn irecv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> ReqHandle {
        if self.next_op_skipped() {
            // If the matching wait is *also* inside the skip region it will
            // be a no-op; otherwise it re-posts a blocking receive with the
            // recorded parameters (see ReqKind::ReplayRecv).
            return ReqHandle {
                kind: ReqKind::ReplayRecv { src, tag },
            };
        }
        let id = self.post(Op::Irecv { src, tag }).await;
        ReqHandle {
            kind: ReqKind::Recv { id },
        }
    }

    /// Wait for a nonblocking receive.
    pub async fn wait(&mut self, req: ReqHandle) -> RecvInfo {
        match req.kind {
            ReqKind::ReplayRecv { src, tag } => {
                if self.next_op_skipped() {
                    return RecvInfo::replayed();
                }
                // The posting was replayed away; issue the receive now.
                self.post(Op::Recv { src, tag }).await
            }
            ReqKind::Recv { id } => {
                if self.next_op_skipped() {
                    // Cannot happen: a live request implies its posting was
                    // not skipped, and skip is a prefix of the op stream.
                    return RecvInfo::replayed();
                }
                self.post(Op::Wait { id }).await
            }
        }
    }

    /// Fused shift: send `bytes` to `to`, receive from `from` (same tag),
    /// in one kernel interaction — the pipelined-sweep / ring primitive.
    /// Equivalent to `send(to) + recv(from)` and *counted as those two
    /// operations*, so a checkpoint cut landing between the completed send
    /// and the pending receive replays only the receive half (re-sending
    /// would duplicate the pre-cut message).
    pub async fn shift(&mut self, to: Rank, from: Rank, tag: Tag, bytes: u64) -> RecvInfo {
        assert!(to < self.size && from < self.size);
        let send_idx = self.ops_done;
        self.ops_done += 2;
        if send_idx + 1 < self.skip_until {
            return RecvInfo::replayed(); // both halves pre-cut
        }
        if send_idx >= self.skip_until {
            // Both halves live: the fused fast path.
            self.post(Op::Shift {
                to,
                from,
                tag,
                bytes,
            })
            .await
        } else {
            // Send was completed before the checkpoint; only the receive
            // replays (the message comes from the restored channel state).
            self.post(Op::Recv {
                src: Some(from),
                tag: Some(tag),
            })
            .await
        }
    }

    /// Fused pairwise exchange with a single partner (both directions).
    pub async fn exchange(&mut self, partner: Rank, tag: Tag, bytes: u64) -> RecvInfo {
        self.shift(partner, partner, tag, bytes).await
    }

    /// Combined send+receive (deadlock-free pairwise exchange).
    pub async fn sendrecv(
        &mut self,
        dst: Rank,
        stag: Tag,
        sbytes: u64,
        src: Option<Rank>,
        rtag: Option<Tag>,
    ) -> RecvInfo {
        let r = self.irecv(src, rtag).await;
        self.send(dst, stag, sbytes).await;
        self.wait(r).await
    }

    /// Mark this rank's application code complete. Called automatically by
    /// the rank trampoline; idempotent.
    pub async fn finalize(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.ops_done += 1; // finalize is an op, but never skipped:
                            // a restored image can only have been taken
                            // before the rank finished.
        self.post(Op::Finalize).await
    }
}
