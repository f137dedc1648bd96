//! Checkpoint images and wave records.

use ftmpi_mpi::{AppMsg, Rank, RuntimeCore};
use ftmpi_sim::{SimDuration, SimTime};

/// One FNV-1a step over a 64-bit word (byte-at-a-time, little-endian).
fn fnv_word(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The restart-relevant content of one rank's checkpoint image.
///
/// Real system-level checkpointing (BLCR et al.) stores the whole address
/// space; for restart-timing purposes the simulation needs only the rank's
/// logical position: how many runtime operations it had completed, plus the
/// compute time performed since its last runtime interaction (credited back
/// on replay) — see DESIGN.md §5.1.
#[derive(Debug, Clone, Default)]
pub struct RankImage {
    /// Completed runtime operations at the checkpoint instant.
    pub ops_completed: u64,
    /// Compute performed since the last runtime interaction.
    pub time_credit: SimDuration,
    /// When the image capture happened (fork instant).
    pub taken_at: SimTime,
    /// Messages delivered to the rank's runtime but not yet consumed by the
    /// application at capture time (library/daemon memory: the unexpected
    /// queue and matched-but-unwaited requests). Re-injected at restart
    /// before any channel-state replay.
    pub pending: Vec<ftmpi_mpi::AppMsg>,
    /// Per-source duplicate-suppression watermarks at capture time, as
    /// sparse `(peer, watermark)` pairs sorted by peer (used by
    /// single-rank-restart protocols; empty for the coordinated protocols,
    /// whose global restarts reset every counter).
    pub expect_seq: Vec<(ftmpi_mpi::Rank, u64)>,
    /// Per-destination send sequence counters at capture time, sparse and
    /// sorted like `expect_seq` (restored by single-rank-restart protocols
    /// so re-executed sends keep numbering where the receivers' duplicate
    /// filters expect it).
    pub send_seq: Vec<(ftmpi_mpi::Rank, u64)>,
}

impl RankImage {
    /// Capture `rank`'s image at the fork instant `now`: its completed
    /// operations, the compute credit since its last runtime interaction,
    /// and the messages its library holds unconsumed. The sequence
    /// snapshots stay empty — coordinated restarts reset every counter;
    /// Mlog fills them in on top of this capture.
    pub(crate) fn capture(rt: &RuntimeCore, rank: Rank, now: SimTime) -> RankImage {
        RankImage {
            ops_completed: rt.ranks[rank].ops_completed,
            time_credit: rt.capture_credit(rank, now),
            taken_at: now,
            pending: rt.snapshot_pending(rank),
            expect_seq: Vec::new(),
            send_seq: Vec::new(),
        }
    }

    /// Content digest of the image, keyed by the `(wave, rank)` slot it
    /// occupies so identical logical positions in different slots still
    /// hash apart. Computed once at capture and stamped on every stored
    /// replica; verify-on-fetch recomputes it from the authoritative wave
    /// record and rejects any replica whose stored digest disagrees (a
    /// bit-flip or torn write mutated the stored copy). FNV-1a over the
    /// restart-relevant fields — a pure function of the image, so the
    /// digest itself never perturbs scheduling.
    pub fn digest(&self, wave: u64, rank: Rank) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv_word(h, wave);
        h = fnv_word(h, rank as u64);
        h = fnv_word(h, self.ops_completed);
        h = fnv_word(h, self.time_credit.as_nanos());
        h = fnv_word(h, self.taken_at.as_nanos());
        h = fnv_word(h, self.pending.len() as u64);
        for m in &self.pending {
            h = fnv_word(h, m.src as u64);
            h = fnv_word(h, m.seq);
            h = fnv_word(h, m.bytes);
        }
        for &(peer, mark) in &self.expect_seq {
            h = fnv_word(h, peer as u64);
            h = fnv_word(h, mark);
        }
        for &(peer, seq) in &self.send_seq {
            h = fnv_word(h, peer as u64);
            h = fnv_word(h, seq);
        }
        h
    }
}

/// A committed checkpoint wave: everything needed to restart the job.
#[derive(Debug, Clone, Default)]
pub struct WaveRecord {
    /// Wave number (1-based).
    pub wave: u64,
    /// Per-rank images.
    pub images: Vec<RankImage>,
    /// Non-blocking protocol: logged in-transit messages per *destination*
    /// rank, in arrival order (the channel state of the snapshot).
    pub logs: Vec<Vec<AppMsg>>,
    /// Blocking protocol: sends that were delayed at checkpoint time, per
    /// *source* rank, in post order (re-sent after restart).
    pub delayed_sends: Vec<Vec<AppMsg>>,
    /// When the wave was committed (initiator saw every acknowledgement).
    pub committed_at: SimTime,
    /// When the wave was initiated.
    pub started_at: SimTime,
}

impl WaveRecord {
    /// An empty record for `n` ranks.
    pub fn new(wave: u64, n: usize, started_at: SimTime) -> WaveRecord {
        WaveRecord {
            wave,
            images: vec![RankImage::default(); n],
            logs: vec![Vec::new(); n],
            delayed_sends: vec![Vec::new(); n],
            committed_at: SimTime::ZERO,
            started_at,
        }
    }

    /// Work discarded by restarting from this wave at `now`: everything the
    /// job computed since the wave committed is lost. Feeds
    /// `FtStats::lost_work` — with detection lag, this span grows by the
    /// lag itself (survivors keep computing doomed work while the victim
    /// sits undetected).
    pub fn lost_work_at(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.committed_at)
    }

    /// Total bytes of logged channel state.
    pub fn logged_bytes(&self) -> u64 {
        self.logs
            .iter()
            .flat_map(|l| l.iter())
            .map(|m| m.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bytes: u64) -> AppMsg {
        AppMsg {
            src: 0,
            dst: 1,
            tag: 0,
            bytes,
            seq: 0,
            epoch: 0,
            posted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn lost_work_spans_commit_to_restart() {
        let mut rec = WaveRecord::new(1, 1, SimTime::ZERO);
        rec.committed_at = SimTime::from_nanos(100);
        assert_eq!(
            rec.lost_work_at(SimTime::from_nanos(350)),
            SimDuration::from_nanos(250)
        );
        // A restart before the commit instant (cannot happen, but the API
        // must not underflow) loses nothing.
        assert_eq!(rec.lost_work_at(SimTime::from_nanos(50)), SimDuration::ZERO);
    }

    #[test]
    fn digest_is_pure_and_distinguishes_content_and_slot() {
        let mut img = RankImage {
            ops_completed: 42,
            time_credit: SimDuration::from_nanos(17),
            taken_at: SimTime::from_nanos(900),
            ..RankImage::default()
        };
        let d = img.digest(3, 1);
        assert_eq!(d, img.digest(3, 1), "digest is a pure function");
        assert_ne!(d, img.digest(3, 2), "rank keys the digest");
        assert_ne!(d, img.digest(4, 1), "wave keys the digest");
        img.ops_completed = 43;
        assert_ne!(d, img.digest(3, 1), "content changes the digest");
        img.ops_completed = 42;
        img.pending.push(msg(9));
        assert_ne!(d, img.digest(3, 1), "pending messages are covered");
    }

    #[test]
    fn wave_record_counts_logged_bytes() {
        let mut rec = WaveRecord::new(3, 2, SimTime::ZERO);
        assert_eq!(rec.wave, 3);
        assert_eq!(rec.images.len(), 2);
        assert_eq!(rec.logged_bytes(), 0);
        rec.logs[0].push(msg(100));
        rec.logs[1].push(msg(250));
        assert_eq!(rec.logged_bytes(), 350);
    }
}
