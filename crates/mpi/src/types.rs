//! Core vocabulary: ranks, tags, message envelopes.

use ftmpi_sim::{ReplyWords, SimTime};

/// An MPI rank (0-based).
pub type Rank = usize;

/// An MPI message tag.
pub type Tag = i32;

/// Wildcard source for receives.
pub const ANY_SOURCE: Option<Rank> = None;

/// Wildcard tag for receives.
pub const ANY_TAG: Option<Tag> = None;

/// Per-channel application message sequence number (assigned at send post,
/// used by tests to verify FIFO delivery and by logs for replay ordering).
pub type MsgSeq = u64;

/// A directed channel between two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelKey {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
}

/// An application message in flight (metadata only; the simulation tracks
/// sizes and timing, not payload contents — see DESIGN.md §5.3).
#[derive(Debug, Clone)]
pub struct AppMsg {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// MPI tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Per-channel sequence number.
    pub seq: MsgSeq,
    /// Job epoch at send time (stale-epoch messages are dropped).
    pub epoch: u64,
    /// Virtual time the send was posted by the application.
    pub posted_at: SimTime,
}

impl AppMsg {
    /// The directed channel this message travels on.
    pub fn channel(&self) -> ChannelKey {
        ChannelKey {
            src: self.src,
            dst: self.dst,
        }
    }
}

/// What a completed receive reports back to the application.
#[derive(Debug, Clone, Copy)]
pub struct RecvInfo {
    /// Actual source rank.
    pub src: Rank,
    /// Actual tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// A receive's reply travels as two words: the source rank in the high
/// half and the tag, sign preserved, in the low half of the first, the
/// byte count in the second. Ranks must fit 32 bits.
impl ReplyWords for RecvInfo {
    fn to_words(self) -> [u64; 2] {
        let src = u32::try_from(self.src).expect("a rank fits a reply's 32-bit src field");
        [
            u64::from(src) << 32 | u64::from(self.tag as u32),
            self.bytes,
        ]
    }

    fn from_words([head, bytes]: [u64; 2]) -> RecvInfo {
        RecvInfo {
            src: (head >> 32) as Rank,
            tag: head as u32 as Tag,
            bytes,
        }
    }
}

impl RecvInfo {
    /// Placeholder returned by skip-replayed receives (contents are never
    /// inspected by replayed code — those operations already ran before the
    /// checkpoint).
    pub fn replayed() -> RecvInfo {
        RecvInfo {
            src: 0,
            tag: 0,
            bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_info_packing_round_trips_at_the_limits() {
        for (src, tag, bytes) in [
            (0, 0, 0),
            (u32::MAX as Rank, Tag::MIN, u64::MAX),
            (u32::MAX as Rank - 1, -1, 1),
            (7, Tag::MAX, 1 << 40),
            (100_000, -998, 64),
        ] {
            let info = RecvInfo { src, tag, bytes };
            let back = RecvInfo::from_words(info.to_words());
            assert_eq!((back.src, back.tag, back.bytes), (src, tag, bytes));
        }
    }

    #[test]
    #[should_panic(expected = "32-bit src")]
    fn a_rank_past_32_bits_does_not_pack() {
        let info = RecvInfo {
            src: 1 << 32,
            tag: 0,
            bytes: 0,
        };
        info.to_words();
    }
}
