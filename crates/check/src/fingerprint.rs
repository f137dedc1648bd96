//! Order-canonical trace fingerprints for the race detector.
//!
//! Two runs of the same configuration under different same-time event
//! tiebreaks execute independent events in a different order, which
//! permutes trace records *within* a virtual instant without changing the
//! protocol's behaviour. The fingerprint therefore buckets protocol events
//! by identical timestamp and sorts each bucket before hashing: schedules
//! that differ only in the order of independent same-instant events hash
//! identically, while any semantic divergence (different timings, counts,
//! or event contents) changes the digest.
//!
//! Only protocol events contribute. Kernel records (spawn/exit/kill) carry
//! pids, and restart-time spawn ties can permute pid assignment without
//! any semantic difference.
//!
//! The digest is computed incrementally by a `Fingerprinter`: records
//! are pushed in trace order, and its `digest()` returns the fingerprint
//! of every record pushed so far, so one pass over a trace yields the
//! fingerprint of each of its prefixes (the [`mod@crate::explore`] state memo
//! reads one per decision). A closed instant is folded into a running
//! FNV-1a hash. The open instant's records are held as byte ranges of one
//! reused buffer holding their derived-`Debug` text, and are sorted as
//! byte slices, the order their `String`s would sort in. A warm
//! fingerprinter allocates nothing. [`trace_fingerprint`] is one such pass
//! over a whole trace.

use std::fmt::Write;

use ftmpi_sim::{TraceEvent, TraceKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Incremental [`trace_fingerprint`]: push records in trace order, read
/// the fingerprint of everything pushed so far with [`Self::digest`].
pub(crate) struct Fingerprinter {
    /// Hash of every closed instant.
    closed: u64,
    /// Virtual time (ns) of the open instant, once a record opened one.
    open: Option<u64>,
    /// The open instant's records' `Debug` text, back to back.
    text: String,
    /// Each open record's byte range in `text`.
    spans: Vec<(usize, usize)>,
}

impl Fingerprinter {
    /// The fingerprinter of the empty trace.
    pub(crate) fn new() -> Fingerprinter {
        Fingerprinter {
            closed: FNV_OFFSET,
            open: None,
            text: String::new(),
            spans: Vec::new(),
        }
    }

    /// Append the next trace record. Kernel records are ignored.
    pub(crate) fn push(&mut self, te: &TraceEvent) {
        let TraceKind::Proto(ev) = te.kind else {
            return;
        };
        let t = te.time.as_nanos();
        if self.open != Some(t) {
            self.closed = self.digest();
            self.open = Some(t);
            self.text.clear();
            self.spans.clear();
        }
        let lo = self.text.len();
        write!(self.text, "{ev:?}").expect("formatting into a String cannot fail");
        self.spans.push((lo, self.text.len()));
    }

    /// The fingerprint of every record pushed so far. The open instant
    /// stays open: later same-instant records join it.
    pub(crate) fn digest(&mut self) -> u64 {
        let mut h = self.closed;
        let Some(t) = self.open else {
            return h;
        };
        let text = self.text.as_bytes();
        self.spans
            .sort_unstable_by(|&(a, b), &(c, d)| text[a..b].cmp(&text[c..d]));
        mix(&mut h, &t.to_le_bytes());
        for &(lo, hi) in &self.spans {
            mix(&mut h, &text[lo..hi]);
            mix(&mut h, b"\n");
        }
        h
    }
}

/// FNV-1a digest of a trace's protocol content, canonical under
/// permutations of same-instant events.
pub fn trace_fingerprint(trace: &[TraceEvent]) -> u64 {
    let mut f = Fingerprinter::new();
    for te in trace {
        f.push(te);
    }
    f.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi_core::{run_job_with, RunOptions};
    use ftmpi_sim::{ProtoEvent, SimTime};

    /// The digest as first written: one `format!` per record, each
    /// instant's `String`s sorted before hashing.
    fn reference_fingerprint(trace: &[TraceEvent]) -> u64 {
        fn flush_bucket(h: &mut u64, time: u64, bucket: &mut Vec<String>) {
            bucket.sort_unstable();
            mix(h, &time.to_le_bytes());
            for s in bucket.drain(..) {
                mix(h, s.as_bytes());
                mix(h, b"\n");
            }
        }
        let mut h = FNV_OFFSET;
        let mut bucket: Vec<String> = Vec::new();
        let mut bucket_time: Option<u64> = None;
        for te in trace {
            if let TraceKind::Proto(ev) = te.kind {
                let t = te.time.as_nanos();
                if bucket_time != Some(t) {
                    if let Some(pt) = bucket_time {
                        flush_bucket(&mut h, pt, &mut bucket);
                    }
                    bucket_time = Some(t);
                }
                bucket.push(format!("{ev:?}"));
            }
        }
        if let Some(pt) = bucket_time {
            flush_bucket(&mut h, pt, &mut bucket);
        }
        h
    }

    fn te(t: u64, ev: ProtoEvent) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            kind: TraceKind::Proto(ev),
            pid: None,
            detail: String::new(),
        }
    }

    #[test]
    fn same_instant_permutations_hash_identically() {
        let a = ProtoEvent::WaveStart { wave: 1 };
        let b = ProtoEvent::Fork {
            wave: 1,
            rank: 0,
            ops: 7,
        };
        let fwd = vec![te(10, a), te(10, b), te(20, a)];
        let rev = vec![te(10, b), te(10, a), te(20, a)];
        assert_eq!(trace_fingerprint(&fwd), trace_fingerprint(&rev));
    }

    #[test]
    fn cross_instant_moves_change_the_hash() {
        let a = ProtoEvent::WaveStart { wave: 1 };
        let b = ProtoEvent::Fork {
            wave: 1,
            rank: 0,
            ops: 7,
        };
        let x = vec![te(10, a), te(20, b)];
        let y = vec![te(10, b), te(20, a)];
        assert_ne!(trace_fingerprint(&x), trace_fingerprint(&y));
    }

    #[test]
    fn content_changes_change_the_hash() {
        let base = vec![te(10, ProtoEvent::WaveCommit { wave: 1 })];
        let other = vec![te(10, ProtoEvent::WaveCommit { wave: 2 })];
        assert_ne!(trace_fingerprint(&base), trace_fingerprint(&other));
        assert_ne!(trace_fingerprint(&base), trace_fingerprint(&[]));
    }

    /// `src: 9` sorts before `src: 10` as a number and after it as text;
    /// an instant holding both must sort as text, like the reference.
    #[test]
    fn instants_sort_as_text_not_as_numbers() {
        let deliver = |src| ProtoEvent::Deliver {
            src,
            dst: 1,
            seq: 3,
            epoch: 0,
        };
        let nine_first = vec![te(10, deliver(9)), te(10, deliver(10))];
        let ten_first = vec![te(10, deliver(10)), te(10, deliver(9))];
        let expect = reference_fingerprint(&nine_first);
        assert_eq!(expect, reference_fingerprint(&ten_first));
        assert_eq!(trace_fingerprint(&nine_first), expect);
        assert_eq!(trace_fingerprint(&ten_first), expect);
    }

    /// One fingerprinter fed a real probe trace record by record must
    /// equal the reference at every cut, including cuts that split an
    /// instant — the explorer reads its state memo exactly so.
    #[test]
    fn incremental_digest_matches_the_reference_at_every_cut() {
        let (_, spec) = crate::suite::smoke_probes()
            .into_iter()
            .find(|(n, _)| n == "smoke.stream2.vcl")
            .expect("the stream probe is a smoke probe");
        let opts = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        let (_, trace) = run_job_with(spec, opts).expect("probe runs");
        assert!(trace.len() > 500, "probe trace shrank: {}", trace.len());
        let proto_at = |i: usize| match trace[i].kind {
            TraceKind::Proto(_) => Some(trace[i].time),
            _ => None,
        };
        let mid_instant_cuts = (1..trace.len())
            .filter(|&i| proto_at(i).is_some() && proto_at(i - 1) == proto_at(i))
            .count();
        assert!(mid_instant_cuts > 0, "no cut splits an instant");
        let mut f = Fingerprinter::new();
        for cut in 0..=trace.len() {
            let want = reference_fingerprint(&trace[..cut]);
            assert_eq!(f.digest(), want, "incremental digest at cut {cut}");
            assert_eq!(trace_fingerprint(&trace[..cut]), want, "one pass at {cut}");
            if let Some(te) = trace.get(cut) {
                f.push(te);
            }
        }
    }
}
