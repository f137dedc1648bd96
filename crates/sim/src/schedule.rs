//! Schedule-policy hook: controlled choice among commuting same-time events.
//!
//! The kernel's canonical order among same-instant events is scheduling
//! order, `seq` — an accident that model semantics must not depend on. A
//! [`SchedulePolicy`] lets a controller pick another one: at every instant
//! with more than one ready schedulable unit, the kernel presents the
//! candidates and the policy picks which one runs next. The
//! `ftmpi-check explore` DPOR loop *enumerates* orders through
//! [`PrescribedPolicy`]; the race detector *samples* them through
//! [`SeededPolicy`].
//!
//! A *candidate* is either a laneless event (freely permutable by
//! definition) or the front event of a tiebreak lane — same-lane same-time
//! events keep their scheduling order under every policy, because
//! intra-lane order is defined model semantics (channel FIFO, per-process
//! op order), not scheduler freedom. Both policies therefore range over
//! one space: a seed samples exactly the orders the explorer enumerates.
//!
//! With a policy installed the kernel also records a [`Decision`] per
//! multi-candidate instant and a [`StepRecord`] per executed event, so a
//! controller can replay prefixes deterministically (feed the chosen
//! indices back through [`PrescribedPolicy`]) and attribute trace effects
//! to steps. The kernel has one pop for both cases: without a policy it
//! takes choice 0, the instant's least-`seq` live event, and builds no
//! candidates and records nothing, so an ordinary run follows exactly the
//! schedule of a policy that always answers 0.
//!
//! The seeded randomness of the workspace lives here too: [`splitmix64`],
//! and the [`StdRng`] generator seeded through it.

use std::ops::Range;

use crate::process::Pid;
use crate::time::SimTime;

/// What kind of schedulable unit a candidate is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateKind {
    /// Anything but a wake: a model closure (network-fault transitions
    /// included), a posted op, a data event, or a sleep's call.
    Call,
    /// A wake (or kill) of the given process.
    Resume(Pid),
}

/// One schedulable unit offered to a [`SchedulePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The event's kernel sequence number (unique within a run; replays of
    /// the same choice prefix reproduce identical sequence numbers).
    pub seq: u64,
    /// The event's tiebreak lane (`None`: laneless, freely permutable).
    pub lane: Option<u64>,
    /// Event category.
    pub kind: CandidateKind,
}

/// A recorded scheduling decision: the candidate set at one instant and
/// which candidate the policy chose.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Virtual time of the tied instant.
    pub time: SimTime,
    /// Index into [`crate::RunReport::steps`] of the step that executed
    /// the chosen candidate.
    pub step: usize,
    /// The candidates offered, in canonical pop order (so index 0 is the
    /// event the policy-free kernel would have run).
    pub candidates: Vec<Candidate>,
    /// Index of the chosen candidate.
    pub chosen: usize,
}

/// One executed event in a policy-driven run: which event ran and where
/// its observable effects start in the recorded trace.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Kernel sequence number of the executed event.
    pub seq: u64,
    /// Virtual time the event executed at.
    pub time: SimTime,
    /// Trace length when the event was popped: the step's effects are the
    /// trace records in `[trace_lo, next_step.trace_lo)`. (Valid because
    /// execution is cooperative — everything a step causes, including the
    /// trace records of a resumed process, is recorded before the kernel
    /// pops the next event.)
    pub trace_lo: usize,
}

/// A controller choosing among same-instant candidates.
///
/// `choose` is called only when more than one candidate is ready; the
/// return value is clamped to the candidate range. Implementations must be
/// deterministic functions of their own state and the presented candidates
/// — the kernel replays a run by replaying the policy.
pub trait SchedulePolicy {
    /// Pick the index of the candidate to execute next.
    fn choose(&mut self, time: SimTime, candidates: &[Candidate]) -> usize;
}

/// Policy that follows a prescribed list of choice indices, then falls
/// back to 0 (the canonical pop order) once the prescription is spent.
///
/// This is the DPOR frontier's replay vehicle: a schedule is identified by
/// its decision prefix, and `PrescribedPolicy::new(prefix)` deterministically
/// re-executes it — the canonical tail makes every prescription a complete
/// schedule.
#[derive(Debug, Default, Clone)]
pub struct PrescribedPolicy {
    choices: Vec<usize>,
    cursor: usize,
}

impl PrescribedPolicy {
    /// A policy replaying `choices`, canonical beyond them.
    pub fn new(choices: Vec<usize>) -> PrescribedPolicy {
        PrescribedPolicy { choices, cursor: 0 }
    }
}

impl SchedulePolicy for PrescribedPolicy {
    fn choose(&mut self, _time: SimTime, candidates: &[Candidate]) -> usize {
        let pick = self.choices.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        pick.min(candidates.len().saturating_sub(1))
    }
}

/// One step of the splitmix64 generator — the workspace's standard tiny
/// PRNG for seeded, dependency-free randomness: [`SeededPolicy`]'s tie
/// order, and the flap, rot and silent-corruption expansions of the fault
/// plans.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's seeded generator, xoshiro256++ with its state four
/// [`splitmix64`] steps from the seed. The failure plans' random kills and
/// the storm and miner campaigns draw from it; the storm goldens pin it.
#[derive(Debug, Clone)]
pub struct StdRng([u64; 4]);

impl StdRng {
    /// A generator seeded from `seed`.
    pub fn seed_from_u64(mut seed: u64) -> StdRng {
        StdRng(std::array::from_fn(|_| splitmix64(&mut seed)))
    }

    /// The next 64 random bits: one xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let [a, b, c, d] = self.0;
        let out = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let (c, d) = (c ^ a, d ^ b);
        self.0 = [a ^ d, b ^ c, c ^ (b << 17), d.rotate_left(45)];
        out
    }

    /// A uniform sample from the half-open `range`, which must not be
    /// empty.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range on empty range");
        T::sample(self.next_u64(), range)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_range(0.0..1.0) < p
    }
}

/// A type [`StdRng::gen_range`] draws, from 64 random bits.
pub trait SampleUniform: PartialOrd + Sized {
    /// The value `bits` picks in the non-empty `range`.
    fn sample(bits: u64, range: Range<Self>) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(bits: u64, range: Range<Self>) -> Self {
                // Modulo bias below 2^-32: every span drawn is far below 2^32.
                let span = (range.end as i128 - range.start as i128) as u64;
                range.start.wrapping_add((bits % span) as $t)
            }
        }
    )*};
}

sample_int!(u32, u64, usize, i64);

impl SampleUniform for f64 {
    fn sample(bits: u64, range: Range<Self>) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + (range.end - range.start) * unit
    }
}

/// Policy that runs a seeded permutation of each tied instant: the
/// candidate with the least `(splitmix64(seed ^ lane), seq)`, a laneless
/// event standing in its own lane `seq`. Every event of a lane shares one
/// hash, so a lane keeps its scheduling order and distinct lanes land in a
/// seeded order. The race detector runs a configuration under a few seeds
/// and compares trace fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct SeededPolicy {
    seed: u64,
}

impl SeededPolicy {
    /// A policy ordering ties by `seed`.
    pub fn new(seed: u64) -> SeededPolicy {
        SeededPolicy { seed }
    }
}

impl SchedulePolicy for SeededPolicy {
    fn choose(&mut self, _time: SimTime, candidates: &[Candidate]) -> usize {
        let key = |c: &Candidate| {
            let mut state = self.seed ^ c.lane.unwrap_or(c.seq);
            (splitmix64(&mut state), c.seq)
        };
        (0..candidates.len())
            .min_by_key(|&i| key(&candidates[i]))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(seq: u64) -> Candidate {
        Candidate {
            seq,
            lane: None,
            kind: CandidateKind::Call,
        }
    }

    #[test]
    fn prescribed_policy_replays_then_goes_canonical() {
        let mut p = PrescribedPolicy::new(vec![2, 1]);
        let cs = [cand(0), cand(1), cand(2)];
        assert_eq!(p.choose(SimTime::ZERO, &cs), 2);
        assert_eq!(p.choose(SimTime::ZERO, &cs), 1);
        assert_eq!(p.choose(SimTime::ZERO, &cs), 0, "past the prescription");
        // Out-of-range prescriptions clamp instead of panicking (a shorter
        // candidate list on replay means the abstraction drifted; the
        // explorer detects that via fingerprints, not via a crash).
        let mut q = PrescribedPolicy::new(vec![9]);
        assert_eq!(q.choose(SimTime::ZERO, &cs[..2]), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
        let mut c = StdRng::seed_from_u64(8);
        let same: Vec<u64> = (0..20).map(|_| c.gen_range(0u64..1_000_000)).collect();
        let mut a2 = StdRng::seed_from_u64(7);
        let other: Vec<u64> = (0..20).map(|_| a2.gen_range(0u64..1_000_000)).collect();
        assert_ne!(same, other);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((0.49..0.51).contains(&mean), "mean {mean}");
    }
}
