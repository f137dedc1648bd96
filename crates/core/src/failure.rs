//! Failure injection.
//!
//! The paper emulates failures "by killing the task, not the operating
//! system", with immediate detection through the broken TCP connection.
//! [`FailurePlan`] expresses either explicit kills (deterministic tests and
//! recovery experiments) or an MTTF-driven Poisson process (the extension
//! experiments suggested by the paper's conclusion: the best wave period is
//! tied to the system MTTF). Beyond the paper's model, a plan can also
//! schedule checkpoint-*server* node failures: every image replica stored on
//! the failed server becomes unavailable and a later restart must fall back
//! to an older committed wave (or scratch) unless `replicas > 1` kept
//! another copy alive.
//!
//! ## Kill semantics
//!
//! - Kill times in [`FailurePlan::poisson`] are **strictly increasing**:
//!   exponential inter-arrival gaps are clamped to ≥ 1 ns so two kills never
//!   share an instant (a sub-nanosecond gap would otherwise round to zero
//!   and make recovery order tiebreak-dependent).
//! - The **same victim back-to-back** is legal. If the second kill lands
//!   while the first restart is still staging, it is a *mid-recovery* kill:
//!   the restart restarts cleanly from the same committed wave. If it lands
//!   during the detection lag while the victim is already dead, it is
//!   absorbed as a no-op (one task cannot die twice).
//! - A kill after job completion is a no-op.
//! - **Cross-schedule instants are legal.** The 1 ns clamp only orders kills
//!   *within one* [`FailurePlan::poisson`] (or
//!   [`FailurePlan::poisson_servers`]) schedule; a rank kill and a server
//!   kill — whether hand-placed or produced by two independently seeded
//!   Poisson processes — may land in the same nanosecond. The injection
//!   layer tolerates this without dedupe tricks: server failures are
//!   idempotent (`CheckpointStore::fail_server` marks a `BTreeSet`, so
//!   repeated or coincident failures of one server collapse), and a rank
//!   kill landing at the same instant sees the server already dead by the
//!   time its detection fires, because the runner schedules server kills
//!   before rank kills at equal times.
//! - **Node kills are correlated failures.** [`FailurePlan::node_kills`]
//!   names a *node*: at the scheduled time every rank placed on that node
//!   dies atomically, and a checkpoint server colocated on it fails too —
//!   one cable pull taking out both ranks of a dual-processor node and the
//!   images it stored.

use ftmpi_mpi::Rank;
use ftmpi_net::fault::exp_draw;
use ftmpi_sim::schedule::{splitmix64, StdRng};
use ftmpi_sim::{SimDuration, SimTime};

/// One scheduled bit-flip on a checkpoint server's stored replicas.
///
/// The server is named by fleet index (like
/// [`FailurePlan::server_kills`]), so plans stay valid across topology
/// changes. With `rank: Some(r)` the flip damages the replica of `r`'s
/// image belonging to the newest wave the server currently holds it for;
/// with `rank: None` it is a whole-disk rot event flipping every replica
/// on the server. Either way the event is *silent*: nothing in the
/// runtime reacts until verify-on-fetch or the scrubber reads the
/// damaged copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// When the stored bits flip.
    pub at: SimTime,
    /// Checkpoint-server fleet index whose disk is damaged.
    pub server: usize,
    /// Rank whose stored image is hit, or `None` for every replica on the
    /// server.
    pub rank: Option<Rank>,
}

/// A seeded silent-corruption process on one checkpoint server: from
/// `start` to `end`, replica damage arrives with exponentially
/// distributed gaps (mean `mtbc` — mean time between corruptions), each
/// event hitting a uniformly drawn rank's stored image. Expansion to
/// concrete [`CorruptionEvent`]s is a pure function of the spec
/// (splitmix64 stream keyed by `seed` and `server`, mirroring
/// `LinkFlapSpec`), so two runs of the same plan damage the identical
/// replicas at the identical instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SilentCorruptionSpec {
    /// Checkpoint-server fleet index the process runs on.
    pub server: usize,
    /// Mean time between corruption events.
    pub mtbc: SimDuration,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Rank universe the per-event target is drawn from (`0..ranks`).
    pub ranks: usize,
    /// PRNG seed; the stream is also keyed by the server index so several
    /// specs may share a seed without sharing a schedule.
    pub seed: u64,
}

impl SilentCorruptionSpec {
    /// Expand the renewal process into concrete per-rank bit-flip events,
    /// strictly increasing in time within the window.
    pub fn expand(&self) -> Vec<CorruptionEvent> {
        if self.end <= self.start || self.mtbc.is_zero() || self.ranks == 0 {
            return Vec::new();
        }
        // Fold the server index into the stream so specs sharing a seed
        // get distinct schedules.
        let mut key = self.server as u64;
        let mut state = self.seed ^ splitmix64(&mut key);
        let mut events = Vec::new();
        let mut t = self.start;
        loop {
            t += exp_draw(&mut state, self.mtbc);
            if t >= self.end {
                break;
            }
            let rank = (splitmix64(&mut state) % self.ranks as u64) as Rank;
            events.push(CorruptionEvent {
                at: t,
                server: self.server,
                rank: Some(rank),
            });
        }
        events
    }
}

/// A schedule of task kills and checkpoint-server failures.
/// [`run_job`](crate::run_job) rejects a plan that names a rank, server or
/// node the job does not have, before it schedules anything
/// ([`SpecError`](crate::SpecError)).
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    /// `(time, victim rank)` pairs, in any order.
    pub kills: Vec<(SimTime, Rank)>,
    /// `(time, server index)` pairs, in any order. The index selects a
    /// server within the deployment's server fleet (`0..servers`), not a
    /// raw node id — plans stay valid across topology changes.
    pub server_kills: Vec<(SimTime, usize)>,
    /// `(time, node id)` pairs, in any order: correlated whole-node deaths.
    /// At the scheduled time every rank placed on the node is killed in one
    /// atomic detection, and a server whose fleet slot lives on the node
    /// fails first (see the module docs). Node ids are raw topology ids —
    /// unlike server indices they are inherently placement-specific.
    pub node_kills: Vec<(SimTime, usize)>,
    /// Explicit bit-flip events on stored replicas, in any order.
    pub corruptions: Vec<CorruptionEvent>,
    /// Seeded silent-corruption processes, expanded to explicit events at
    /// schedule time (see
    /// [`expanded_corruptions`](FailurePlan::expanded_corruptions)).
    pub silent_corruption: Vec<SilentCorruptionSpec>,
}

impl FailurePlan {
    /// No failures (the paper's performance figures are failure-free).
    pub fn none() -> FailurePlan {
        FailurePlan::default()
    }

    /// A single kill of `victim` at `at`.
    pub fn kill_at(at: SimTime, victim: Rank) -> FailurePlan {
        FailurePlan::none().with_kill(at, victim)
    }

    /// A single checkpoint-server failure at `at`.
    pub fn server_kill_at(at: SimTime, server: usize) -> FailurePlan {
        FailurePlan::none().with_server_kill(at, server)
    }

    /// A single whole-node death at `at`.
    pub fn node_kill_at(at: SimTime, node: usize) -> FailurePlan {
        FailurePlan::none().with_node_kill(at, node)
    }

    /// Builder: add a rank kill.
    pub fn with_kill(mut self, at: SimTime, victim: Rank) -> FailurePlan {
        self.kills.push((at, victim));
        self
    }

    /// Builder: add a checkpoint-server failure.
    pub fn with_server_kill(mut self, at: SimTime, server: usize) -> FailurePlan {
        self.server_kills.push((at, server));
        self
    }

    /// Builder: add a correlated whole-node death.
    pub fn with_node_kill(mut self, at: SimTime, node: usize) -> FailurePlan {
        self.node_kills.push((at, node));
        self
    }

    /// Builder: add a bit-flip of `rank`'s newest stored image on fleet
    /// server `server` at `at`.
    pub fn with_corruption(mut self, at: SimTime, server: usize, rank: Rank) -> FailurePlan {
        self.corruptions.push(CorruptionEvent {
            at,
            server,
            rank: Some(rank),
        });
        self
    }

    /// Builder: add a whole-disk rot event flipping every replica stored
    /// on fleet server `server` at `at`.
    pub fn with_server_corruption(mut self, at: SimTime, server: usize) -> FailurePlan {
        self.corruptions.push(CorruptionEvent {
            at,
            server,
            rank: None,
        });
        self
    }

    /// Builder: add a seeded silent-corruption process.
    pub fn with_silent_corruption(mut self, spec: SilentCorruptionSpec) -> FailurePlan {
        self.silent_corruption.push(spec);
        self
    }

    /// Explicit corruption events plus every silent-process expansion, in
    /// plan order (explicit events first, then each spec's schedule).
    /// This is the list the runner actually schedules; its order fixes
    /// the corruption-lane assignment, so it must stay a pure function of
    /// the plan — mirroring `NetFaultPlan::expanded_link_events`.
    pub fn expanded_corruptions(&self) -> Vec<CorruptionEvent> {
        let mut evs = self.corruptions.clone();
        for spec in &self.silent_corruption {
            evs.extend(spec.expand());
        }
        evs
    }

    /// Poisson failure process: system-wide exponential inter-arrival times
    /// with the given mean (`mttf`), uniformly random victims, until
    /// `horizon`. Deterministic for a given seed. Kill times are strictly
    /// increasing (gaps clamp to ≥ 1 ns, see the module docs); the same
    /// victim may repeat back-to-back, which exercises the mid-recovery and
    /// detection-lag paths.
    pub fn poisson(mttf: SimDuration, horizon: SimTime, nranks: usize, seed: u64) -> FailurePlan {
        assert!(nranks > 0 && !mttf.is_zero());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kills = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            // Inverse-CDF exponential sampling.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = SimDuration::from_secs_f64(-mttf.as_secs_f64() * u.ln());
            // Tiny samples round to zero nanoseconds; clamp so no two kills
            // share an instant.
            t += gap.max(SimDuration::from_nanos(1));
            if t > horizon {
                break;
            }
            kills.push((t, rng.gen_range(0..nranks)));
        }
        FailurePlan {
            kills,
            ..FailurePlan::default()
        }
    }

    /// MTTF-driven Poisson process over the checkpoint-*server* fleet: the
    /// server-side twin of [`FailurePlan::poisson`], with the same
    /// strictly-increasing clamp and seed determinism. Pair the two (with
    /// different seeds) to model compute and storage failing independently;
    /// entries from the two schedules may then share a nanosecond — see the
    /// module docs for why that is safe.
    pub fn poisson_servers(
        mttf: SimDuration,
        horizon: SimTime,
        nservers: usize,
        seed: u64,
    ) -> FailurePlan {
        assert!(nservers > 0 && !mttf.is_zero());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut server_kills = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = SimDuration::from_secs_f64(-mttf.as_secs_f64() * u.ln());
            t += gap.max(SimDuration::from_nanos(1));
            if t > horizon {
                break;
            }
            server_kills.push((t, rng.gen_range(0..nservers)));
        }
        FailurePlan {
            server_kills,
            ..FailurePlan::default()
        }
    }

    /// Merge another plan's schedules into this one (e.g. a rank Poisson
    /// process with a server Poisson process).
    pub fn merged(mut self, other: FailurePlan) -> FailurePlan {
        self.kills.extend(other.kills);
        self.server_kills.extend(other.server_kills);
        self.node_kills.extend(other.node_kills);
        self.corruptions.extend(other.corruptions);
        self.silent_corruption.extend(other.silent_corruption);
        self
    }

    /// Number of scheduled failures (rank kills plus server failures plus
    /// node deaths plus expanded corruption events).
    pub fn len(&self) -> usize {
        self.kills.len()
            + self.server_kills.len()
            + self.node_kills.len()
            + self.expanded_corruptions().len()
    }

    /// True when no failures of any kind are scheduled.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.server_kills.is_empty()
            && self.node_kills.is_empty()
            && self.corruptions.is_empty()
            && self.silent_corruption.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = FailurePlan::poisson(
            SimDuration::from_secs(100),
            SimTime::from_nanos(3_600_000_000_000),
            16,
            42,
        );
        let b = FailurePlan::poisson(
            SimDuration::from_secs(100),
            SimTime::from_nanos(3_600_000_000_000),
            16,
            42,
        );
        assert_eq!(a.kills, b.kills);
        let c = FailurePlan::poisson(
            SimDuration::from_secs(100),
            SimTime::from_nanos(3_600_000_000_000),
            16,
            43,
        );
        assert_ne!(a.kills, c.kills);
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        // 1 hour horizon, 100 s MTTF → ≈36 failures.
        let plan = FailurePlan::poisson(
            SimDuration::from_secs(100),
            SimTime::from_nanos(3_600_000_000_000),
            8,
            7,
        );
        assert!(
            (20..=60).contains(&plan.len()),
            "unexpected failure count {}",
            plan.len()
        );
        assert!(plan.kills.iter().all(|(_, v)| *v < 8));
    }

    #[test]
    fn poisson_kill_times_strictly_increase() {
        // A microscopic MTTF makes nearly every exponential sample round to
        // zero nanoseconds; the 1 ns clamp must still keep times strictly
        // increasing so same-instant kills cannot occur.
        let plan = FailurePlan::poisson(
            SimDuration::from_nanos(1),
            SimTime::from_nanos(10_000),
            4,
            9,
        );
        assert!(
            plan.len() > 100,
            "expected a dense plan, got {}",
            plan.len()
        );
        for w in plan.kills.windows(2) {
            assert!(w[0].0 < w[1].0, "kills share an instant: {:?}", w);
        }
    }

    #[test]
    fn poisson_can_repeat_a_victim_back_to_back() {
        // Documented semantics: the same rank may be the next victim again
        // before the previous recovery finishes. With one rank every kill
        // repeats the victim — the plan must not dedupe them away.
        let plan = FailurePlan::poisson(
            SimDuration::from_secs(1),
            SimTime::from_nanos(60_000_000_000),
            1,
            5,
        );
        assert!(plan.len() >= 2);
        assert!(plan.kills.iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn kill_at_builds_single_entry() {
        let p = FailurePlan::kill_at(SimTime::from_nanos(5), 3);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(FailurePlan::none().is_empty());
    }

    #[test]
    fn server_kills_count_toward_len() {
        let p = FailurePlan::server_kill_at(SimTime::from_nanos(7), 1);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        let p = p.with_kill(SimTime::from_nanos(9), 0);
        assert_eq!(p.len(), 2);
        let p = FailurePlan::none().with_server_kill(SimTime::from_nanos(3), 0);
        assert_eq!(p.server_kills, vec![(SimTime::from_nanos(3), 0)]);
    }

    #[test]
    fn node_kills_count_toward_len() {
        let p = FailurePlan::node_kill_at(SimTime::from_nanos(11), 2);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        let p = p.with_node_kill(SimTime::from_nanos(13), 0);
        assert_eq!(
            p.node_kills,
            vec![(SimTime::from_nanos(11), 2), (SimTime::from_nanos(13), 0)]
        );
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn poisson_servers_is_deterministic_and_in_range() {
        let hour = SimTime::from_nanos(3_600_000_000_000);
        let a = FailurePlan::poisson_servers(SimDuration::from_secs(200), hour, 4, 42);
        let b = FailurePlan::poisson_servers(SimDuration::from_secs(200), hour, 4, 42);
        assert_eq!(a.server_kills, b.server_kills);
        assert!(a.kills.is_empty() && a.node_kills.is_empty());
        assert!(
            (8..=35).contains(&a.len()),
            "≈18 server failures expected, got {}",
            a.len()
        );
        assert!(a.server_kills.iter().all(|(_, s)| *s < 4));
        for w in a.server_kills.windows(2) {
            assert!(w[0].0 < w[1].0, "server kills share an instant: {w:?}");
        }
    }

    #[test]
    fn corruption_builders_count_and_merge() {
        let p = FailurePlan::none()
            .with_corruption(SimTime::from_nanos(5), 0, 3)
            .with_server_corruption(SimTime::from_nanos(9), 1);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.corruptions[0].rank, Some(3));
        assert_eq!(p.corruptions[1].rank, None);
        let merged = FailurePlan::kill_at(SimTime::from_nanos(1), 0).merged(p);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.corruptions.len(), 2);
    }

    #[test]
    fn silent_corruption_expands_deterministically() {
        let spec = SilentCorruptionSpec {
            server: 1,
            mtbc: SimDuration::from_secs(2),
            start: SimTime::from_nanos(0),
            end: SimTime::from_nanos(60_000_000_000),
            ranks: 8,
            seed: 17,
        };
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b, "expansion must be a pure function of the spec");
        assert!(!a.is_empty(), "a 60s window at 2s MTBC should fire");
        for (i, ev) in a.iter().enumerate() {
            assert_eq!(ev.server, 1);
            assert!(ev.rank.is_some_and(|r| r < 8), "target drawn in range");
            assert!(ev.at > spec.start && ev.at < spec.end);
            if i > 0 {
                assert!(a[i - 1].at < ev.at, "times strictly increase");
            }
        }
        // Seed and server key the stream.
        let reseeded = SilentCorruptionSpec { seed: 18, ..spec };
        assert_ne!(a, reseeded.expand());
        let moved = SilentCorruptionSpec { server: 0, ..spec };
        let times = |evs: &[CorruptionEvent]| evs.iter().map(|e| e.at).collect::<Vec<_>>();
        assert_ne!(times(&a), times(&moved.expand()));
        // Degenerate windows expand to nothing instead of looping.
        let empty = SilentCorruptionSpec {
            end: spec.start,
            ..spec
        };
        assert!(empty.expand().is_empty());
        let no_ranks = SilentCorruptionSpec { ranks: 0, ..spec };
        assert!(no_ranks.expand().is_empty());
        // A plan carrying only a silent spec is non-empty and its len
        // counts the expansion.
        let p = FailurePlan::none().with_silent_corruption(spec);
        assert!(!p.is_empty());
        assert_eq!(p.len(), a.len());
        assert_eq!(p.expanded_corruptions(), a);
    }

    #[test]
    fn same_nanosecond_across_schedules_is_legal_and_survives_merge() {
        // The strictly-increasing clamp orders kills *within* one Poisson
        // schedule; two independently seeded schedules give no such
        // guarantee across each other. Build the worst case explicitly —
        // a rank kill and a server kill in the same nanosecond — and check
        // the plan carries both entries verbatim (injection-side safety is
        // covered by `coincident_server_and_rank_kill_*` in
        // tests/protocols.rs: `fail_server` is an idempotent BTreeSet
        // insert, and the runner orders server kills before rank kills at
        // equal times).
        let t = SimTime::from_nanos(500);
        let p = FailurePlan::poisson(SimDuration::from_secs(1), SimTime::from_nanos(2), 2, 1)
            .merged(FailurePlan::kill_at(t, 0))
            .merged(FailurePlan::server_kill_at(t, 0))
            .merged(FailurePlan::node_kill_at(t, 3));
        assert!(p.kills.contains(&(t, 0)));
        assert!(p.server_kills.contains(&(t, 0)));
        assert!(p.node_kills.contains(&(t, 3)));
        // Dense schedules with different seeds *can* collide across
        // schedules: verify at least that merging two dense plans keeps
        // every entry (no dedupe at the plan layer).
        let dense_r =
            FailurePlan::poisson(SimDuration::from_nanos(1), SimTime::from_nanos(1_000), 2, 7);
        let dense_s = FailurePlan::poisson_servers(
            SimDuration::from_nanos(1),
            SimTime::from_nanos(1_000),
            2,
            8,
        );
        let merged = dense_r.clone().merged(dense_s.clone());
        assert_eq!(merged.len(), dense_r.len() + dense_s.len());
        let shared = dense_r
            .kills
            .iter()
            .filter(|(t, _)| dense_s.server_kills.iter().any(|(ts, _)| ts == t))
            .count();
        assert!(
            shared > 0,
            "dense independent schedules should collide in this configuration"
        );
    }
}
