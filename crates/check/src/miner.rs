//! Coverage-guided failure-storm miner.
//!
//! The deterministic storm families in [`crate::storm`] pin known fragile
//! windows; the miner searches *between* them. A fault schedule is a
//! [`Genome`] — a protocol choice, a replication factor, and a list of
//! [`Gene`]s (rank kills, server kills, directed partitions, server-group
//! partitions, link flaps, stored-image corruption). A seeded mutation
//! loop (shift, widen, flip-direction, retarget, add-flap, add-corrupt,
//! drop) evolves genomes starting from
//! hand-seeded schedules aimed at the measured wave windows; every mutant
//! that passes [`ftmpi_net::NetFaultPlan::validate`] is run through
//! [`crate::storm::run_storm`] and the full invariant checker.
//!
//! Search is driven by a *coverage map*: each run is collapsed into a
//! [`CoverageKey`] — the outcome class plus capped/bucketed robustness
//! observables (restarts, aborted waves, rollback depth, exhausted retry
//! ladders, replica-walk depth, watchdog verdicts, a log₂ bucket of link
//! retries). A mutant lighting up a key never seen before joins the
//! corpus and becomes mutation fodder; everything else is discarded. The
//! corpus and every violation reproducer are dumped under
//! `results/storm/` in the same `key=value` artifact format the schedule
//! explorer uses, and [`replay`] re-runs a reproducer from disk.
//!
//! Determinism: the mutation stream is a seeded `StdRng`, the coverage map
//! is a `BTreeSet`, gene timestamps are virtual nanoseconds, and the
//! report carries no wall-clock fields — two invocations with the same
//! seed and budget produce byte-identical corpora and reports.

use std::collections::BTreeSet;
use std::path::Path;

use ftmpi_core::{FailurePlan, JobSpec, ProtocolChoice, SilentCorruptionSpec};
use ftmpi_net::{CutDirection, LinkFlapSpec, NetFaultPlan, NodeId};
use ftmpi_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::storm::{profile, ring_spec, run_storm, StormOutcome};

/// Ranks in the mined workload (the storm ring).
const NRANKS: usize = 8;
/// Checkpoint servers in the mined workload.
const NSERVERS: usize = 2;
/// Node index of the first server (ranks occupy nodes `0..NRANKS`).
const SERVER_NODE_BASE: usize = NRANKS;
/// Latest virtual time a gene may fire, ns (the ring finishes well before).
const HORIZON_NS: u64 = 60_000_000_000;

/// One inheritable fault in a mined schedule. Times are virtual ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gene {
    /// Kill one rank.
    Kill {
        /// Kill time, ns.
        at_ns: u64,
        /// Victim rank.
        victim: usize,
    },
    /// Kill one checkpoint server.
    ServerKill {
        /// Kill time, ns.
        at_ns: u64,
        /// Server fleet index.
        server: usize,
    },
    /// Partition one rank node off for a window.
    Partition {
        /// Node cut off.
        node: usize,
        /// Which directions the cut blocks.
        direction: CutDirection,
        /// Window start, ns.
        start_ns: u64,
        /// Window length, ns.
        dur_ns: u64,
    },
    /// Partition one checkpoint server off for a window.
    ServerPartition {
        /// Server fleet index cut off.
        server: usize,
        /// Which directions the cut blocks.
        direction: CutDirection,
        /// Window start, ns.
        start_ns: u64,
        /// Window length, ns.
        dur_ns: u64,
    },
    /// A flapping directed link.
    Flap {
        /// Transmitting node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Window start, ns.
        start_ns: u64,
        /// Window length, ns.
        dur_ns: u64,
        /// Mean up time, ns.
        mttf_ns: u64,
        /// Mean down time, ns.
        mttr_ns: u64,
        /// Renewal-stream seed.
        seed: u64,
    },
    /// Flip stored bits of one replica (or every replica) on a server.
    Corrupt {
        /// Flip time, ns.
        at_ns: u64,
        /// Server fleet index whose disk is damaged.
        server: usize,
        /// Rank whose image is hit, or `None` for every replica held.
        rank: Option<usize>,
    },
    /// A seeded silent-corruption renewal process on one server.
    Rot {
        /// Server fleet index the bad disk lives on.
        server: usize,
        /// Window start, ns.
        start_ns: u64,
        /// Window length, ns.
        dur_ns: u64,
        /// Mean time between corruption events, ns.
        mtbc_ns: u64,
        /// Renewal-stream seed.
        seed: u64,
    },
}

/// A complete mined fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    /// Protocol under test.
    pub proto: ProtocolChoice,
    /// Image replication factor (1 or 2).
    pub replicas: usize,
    /// The faults, in schedule order.
    pub genes: Vec<Gene>,
}

fn dir_str(d: CutDirection) -> &'static str {
    match d {
        CutDirection::Both => "both",
        CutDirection::Outbound => "outbound",
        CutDirection::Inbound => "inbound",
    }
}

fn parse_dir(s: &str) -> Result<CutDirection, String> {
    match s {
        "both" => Ok(CutDirection::Both),
        "outbound" => Ok(CutDirection::Outbound),
        "inbound" => Ok(CutDirection::Inbound),
        other => Err(format!("unknown cut direction: {other}")),
    }
}

impl Gene {
    /// Compact text form used in corpus lines and reproducer artifacts.
    pub fn encode(&self) -> String {
        match *self {
            Gene::Kill { at_ns, victim } => format!("kill@{at_ns}:r{victim}"),
            Gene::ServerKill { at_ns, server } => format!("skill@{at_ns}:s{server}"),
            Gene::Partition {
                node,
                direction,
                start_ns,
                dur_ns,
            } => format!("part@{start_ns}+{dur_ns}:n{node}:{}", dir_str(direction)),
            Gene::ServerPartition {
                server,
                direction,
                start_ns,
                dur_ns,
            } => format!("spart@{start_ns}+{dur_ns}:s{server}:{}", dir_str(direction)),
            Gene::Flap {
                from,
                to,
                start_ns,
                dur_ns,
                mttf_ns,
                mttr_ns,
                seed,
            } => format!("flap@{start_ns}+{dur_ns}:n{from}-n{to}:f{mttf_ns}:r{mttr_ns}:x{seed}"),
            Gene::Corrupt {
                at_ns,
                server,
                rank,
            } => match rank {
                Some(r) => format!("corrupt@{at_ns}:s{server}:r{r}"),
                None => format!("corrupt@{at_ns}:s{server}:all"),
            },
            Gene::Rot {
                server,
                start_ns,
                dur_ns,
                mtbc_ns,
                seed,
            } => format!("rot@{start_ns}+{dur_ns}:s{server}:m{mtbc_ns}:x{seed}"),
        }
    }

    /// Inverse of [`Gene::encode`].
    pub fn parse(s: &str) -> Result<Gene, String> {
        let (tag, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("malformed gene: {s}"))?;
        let num = |t: &str, prefix: &str| -> Result<u64, String> {
            t.strip_prefix(prefix)
                .unwrap_or(t)
                .parse()
                .map_err(|_| format!("malformed gene field {t:?} in {s}"))
        };
        let window = |t: &str| -> Result<(u64, u64), String> {
            let (a, b) = t
                .split_once('+')
                .ok_or_else(|| format!("malformed gene window in {s}"))?;
            Ok((num(a, "")?, num(b, "")?))
        };
        let parts: Vec<&str> = rest.split(':').collect();
        match (tag, parts.as_slice()) {
            ("kill", [at, victim]) => Ok(Gene::Kill {
                at_ns: num(at, "")?,
                victim: num(victim, "r")? as usize,
            }),
            ("skill", [at, server]) => Ok(Gene::ServerKill {
                at_ns: num(at, "")?,
                server: num(server, "s")? as usize,
            }),
            ("part", [win, node, dir]) => {
                let (start_ns, dur_ns) = window(win)?;
                Ok(Gene::Partition {
                    node: num(node, "n")? as usize,
                    direction: parse_dir(dir)?,
                    start_ns,
                    dur_ns,
                })
            }
            ("spart", [win, server, dir]) => {
                let (start_ns, dur_ns) = window(win)?;
                Ok(Gene::ServerPartition {
                    server: num(server, "s")? as usize,
                    direction: parse_dir(dir)?,
                    start_ns,
                    dur_ns,
                })
            }
            ("flap", [win, link, mttf, mttr, seed]) => {
                let (start_ns, dur_ns) = window(win)?;
                let (from, to) = link
                    .split_once('-')
                    .ok_or_else(|| format!("malformed flap link in {s}"))?;
                Ok(Gene::Flap {
                    from: num(from, "n")? as usize,
                    to: num(to, "n")? as usize,
                    start_ns,
                    dur_ns,
                    mttf_ns: num(mttf, "f")?,
                    mttr_ns: num(mttr, "r")?,
                    seed: num(seed, "x")?,
                })
            }
            ("corrupt", [at, server, target]) => Ok(Gene::Corrupt {
                at_ns: num(at, "")?,
                server: num(server, "s")? as usize,
                rank: if *target == "all" {
                    None
                } else {
                    Some(num(target, "r")? as usize)
                },
            }),
            ("rot", [win, server, mtbc, seed]) => {
                let (start_ns, dur_ns) = window(win)?;
                Ok(Gene::Rot {
                    server: num(server, "s")? as usize,
                    start_ns,
                    dur_ns,
                    mtbc_ns: num(mtbc, "m")?,
                    seed: num(seed, "x")?,
                })
            }
            _ => Err(format!("unknown gene: {s}")),
        }
    }
}

impl Genome {
    /// One-line corpus form: `proto=… replicas=… genes=a;b;c`.
    pub fn encode(&self) -> String {
        let proto = match self.proto {
            ProtocolChoice::Pcl => "pcl",
            _ => "vcl",
        };
        let genes: Vec<String> = self.genes.iter().map(Gene::encode).collect();
        format!(
            "proto={proto} replicas={} genes={}",
            self.replicas,
            genes.join(";")
        )
    }

    /// Parse the `proto=`/`replicas=`/`genes=` triple from key=value
    /// tokens (one line or one token per line both work).
    pub fn parse(tokens: impl Iterator<Item = (String, String)>) -> Result<Genome, String> {
        let (mut proto, mut replicas, mut genes) = (None, None, None);
        for (k, v) in tokens {
            match k.as_str() {
                "proto" => {
                    proto = Some(match v.as_str() {
                        "pcl" => ProtocolChoice::Pcl,
                        "vcl" => ProtocolChoice::Vcl,
                        other => return Err(format!("unknown protocol: {other}")),
                    })
                }
                "replicas" => {
                    replicas = Some(v.parse().map_err(|_| format!("malformed replicas: {v}"))?)
                }
                "genes" => {
                    genes = Some(
                        v.split(';')
                            .filter(|t| !t.is_empty())
                            .map(Gene::parse)
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                _ => {}
            }
        }
        Ok(Genome {
            proto: proto.ok_or("missing proto=")?,
            replicas: replicas.ok_or("missing replicas=")?,
            genes: genes.ok_or("missing genes=")?,
        })
    }

    /// Build the runnable job: the storm ring plus this genome's faults.
    /// Grace and retention are fixed (1.5 s, 2 waves) so coverage keys
    /// compare like with like across the whole search.
    pub fn build_spec(&self) -> JobSpec {
        let mut spec = ring_spec(self.proto);
        spec.ft = spec
            .ft
            .with_replicas(self.replicas)
            .with_retained_waves(2)
            .with_partition_rollback_after_secs(1.5);
        // Genomes that damage stored images also get the integrity
        // machinery armed (scrub + quarantine), so the search can reach
        // repair and quarantine interleavings. Keying the knobs off the
        // genome keeps corruption-free schedules byte-identical to the
        // pre-integrity corpus.
        if self
            .genes
            .iter()
            .any(|g| matches!(g, Gene::Corrupt { .. } | Gene::Rot { .. }))
        {
            spec.ft = spec
                .ft
                .with_scrub_interval_secs(0.5)
                .with_quarantine_threshold(3);
        }
        let mut failures = FailurePlan::none();
        let mut faults = NetFaultPlan::none();
        for (i, g) in self.genes.iter().enumerate() {
            match *g {
                Gene::Kill { at_ns, victim } => {
                    failures = failures.with_kill(SimTime::from_nanos(at_ns), victim);
                }
                Gene::ServerKill { at_ns, server } => {
                    failures = failures.with_server_kill(SimTime::from_nanos(at_ns), server);
                }
                Gene::Partition {
                    node,
                    direction,
                    start_ns,
                    dur_ns,
                } => {
                    faults = faults.with_partition_directed(
                        format!("mine-p{i}"),
                        vec![NodeId(node)],
                        direction,
                        SimTime::from_nanos(start_ns),
                        Some(SimTime::from_nanos(start_ns + dur_ns)),
                    );
                }
                Gene::ServerPartition {
                    server,
                    direction,
                    start_ns,
                    dur_ns,
                } => {
                    faults = faults.with_server_partition(
                        format!("mine-p{i}"),
                        vec![server],
                        direction,
                        SimTime::from_nanos(start_ns),
                        Some(SimTime::from_nanos(start_ns + dur_ns)),
                    );
                }
                Gene::Flap {
                    from,
                    to,
                    start_ns,
                    dur_ns,
                    mttf_ns,
                    mttr_ns,
                    seed,
                } => {
                    faults = faults.with_link_flap(LinkFlapSpec {
                        from: NodeId(from),
                        to: NodeId(to),
                        start: SimTime::from_nanos(start_ns),
                        end: SimTime::from_nanos(start_ns + dur_ns),
                        mttf: SimDuration::from_nanos(mttf_ns),
                        mttr: SimDuration::from_nanos(mttr_ns),
                        seed,
                    });
                }
                Gene::Corrupt {
                    at_ns,
                    server,
                    rank,
                } => {
                    failures = match rank {
                        Some(r) => failures.with_corruption(SimTime::from_nanos(at_ns), server, r),
                        None => failures.with_server_corruption(SimTime::from_nanos(at_ns), server),
                    };
                }
                Gene::Rot {
                    server,
                    start_ns,
                    dur_ns,
                    mtbc_ns,
                    seed,
                } => {
                    failures = failures.with_silent_corruption(SilentCorruptionSpec {
                        server,
                        mtbc: SimDuration::from_nanos(mtbc_ns),
                        start: SimTime::from_nanos(start_ns),
                        end: SimTime::from_nanos(start_ns + dur_ns),
                        ranks: NRANKS,
                        seed,
                    });
                }
            }
        }
        spec.failures = failures;
        spec.net_faults = faults;
        spec
    }

    /// Cheap structural sanity on top of [`NetFaultPlan::validate`]:
    /// victims in range, windows inside the horizon. Mutants failing
    /// either check are discarded without a run.
    fn well_formed(&self) -> bool {
        if self.genes.is_empty() || self.genes.len() > 6 {
            return false;
        }
        for g in &self.genes {
            let ok = match *g {
                Gene::Kill { at_ns, victim } => victim < NRANKS && at_ns < HORIZON_NS,
                Gene::ServerKill { at_ns, server } => server < NSERVERS && at_ns < HORIZON_NS,
                Gene::Partition { node, dur_ns, .. } => node < NRANKS && dur_ns > 0,
                Gene::ServerPartition { server, dur_ns, .. } => server < NSERVERS && dur_ns > 0,
                Gene::Flap {
                    from,
                    to,
                    dur_ns,
                    mttf_ns,
                    mttr_ns,
                    ..
                } => {
                    from != to
                        && from < NRANKS + NSERVERS
                        && to < NRANKS + NSERVERS
                        && dur_ns > 0
                        && mttf_ns > 0
                        && mttr_ns > 0
                }
                Gene::Corrupt {
                    at_ns,
                    server,
                    rank,
                } => server < NSERVERS && at_ns < HORIZON_NS && rank.is_none_or(|r| r < NRANKS),
                Gene::Rot {
                    server,
                    dur_ns,
                    mtbc_ns,
                    ..
                } => server < NSERVERS && dur_ns > 0 && mtbc_ns > 0,
            };
            if !ok {
                return false;
            }
        }
        self.build_spec().net_faults.validate().is_ok()
    }
}

/// How a mined run ended, coarsest coverage axis first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// Completed with every invariant and robustness assertion holding.
    Ok,
    /// Completed, but legal terminal state: a restart found every image
    /// replica unreachable (or corrupt with no older retained wave to
    /// fall back to). Coverage, not a violation.
    ReplicaExhausted,
    /// The run itself errored (deadlock guard, fatal recovery error).
    RunError,
    /// A campaign-level robustness assertion failed (rollback depth,
    /// orphaned images).
    AssertViolation,
    /// The trace invariant checker found an inconsistent cut.
    InvariantViolation,
}

impl OutcomeClass {
    /// Stable artifact/corpus tag.
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeClass::Ok => "ok",
            OutcomeClass::ReplicaExhausted => "replica-exhausted",
            OutcomeClass::RunError => "run-error",
            OutcomeClass::AssertViolation => "assert",
            OutcomeClass::InvariantViolation => "invariant",
        }
    }

    /// Classes that fail the mining run (real findings).
    pub fn is_violation(self) -> bool {
        matches!(
            self,
            OutcomeClass::RunError
                | OutcomeClass::AssertViolation
                | OutcomeClass::InvariantViolation
        )
    }
}

/// Classify one storm outcome into its coverage class.
pub fn classify(o: &StormOutcome) -> OutcomeClass {
    match &o.report {
        None => {
            if o.failures.iter().any(|f| {
                f.contains("every image replica unreachable")
                    || f.contains("every image replica corrupt")
            }) {
                OutcomeClass::ReplicaExhausted
            } else {
                OutcomeClass::RunError
            }
        }
        Some(r) if !r.ok() => OutcomeClass::InvariantViolation,
        Some(_) if !o.failures.is_empty() => OutcomeClass::AssertViolation,
        Some(_) => OutcomeClass::Ok,
    }
}

/// The coverage map entry one run collapses into: outcome class plus the
/// robustness observables, capped/bucketed so the map saturates instead of
/// growing with every distinct count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverageKey {
    /// Protocol under test.
    pub proto: u8,
    /// Outcome class.
    pub class: OutcomeClass,
    /// Restarts, capped at 4.
    pub restarts: u8,
    /// Aborted waves, capped at 4.
    pub aborted: u8,
    /// Max rollback depth, capped at 4.
    pub depth: u8,
    /// Exhausted retry ladders, capped at 4.
    pub exhausted: u8,
    /// Max replica-walk depth, capped at 4.
    pub replica_depth: u8,
    /// Watchdog suppressed a healed cut.
    pub suppressed: bool,
    /// Watchdog grace expired with a cut active.
    pub expired: bool,
    /// At least one push rerouted to another server.
    pub rerouted: bool,
    /// A digest mismatch was caught on fetch or scrub.
    pub corrupt_detected: bool,
    /// A damaged replica was re-replicated from a good copy.
    pub repaired: bool,
    /// A server crossed the corruption quarantine threshold.
    pub quarantined: bool,
    /// log₂ bucket of link retries (0 for none), capped at 15.
    pub retries_log2: u8,
}

fn cap4(x: u64) -> u8 {
    x.min(4) as u8
}

/// Collapse one outcome into its [`CoverageKey`].
pub fn coverage_key(proto: ProtocolChoice, class: OutcomeClass, o: &StormOutcome) -> CoverageKey {
    CoverageKey {
        proto: matches!(proto, ProtocolChoice::Pcl) as u8,
        class,
        restarts: cap4(o.restarts),
        aborted: cap4(o.waves_aborted),
        depth: cap4(o.rollback_depth_max),
        exhausted: cap4(o.retries_exhausted),
        replica_depth: cap4(o.replica_depth_max),
        suppressed: o.partitions_suppressed > 0,
        expired: o.partitions_expired > 0,
        rerouted: o.images_rerouted > 0,
        corrupt_detected: o.images_corrupt_detected > 0,
        repaired: o.images_repaired > 0,
        quarantined: o.servers_quarantined > 0,
        retries_log2: if o.link_retries == 0 {
            0
        } else {
            (64 - o.link_retries.leading_zeros() as u8).min(15)
        },
    }
}

/// Mining knobs. `rounds` is the mutation budget per protocol; the seed
/// genomes run on top of it.
#[derive(Debug, Clone, Copy)]
pub struct MineOptions {
    /// Mutation rounds per protocol.
    pub rounds: usize,
    /// Mutation-stream seed.
    pub seed: u64,
}

/// A violation finding: the shrunk genome and what it broke.
#[derive(Debug)]
pub struct MinedViolation {
    /// Minimal reproducer.
    pub genome: Genome,
    /// Outcome class of the reproducer.
    pub class: OutcomeClass,
    /// First failure/violation message.
    pub detail: String,
}

/// What a mining run produced. Carries no wall-clock state: identical
/// options produce an identical report.
#[derive(Debug)]
pub struct MineReport {
    /// Schedules actually run (seeds + surviving mutants + shrink runs).
    pub runs: u64,
    /// Mutants discarded by plan validation before running.
    pub discarded: u64,
    /// Distinct coverage states lit up.
    pub coverage: BTreeSet<CoverageKey>,
    /// Corpus: every genome that lit a new coverage state, with its class.
    pub corpus: Vec<(Genome, OutcomeClass)>,
    /// Violations found, each shrunk to a minimal reproducer.
    pub violations: Vec<MinedViolation>,
}

/// Hand-seeded starting corpus for one protocol, aimed at the measured
/// wave windows: a mid-wave kill, a half-open cut healing inside the
/// grace, a dark server group behind a restore fetch, a flapping push
/// link, a bit-flip raced against a restore fetch, and a rotting server
/// disk under a later restart.
fn seed_genomes(proto: ProtocolChoice, w0s: u64, w0c: u64, w1c: u64) -> Vec<Genome> {
    vec![
        Genome {
            proto,
            replicas: 1,
            genes: vec![Gene::Kill {
                at_ns: w0s + (w0c - w0s) / 2,
                victim: NRANKS - 1,
            }],
        },
        Genome {
            proto,
            replicas: 1,
            genes: vec![Gene::Partition {
                node: 0,
                direction: CutDirection::Outbound,
                start_ns: w0s.saturating_sub(1_000_000),
                dur_ns: 1_200_000_000,
            }],
        },
        Genome {
            proto,
            replicas: 2,
            genes: vec![
                Gene::ServerPartition {
                    server: 0,
                    direction: CutDirection::Both,
                    start_ns: w1c + 100_000_000,
                    dur_ns: 20_000_000_000,
                },
                Gene::Kill {
                    at_ns: w1c + 300_000_000,
                    victim: 0,
                },
            ],
        },
        Genome {
            proto,
            replicas: 1,
            genes: vec![Gene::Flap {
                from: 0,
                to: SERVER_NODE_BASE,
                start_ns: w0s.saturating_sub(500_000_000),
                dur_ns: (w1c + 2_000_000_000).saturating_sub(w0s),
                mttf_ns: 2_000_000_000,
                mttr_ns: 300_000_000,
                seed: 11,
            }],
        },
        Genome {
            proto,
            replicas: 2,
            genes: vec![
                Gene::Corrupt {
                    at_ns: w1c + 100_000_000,
                    server: 1,
                    rank: Some(1),
                },
                Gene::Kill {
                    at_ns: w1c + 300_000_000,
                    victim: 1,
                },
            ],
        },
        Genome {
            proto,
            replicas: 2,
            genes: vec![
                Gene::Rot {
                    server: 0,
                    start_ns: w0s,
                    dur_ns: (w1c + 10_000_000_000).saturating_sub(w0s),
                    mtbc_ns: 900_000_000,
                    seed: 23,
                },
                Gene::Kill {
                    at_ns: w1c + 500_000_000,
                    victim: 0,
                },
            ],
        },
    ]
}

fn shift_ns(rng: &mut StdRng, t: u64) -> u64 {
    let delta = rng.gen_range(-1_000_000_000i64..1_000_000_001i64);
    (t as i64 + delta).clamp(1, HORIZON_NS as i64 - 1) as u64
}

/// Apply one seeded mutation. The operator set is the tentpole's:
/// shift, widen, flip-direction, add-flap, add-corrupt, retarget, plus
/// gene drop so schedules can shrink during search too.
fn mutate(rng: &mut StdRng, parent: &Genome) -> Genome {
    let mut g = parent.clone();
    let op = rng.gen_range(0u32..7);
    let idx = rng.gen_range(0..g.genes.len());
    match op {
        // Shift a gene in time.
        0 => match &mut g.genes[idx] {
            Gene::Kill { at_ns, .. }
            | Gene::ServerKill { at_ns, .. }
            | Gene::Corrupt { at_ns, .. } => *at_ns = shift_ns(rng, *at_ns),
            Gene::Partition { start_ns, .. }
            | Gene::ServerPartition { start_ns, .. }
            | Gene::Flap { start_ns, .. }
            | Gene::Rot { start_ns, .. } => *start_ns = shift_ns(rng, *start_ns),
        },
        // Widen (or shrink) a window.
        1 => match &mut g.genes[idx] {
            Gene::Partition { dur_ns, .. }
            | Gene::ServerPartition { dur_ns, .. }
            | Gene::Flap { dur_ns, .. }
            | Gene::Rot { dur_ns, .. } => {
                let delta = rng.gen_range(-1_500_000_000i64..3_000_000_001i64);
                *dur_ns = (*dur_ns as i64 + delta).clamp(100_000_000, 30_000_000_000) as u64;
            }
            Gene::Kill { at_ns, .. }
            | Gene::ServerKill { at_ns, .. }
            | Gene::Corrupt { at_ns, .. } => *at_ns = shift_ns(rng, *at_ns),
        },
        // Flip a cut direction.
        2 => {
            let next = |d: CutDirection| match d {
                CutDirection::Both => CutDirection::Outbound,
                CutDirection::Outbound => CutDirection::Inbound,
                CutDirection::Inbound => CutDirection::Both,
            };
            match &mut g.genes[idx] {
                Gene::Partition { direction, .. } | Gene::ServerPartition { direction, .. } => {
                    *direction = next(*direction)
                }
                _ => {}
            }
        }
        // Add a flap on a random rank→server push path.
        3 => {
            let start = rng.gen_range(1_000_000_000..20_000_000_000u64);
            g.genes.push(Gene::Flap {
                from: rng.gen_range(0..NRANKS),
                to: SERVER_NODE_BASE + rng.gen_range(0..NSERVERS),
                start_ns: start,
                dur_ns: rng.gen_range(2_000_000_000..10_000_000_000u64),
                mttf_ns: rng.gen_range(500_000_000..4_000_000_000u64),
                mttr_ns: rng.gen_range(100_000_000..1_000_000_000u64),
                seed: rng.gen_range(0..u64::MAX),
            });
        }
        // Retarget a victim/node/server.
        4 => match &mut g.genes[idx] {
            Gene::Kill { victim, .. } => *victim = rng.gen_range(0..NRANKS),
            Gene::ServerKill { server, .. }
            | Gene::ServerPartition { server, .. }
            | Gene::Corrupt { server, .. }
            | Gene::Rot { server, .. } => *server = rng.gen_range(0..NSERVERS),
            Gene::Partition { node, .. } => *node = rng.gen_range(0..NRANKS),
            Gene::Flap { from, .. } => *from = rng.gen_range(0..NRANKS),
        },
        // Add a bit-flip on a random stored replica (or a whole server).
        5 => {
            let rank = if rng.gen_bool(0.5) {
                Some(rng.gen_range(0..NRANKS))
            } else {
                None
            };
            g.genes.push(Gene::Corrupt {
                at_ns: rng.gen_range(1_000_000_000..30_000_000_000u64),
                server: rng.gen_range(0..NSERVERS),
                rank,
            });
        }
        // Drop a gene.
        _ => {
            if g.genes.len() > 1 {
                g.genes.remove(idx);
            }
        }
    }
    g
}

/// Shrink a violating genome: greedily drop genes while the outcome class
/// persists, then round surviving times to 100 ms. Every probe run counts
/// toward `runs`.
fn shrink(genome: &Genome, class: OutcomeClass, runs: &mut u64) -> Genome {
    let reproduces = |g: &Genome, runs: &mut u64| -> bool {
        if !g.well_formed() {
            return false;
        }
        *runs += 1;
        let o = run_storm("mine.shrink", g.build_spec());
        classify(&o) == class
    };
    let mut best = genome.clone();
    let mut improved = true;
    while improved && best.genes.len() > 1 {
        improved = false;
        for i in 0..best.genes.len() {
            let mut cand = best.clone();
            cand.genes.remove(i);
            if reproduces(&cand, runs) {
                best = cand;
                improved = true;
                break;
            }
        }
    }
    const GRAIN: u64 = 100_000_000;
    let mut rounded = best.clone();
    for g in &mut rounded.genes {
        match g {
            Gene::Kill { at_ns, .. }
            | Gene::ServerKill { at_ns, .. }
            | Gene::Corrupt { at_ns, .. } => *at_ns = (*at_ns / GRAIN).max(1) * GRAIN,
            Gene::Partition {
                start_ns, dur_ns, ..
            }
            | Gene::ServerPartition {
                start_ns, dur_ns, ..
            }
            | Gene::Flap {
                start_ns, dur_ns, ..
            }
            | Gene::Rot {
                start_ns, dur_ns, ..
            } => {
                *start_ns = (*start_ns / GRAIN).max(1) * GRAIN;
                *dur_ns = (*dur_ns / GRAIN).max(1) * GRAIN;
            }
        }
    }
    if rounded != best && reproduces(&rounded, runs) {
        best = rounded;
    }
    best
}

/// Run the miner: seed the corpus from the measured wave windows, then
/// spend `rounds` seeded mutations per protocol, keeping every schedule
/// that lights a new coverage state and shrinking every violation.
pub fn mine(opts: MineOptions) -> MineReport {
    let mut report = MineReport {
        runs: 0,
        discarded: 0,
        coverage: BTreeSet::new(),
        corpus: Vec::new(),
        violations: Vec::new(),
    };
    for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
        let prof = match profile(ring_spec(proto)) {
            Ok(p) if p.waves.len() >= 2 => p,
            _ => continue,
        };
        let (w0s, w0c) = prof.waves[0];
        let (_, w1c) = prof.waves[1];
        let mut rng = StdRng::seed_from_u64(
            opts.seed
                ^ if matches!(proto, ProtocolChoice::Pcl) {
                    0
                } else {
                    0x9e37_79b9
                },
        );
        // The per-protocol corpus slice starts here; mutation parents are
        // drawn from it so each protocol evolves its own lineage.
        let corpus_base = report.corpus.len();
        let admit = |report: &mut MineReport, genome: Genome| {
            report.runs += 1;
            let o = run_storm("mine.run", genome.build_spec());
            let class = classify(&o);
            let key = coverage_key(proto, class, &o);
            let fresh = report.coverage.insert(key);
            if fresh {
                report.corpus.push((genome.clone(), class));
            }
            if class.is_violation() && fresh {
                let detail = o
                    .failures
                    .first()
                    .cloned()
                    .or_else(|| {
                        o.report
                            .as_ref()
                            .and_then(|r| r.violations.first())
                            .map(|v| format!("{v:?}"))
                    })
                    .unwrap_or_else(|| "unknown".to_string());
                let minimal = shrink(&genome, class, &mut report.runs);
                report.violations.push(MinedViolation {
                    genome: minimal,
                    class,
                    detail,
                });
            }
        };
        for genome in seed_genomes(proto, w0s, w0c, w1c) {
            if genome.well_formed() {
                admit(&mut report, genome);
            }
        }
        for _ in 0..opts.rounds {
            if report.corpus.len() == corpus_base {
                break;
            }
            let parent_idx = corpus_base + rng.gen_range(0..report.corpus.len() - corpus_base);
            let parent = report.corpus[parent_idx].0.clone();
            let mutant = mutate(&mut rng, &parent);
            if !mutant.well_formed() {
                report.discarded += 1;
                continue;
            }
            admit(&mut report, mutant);
        }
    }
    report
}

/// Serialize one reproducer in the explorer's `key=value` artifact format.
pub fn encode_artifact(v: &MinedViolation) -> String {
    let proto = match v.genome.proto {
        ProtocolChoice::Pcl => "pcl",
        _ => "vcl",
    };
    let genes: Vec<String> = v.genome.genes.iter().map(Gene::encode).collect();
    format!(
        "# ftmpi-check storm miner reproducer\n\
         proto={proto}\n\
         replicas={}\n\
         genes={}\n\
         kind={}\n\
         detail={}\n",
        v.genome.replicas,
        genes.join(";"),
        v.class.as_str(),
        v.detail.replace('\n', " "),
    )
}

/// Parse a miner reproducer. Unknown keys and comment lines are ignored;
/// missing mandatory keys are an error.
pub fn parse_mined_artifact(text: &str) -> Result<(Genome, String), String> {
    let mut kind = None;
    let mut pairs = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("malformed line: {line}"));
        };
        if k == "kind" {
            kind = Some(v.to_string());
        }
        pairs.push((k.to_string(), v.to_string()));
    }
    let genome = Genome::parse(pairs.into_iter())?;
    Ok((genome, kind.ok_or("missing kind=")?))
}

/// Re-run a reproducer artifact from disk and report whether the recorded
/// outcome class still reproduces.
pub fn replay(path: &Path) -> Result<(OutcomeClass, bool), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let (genome, kind) = parse_mined_artifact(&text)?;
    let o = run_storm("mine.replay", genome.build_spec());
    let class = classify(&o);
    Ok((class, class.as_str() == kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_genome() -> Genome {
        Genome {
            proto: ProtocolChoice::Vcl,
            replicas: 2,
            genes: vec![
                Gene::Kill {
                    at_ns: 3_000_000_000,
                    victim: 2,
                },
                Gene::ServerPartition {
                    server: 1,
                    direction: CutDirection::Inbound,
                    start_ns: 2_500_000_000,
                    dur_ns: 4_000_000_000,
                },
                Gene::Flap {
                    from: 3,
                    to: 9,
                    start_ns: 1_000_000_000,
                    dur_ns: 6_000_000_000,
                    mttf_ns: 800_000_000,
                    mttr_ns: 200_000_000,
                    seed: 42,
                },
                Gene::Corrupt {
                    at_ns: 4_200_000_000,
                    server: 0,
                    rank: Some(5),
                },
                Gene::Corrupt {
                    at_ns: 4_700_000_000,
                    server: 1,
                    rank: None,
                },
                Gene::Rot {
                    server: 0,
                    start_ns: 2_000_000_000,
                    dur_ns: 8_000_000_000,
                    mtbc_ns: 700_000_000,
                    seed: 9,
                },
            ],
        }
    }

    #[test]
    fn gene_encoding_round_trips() {
        for g in sample_genome().genes {
            assert_eq!(Gene::parse(&g.encode()).expect("parse"), g);
        }
    }

    #[test]
    fn artifact_round_trips() {
        let v = MinedViolation {
            genome: sample_genome(),
            class: OutcomeClass::InvariantViolation,
            detail: "orphan message".to_string(),
        };
        let text = encode_artifact(&v);
        let (genome, kind) = parse_mined_artifact(&text).expect("parse");
        assert_eq!(genome, v.genome);
        assert_eq!(kind, "invariant");
    }

    #[test]
    fn corpus_line_round_trips() {
        let g = sample_genome();
        let line = g.encode();
        let pairs = line
            .split_whitespace()
            .map(|t| t.split_once('=').expect("token"))
            .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(Genome::parse(pairs).expect("parse"), g);
    }

    #[test]
    fn mutants_stay_well_formed_or_are_discarded() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut genome = sample_genome();
        let mut kept = 0;
        for _ in 0..200 {
            let m = mutate(&mut rng, &genome);
            if m.well_formed() {
                genome = m;
                kept += 1;
            }
        }
        assert!(kept > 0, "no mutant survived validation");
    }

    #[test]
    fn mutation_stream_is_seed_deterministic() {
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = sample_genome();
            for _ in 0..50 {
                let m = mutate(&mut rng, &g);
                if m.well_formed() {
                    g = m;
                }
            }
            g
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn seed_genomes_validate() {
        for proto in [ProtocolChoice::Pcl, ProtocolChoice::Vcl] {
            for g in seed_genomes(proto, 2_000_000_000, 2_400_000_000, 6_400_000_000) {
                assert!(g.well_formed(), "seed genome invalid: {}", g.encode());
            }
        }
    }
}
