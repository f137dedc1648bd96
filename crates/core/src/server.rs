//! Checkpoint-server bookkeeping.
//!
//! The data-plane cost of a checkpoint server is its node's NIC and the
//! flows streaming into it (see [`ftmpi_mpi::flow`]); this module keeps the
//! control-plane state: which server stores which rank's image of which
//! wave, the commit status of waves, and which server nodes have failed —
//! the distributed database the paper's FTPM maintains ("to locate which
//! checkpoint server holds which local checkpoint").
//!
//! Beyond the paper's always-available single copy, the store supports
//! per-image replica lists (`replicas > 1` streams each image to two
//! servers), a retention window of several committed waves (fallback
//! targets when a server failure loses the newest wave), explicit abort of
//! a partial wave (mid-wave kill garbage collection), and server-failure
//! processing that drops every replica the dead node held.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ftmpi_mpi::Rank;
use ftmpi_net::NodeId;
use ftmpi_sim::SimTime;

/// Odd step an injected bit-flip adds (wrapping) to a stored replica's
/// digest. The simulation stores no payload bytes, so "some stored bits
/// flipped" is modelled as the stored digest no longer matching the digest
/// recomputed from the authoritative wave record. An odd step generates
/// all of `u64` under wrapping addition (orbit length 2⁶⁴), so no number
/// of further flips — a `rot` event landing on a replica a `corrupt` event
/// already damaged — can ever walk the digest back to the original: damage
/// persists until a verified write replaces the replica.
pub const CORRUPT_STEP: u64 = 0x5a5a_5a5a_5a5a_5a5b;

/// XOR mask a torn (truncated) write stamps on the digest it records: the
/// server received only a prefix of the stream, so what it stores can
/// never hash to the full image's digest.
pub const TORN_WRITE: u64 = 0xdead_beef_0bad_f00d;

/// One stored image replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredImage {
    /// Server node holding the image.
    pub server: NodeId,
    /// Image size.
    pub bytes: u64,
    /// Time the last byte arrived at the server.
    pub stored_at: SimTime,
    /// Content digest of the bytes actually on the server's disk. Stamped
    /// from [`crate::RankImage::digest`] when the write completes; a
    /// bit-flip or torn write leaves it disagreeing with the digest the
    /// wave record implies, which is how verify-on-fetch detects damage.
    pub digest: u64,
}

/// Typed failure of a checkpoint-store lookup or fetch. Never a panic:
/// restore and scrub paths route these into replica walks, retained-wave
/// fallbacks, or fatal (but clean) job errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// A replica's stored digest disagrees with the digest the committed
    /// wave record implies — the stored bytes are damaged.
    CorruptImage {
        /// Wave whose image was fetched.
        wave: u64,
        /// Rank whose image was fetched.
        rank: Rank,
        /// Server node holding the damaged replica.
        server: NodeId,
    },
    /// No live server holds any replica of the requested image.
    NoReplica {
        /// Wave whose image was requested.
        wave: u64,
        /// Rank whose image was requested.
        rank: Rank,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::CorruptImage { wave, rank, server } => write!(
                f,
                "image of wave {wave} rank {rank} on server node {} fails digest verification",
                server.0
            ),
            StoreError::NoReplica { wave, rank } => {
                write!(
                    f,
                    "no replica of wave {wave} rank {rank} on any live server"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Control-plane state of the checkpoint-server fleet.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// (wave, rank) → live replicas of that rank's image. Ordered map so
    /// iteration (garbage-collection audits, orphan counts) is
    /// deterministic.
    images: BTreeMap<(u64, Rank), Vec<StoredImage>>,
    /// Committed waves still retained, ascending. The last entry is the
    /// restore default; earlier entries are fallback targets after a
    /// server failure.
    committed: Vec<u64>,
    /// Failed server nodes; replicas they held are gone and new writes to
    /// them are dropped.
    failed: BTreeSet<NodeId>,
    /// Quarantined server nodes: they exceeded the corruption threshold,
    /// so they receive no new placements (writes are dropped like a dead
    /// server's), but replicas already on them stay fetch candidates —
    /// every fetch verifies, so a still-good copy on a suspect disk is
    /// better than no copy.
    quarantined: BTreeSet<NodeId>,
    /// Per-server count of digest-verification failures detected so far,
    /// feeding the quarantine threshold.
    corrupt_seen: BTreeMap<NodeId, u64>,
    /// How many committed waves to retain (0 behaves as 1 — the paper's
    /// immediate garbage collection).
    retain: usize,
}

impl CheckpointStore {
    /// Set the committed-wave retention window (see `FtConfig::retained_waves`).
    pub fn set_retention(&mut self, retain: usize) {
        self.retain = retain;
    }

    /// Record a fully-received image replica. Writes to a failed or
    /// quarantined server are dropped (the flow raced the failure or the
    /// quarantine decision); a duplicate replica on the same server
    /// replaces the old record. Returns whether the replica was recorded.
    pub fn record_image(&mut self, wave: u64, rank: Rank, img: StoredImage) -> bool {
        if self.failed.contains(&img.server) || self.quarantined.contains(&img.server) {
            return false;
        }
        let replicas = self.images.entry((wave, rank)).or_default();
        if let Some(existing) = replicas.iter_mut().find(|r| r.server == img.server) {
            *existing = img;
        } else {
            replicas.push(img);
        }
        true
    }

    /// Is at least one replica of (wave, rank) fully stored on a live
    /// server?
    pub fn has_image(&self, wave: u64, rank: Rank) -> bool {
        self.images
            .get(&(wave, rank))
            .is_some_and(|r| !r.is_empty())
    }

    /// Which server holds rank `rank`'s image of `wave`? With several live
    /// replicas, deterministically picks the lowest server node id.
    pub fn locate(&self, wave: u64, rank: Rank) -> Option<StoredImage> {
        self.images
            .get(&(wave, rank))?
            .iter()
            .min_by_key(|r| r.server)
            .copied()
    }

    /// Every live server node holding rank `rank`'s image of `wave`,
    /// ascending by node id — the fetch-candidate walk of a
    /// partition-tolerant restore. The first entry equals
    /// [`locate`](CheckpointStore::locate)'s choice.
    pub fn locate_all(&self, wave: u64, rank: Rank) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .images
            .get(&(wave, rank))
            .map(|r| r.iter().map(|i| i.server).collect())
            .unwrap_or_default();
        nodes.sort();
        nodes
    }

    /// Does this specific server node hold a fully-stored replica of
    /// (`wave`, `rank`)? Used to keep a rerouted push from duplicating a
    /// replica that already landed.
    pub fn server_holds(&self, wave: u64, rank: Rank, node: NodeId) -> bool {
        self.images
            .get(&(wave, rank))
            .is_some_and(|r| r.iter().any(|i| i.server == node))
    }

    /// Is at least one replica of (wave, rank) stored whose digest matches
    /// `expected`? The intact-aware twin of
    /// [`has_image`](CheckpointStore::has_image), used when choosing a
    /// restore wave so an all-copies-corrupt image forces the fallback to
    /// an older retained wave instead of a doomed fetch.
    pub fn has_intact_image(&self, wave: u64, rank: Rank, expected: u64) -> bool {
        self.images
            .get(&(wave, rank))
            .is_some_and(|r| r.iter().any(|i| i.digest == expected))
    }

    /// Lowest-node replica of (wave, rank) whose digest matches `expected`
    /// — [`locate`](CheckpointStore::locate) restricted to undamaged
    /// copies.
    pub fn locate_intact(&self, wave: u64, rank: Rank, expected: u64) -> Option<StoredImage> {
        self.images
            .get(&(wave, rank))?
            .iter()
            .filter(|r| r.digest == expected)
            .min_by_key(|r| r.server)
            .copied()
    }

    /// Fetch (wave, rank) from a specific server node, verifying the
    /// stored digest against `expected`. This is the verify-on-fetch
    /// primitive every restore transfer, replica-ladder probe, and scrub
    /// visit goes through: a missing replica and a damaged replica are
    /// *typed* outcomes the caller walks past, never panics.
    pub fn verify_replica(
        &self,
        wave: u64,
        rank: Rank,
        node: NodeId,
        expected: u64,
    ) -> Result<StoredImage, StoreError> {
        let replica = self
            .images
            .get(&(wave, rank))
            .and_then(|r| r.iter().find(|i| i.server == node))
            .ok_or(StoreError::NoReplica { wave, rank })?;
        if replica.digest != expected {
            return Err(StoreError::CorruptImage {
                wave,
                rank,
                server: node,
            });
        }
        Ok(*replica)
    }

    /// Flip the stored digest of the (wave, rank) replica on `node` — an
    /// injected bit-flip on that server's disk. Returns whether a replica
    /// was there to damage. Flipping an already damaged replica leaves it
    /// damaged (see [`CORRUPT_STEP`]); only [`record_image`] heals it.
    ///
    /// [`record_image`]: CheckpointStore::record_image
    pub fn corrupt_replica(&mut self, wave: u64, rank: Rank, node: NodeId) -> bool {
        if let Some(replica) = self
            .images
            .get_mut(&(wave, rank))
            .and_then(|r| r.iter_mut().find(|i| i.server == node))
        {
            replica.digest = replica.digest.wrapping_add(CORRUPT_STEP);
            return true;
        }
        false
    }

    /// Flip the replica of `rank`'s image on `node` belonging to the
    /// *newest* wave stored there — how a seeded silent-corruption event
    /// lands on whatever the disk currently holds. Returns the damaged
    /// wave, or `None` when the server holds nothing for that rank.
    pub fn corrupt_newest(&mut self, rank: Rank, node: NodeId) -> Option<u64> {
        let wave = self
            .images
            .iter()
            .filter(|((_, r), replicas)| *r == rank && replicas.iter().any(|i| i.server == node))
            .map(|((w, _), _)| *w)
            .max()?;
        self.corrupt_replica(wave, rank, node);
        Some(wave)
    }

    /// Flip every replica currently stored on `node` — a whole-disk
    /// bit-rot event. Like [`corrupt_replica`], a flip never undoes an
    /// earlier one. Returns the damaged (wave, rank) slots in
    /// deterministic (map) order, for tracing.
    ///
    /// [`corrupt_replica`]: CheckpointStore::corrupt_replica
    pub fn corrupt_server(&mut self, node: NodeId) -> Vec<(u64, Rank)> {
        let mut slots = Vec::new();
        for (&(wave, rank), replicas) in self.images.iter_mut() {
            for replica in replicas.iter_mut() {
                if replica.server == node {
                    replica.digest = replica.digest.wrapping_add(CORRUPT_STEP);
                    slots.push((wave, rank));
                }
            }
        }
        slots
    }

    /// Note a digest-verification failure attributed to `node`; returns
    /// the server's total detection count, which the caller compares
    /// against the quarantine threshold.
    pub fn note_corruption(&mut self, node: NodeId) -> u64 {
        let count = self.corrupt_seen.entry(node).or_insert(0);
        *count += 1;
        *count
    }

    /// Digest-verification failures attributed to `node` so far.
    pub fn corruption_seen(&self, node: NodeId) -> u64 {
        self.corrupt_seen.get(&node).copied().unwrap_or(0)
    }

    /// Quarantine a server: it stops receiving placements and reroutes
    /// (writes to it are dropped), mirroring dead-server processing, but
    /// replicas already on it remain verified fetch candidates. Returns
    /// false if the node was already quarantined.
    pub fn quarantine_server(&mut self, node: NodeId) -> bool {
        self.quarantined.insert(node)
    }

    /// Has this server node been quarantined?
    pub fn server_quarantined(&self, node: NodeId) -> bool {
        self.quarantined.contains(&node)
    }

    /// Is this node unusable as a placement target (failed or
    /// quarantined)? The single predicate placement and reroute paths
    /// consult.
    pub fn server_unplaceable(&self, node: NodeId) -> bool {
        self.failed.contains(&node) || self.quarantined.contains(&node)
    }

    /// Mark `wave` committed and garbage-collect superseded waves —
    /// "simple garbage collection reduces the size needed to store the
    /// checkpoints" — keeping the newest `retain` committed waves as
    /// fallback restore targets.
    pub fn commit(&mut self, wave: u64) {
        self.committed.push(wave);
        let retain = self.retain.max(1);
        while self.committed.len() > retain {
            self.committed.remove(0);
        }
        let keep = std::mem::take(&mut self.committed);
        self.images
            .retain(|(w, _), _| keep.contains(w) || *w > wave);
        self.committed = keep;
    }

    /// Garbage-collect the partial images of an aborted (uncommitted) wave.
    /// Returns how many replicas were dropped.
    pub fn abort(&mut self, wave: u64) -> u64 {
        let mut dropped = 0u64;
        self.images.retain(|(w, _), replicas| {
            if *w == wave {
                dropped += replicas.len() as u64;
                false
            } else {
                true
            }
        });
        dropped
    }

    /// A checkpoint-server node failed: every replica it held becomes
    /// unavailable and future writes to it are dropped. Returns how many
    /// replicas were lost.
    pub fn fail_server(&mut self, node: NodeId) -> u64 {
        self.failed.insert(node);
        let mut lost = 0u64;
        for replicas in self.images.values_mut() {
            let before = replicas.len();
            replicas.retain(|r| r.server != node);
            lost += (before - replicas.len()) as u64;
        }
        self.images.retain(|_, replicas| !replicas.is_empty());
        lost
    }

    /// Has this server node failed?
    pub fn server_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// Replicas belonging to waves that are neither retained-committed nor
    /// the in-flight wave `except`. Should be zero at any quiescent point —
    /// a non-zero count is a garbage-collection leak.
    pub fn orphan_images(&self, except: Option<u64>) -> u64 {
        self.images
            .iter()
            .filter(|((w, _), _)| !self.committed.contains(w) && Some(*w) != except)
            .map(|(_, replicas)| replicas.len() as u64)
            .sum()
    }

    /// Newest retained committed wave.
    pub fn committed_wave(&self) -> Option<u64> {
        self.committed.last().copied()
    }

    /// All retained committed waves, ascending.
    pub fn committed_waves(&self) -> &[u64] {
        &self.committed
    }

    /// Bytes currently held across all servers.
    pub fn stored_bytes(&self) -> u64 {
        self.images
            .values()
            .flat_map(|r| r.iter())
            .map(|i| i.bytes)
            .sum()
    }
}

/// Live replica targets for an image whose primary server is `primary`:
/// start at the primary's fleet position and walk the fleet circularly,
/// skipping failed and quarantined nodes, until `replicas` live targets
/// are collected (fewer when not enough servers survive). With
/// `replicas == 1` and no failures this is exactly the primary — the
/// paper's single-copy path.
pub(crate) fn replica_targets(
    fleet: &[NodeId],
    primary: NodeId,
    replicas: usize,
    store: &CheckpointStore,
) -> Vec<NodeId> {
    // A primary outside the fleet cannot happen via placement; degrade to
    // walking from the fleet head rather than erroring.
    let start = fleet.iter().position(|&n| n == primary).unwrap_or(0);
    let want = replicas.max(1);
    let mut targets = Vec::new();
    for i in 0..fleet.len() {
        let node = fleet[(start + i) % fleet.len()];
        if !store.server_unplaceable(node) {
            targets.push(node);
            if targets.len() == want {
                break;
            }
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(bytes: u64) -> StoredImage {
        img_on(NodeId(0), bytes)
    }

    fn img_on(server: NodeId, bytes: u64) -> StoredImage {
        StoredImage {
            server,
            bytes,
            stored_at: SimTime::ZERO,
            digest: 0,
        }
    }

    #[test]
    fn commit_garbage_collects_old_waves() {
        let mut store = CheckpointStore::default();
        for r in 0..4 {
            store.record_image(1, r, img(100));
        }
        for r in 0..4 {
            store.record_image(2, r, img(100));
        }
        assert_eq!(store.stored_bytes(), 800);
        store.commit(1);
        store.commit(2);
        assert_eq!(store.committed_wave(), Some(2));
        assert_eq!(store.stored_bytes(), 400);
        assert!(!store.has_image(1, 0));
        assert!(store.has_image(2, 3));
        assert_eq!(store.orphan_images(None), 0);
    }

    #[test]
    fn retention_keeps_fallback_waves() {
        let mut store = CheckpointStore::default();
        store.set_retention(2);
        for w in 1..=3u64 {
            for r in 0..2 {
                store.record_image(w, r, img(10));
            }
            store.commit(w);
        }
        // Waves 2 and 3 retained, wave 1 collected.
        assert_eq!(store.committed_waves(), &[2, 3]);
        assert!(!store.has_image(1, 0));
        assert!(store.has_image(2, 0) && store.has_image(3, 1));
        assert_eq!(store.stored_bytes(), 40);
    }

    #[test]
    fn abort_drops_partial_wave_only() {
        let mut store = CheckpointStore::default();
        store.record_image(1, 0, img(5));
        store.commit(1);
        store.record_image(2, 0, img(5));
        store.record_image(2, 1, img(5));
        assert_eq!(store.orphan_images(Some(2)), 0);
        assert_eq!(store.abort(2), 2);
        assert!(!store.has_image(2, 0));
        assert!(store.has_image(1, 0));
        assert_eq!(store.orphan_images(None), 0);
    }

    #[test]
    fn server_failure_loses_its_replicas() {
        let mut store = CheckpointStore::default();
        store.record_image(1, 0, img_on(NodeId(8), 7));
        store.record_image(1, 1, img_on(NodeId(9), 7));
        store.commit(1);
        assert_eq!(store.fail_server(NodeId(8)), 1);
        assert!(store.server_failed(NodeId(8)));
        assert!(!store.has_image(1, 0));
        assert!(store.has_image(1, 1));
        // Late writes to the dead server are dropped.
        store.record_image(1, 0, img_on(NodeId(8), 7));
        assert!(!store.has_image(1, 0));
    }

    #[test]
    fn replicas_survive_single_server_loss() {
        let mut store = CheckpointStore::default();
        store.record_image(1, 0, img_on(NodeId(8), 7));
        store.record_image(1, 0, img_on(NodeId(9), 7));
        assert_eq!(store.stored_bytes(), 14);
        store.fail_server(NodeId(8));
        assert!(store.has_image(1, 0));
        let found = store.locate(1, 0).expect("replica on node 9 survives");
        assert_eq!(found.server, NodeId(9));
        // Duplicate replica on the same server replaces, not accumulates.
        store.record_image(1, 0, img_on(NodeId(9), 9));
        assert_eq!(store.stored_bytes(), 9);
    }

    #[test]
    fn locate_finds_the_server() {
        let mut store = CheckpointStore::default();
        store.record_image(
            3,
            7,
            StoredImage {
                server: NodeId(42),
                bytes: 5,
                stored_at: SimTime::from_nanos(9),
                digest: 0,
            },
        );
        let found = store.locate(3, 7).expect("image recorded above");
        assert_eq!(found.server, NodeId(42));
        assert!(store.locate(3, 8).is_none());
    }

    #[test]
    fn locate_prefers_lowest_server_id() {
        let mut store = CheckpointStore::default();
        store.record_image(1, 0, img_on(NodeId(9), 1));
        store.record_image(1, 0, img_on(NodeId(8), 1));
        let found = store.locate(1, 0).expect("two replicas recorded");
        assert_eq!(found.server, NodeId(8));
    }

    #[test]
    fn locate_all_lists_live_replicas_ascending() {
        let mut store = CheckpointStore::default();
        assert!(store.locate_all(1, 0).is_empty());
        store.record_image(1, 0, img_on(NodeId(9), 1));
        store.record_image(1, 0, img_on(NodeId(8), 1));
        store.record_image(1, 0, img_on(NodeId(12), 1));
        assert_eq!(
            store.locate_all(1, 0),
            vec![NodeId(8), NodeId(9), NodeId(12)]
        );
        // First entry matches locate()'s deterministic choice.
        assert_eq!(
            store.locate(1, 0).expect("image recorded").server,
            NodeId(8)
        );
        assert!(store.server_holds(1, 0, NodeId(9)));
        assert!(!store.server_holds(1, 0, NodeId(10)));
        store.fail_server(NodeId(8));
        assert_eq!(store.locate_all(1, 0), vec![NodeId(9), NodeId(12)]);
        assert!(!store.server_holds(1, 0, NodeId(8)));
    }

    #[test]
    fn locate_all_walk_survives_holder_dying_mid_walk() {
        // A restore collects its candidate walk, the first holder dies
        // before the fetch lands, and the re-walk must skip it while
        // server_holds answers consistently at every step.
        let mut store = CheckpointStore::default();
        store.record_image(1, 0, img_on(NodeId(8), 1));
        store.record_image(1, 0, img_on(NodeId(9), 1));
        store.record_image(1, 0, img_on(NodeId(10), 1));
        let walk = store.locate_all(1, 0);
        assert_eq!(walk, vec![NodeId(8), NodeId(9), NodeId(10)]);
        store.fail_server(walk[0]);
        assert!(!store.server_holds(1, 0, NodeId(8)), "dead holder dropped");
        assert!(store.server_holds(1, 0, NodeId(9)), "later rungs intact");
        assert_eq!(store.locate_all(1, 0), vec![NodeId(9), NodeId(10)]);
        // Kill every rung: the walk is empty, not panicking.
        store.fail_server(NodeId(9));
        store.fail_server(NodeId(10));
        assert!(store.locate_all(1, 0).is_empty());
        assert!(store.locate(1, 0).is_none());
    }

    #[test]
    fn abort_while_located_empties_the_walk() {
        // A wave aborts while a fetch walk is in progress: the partial
        // images vanish, and both server_holds and locate_all must see an
        // empty store rather than stale replicas.
        let mut store = CheckpointStore::default();
        store.record_image(2, 0, img_on(NodeId(8), 1));
        store.record_image(2, 0, img_on(NodeId(9), 1));
        assert_eq!(store.locate_all(2, 0), vec![NodeId(8), NodeId(9)]);
        assert_eq!(store.abort(2), 2);
        assert!(store.locate_all(2, 0).is_empty());
        assert!(!store.server_holds(2, 0, NodeId(8)));
        assert!(!store.server_holds(2, 0, NodeId(9)));
    }

    #[test]
    fn quarantine_excludes_placement_but_keeps_fetch_candidates() {
        let fleet = [NodeId(10), NodeId(11), NodeId(12)];
        let mut store = CheckpointStore::default();
        store.record_image(1, 0, img_on(NodeId(11), 3));
        assert!(store.quarantine_server(NodeId(11)));
        assert!(!store.quarantine_server(NodeId(11)), "idempotent");
        assert!(store.server_quarantined(NodeId(11)));
        assert!(store.server_unplaceable(NodeId(11)));
        assert!(!store.server_failed(NodeId(11)), "quarantine is not death");
        // Placement walks past it.
        assert_eq!(
            replica_targets(&fleet, NodeId(11), 2, &store),
            vec![NodeId(12), NodeId(10)]
        );
        // New writes are dropped, but the existing replica stays a
        // (verified) fetch candidate.
        assert!(!store.record_image(2, 0, img_on(NodeId(11), 3)));
        assert!(!store.has_image(2, 0));
        assert_eq!(store.locate_all(1, 0), vec![NodeId(11)]);
        assert!(store.server_holds(1, 0, NodeId(11)));
    }

    #[test]
    fn verify_replica_types_every_outcome() {
        let mut store = CheckpointStore::default();
        let good = StoredImage {
            digest: 77,
            ..img_on(NodeId(8), 4)
        };
        store.record_image(1, 0, good);
        assert_eq!(
            store.verify_replica(1, 0, NodeId(8), 77).map(|i| i.server),
            Ok(NodeId(8))
        );
        assert_eq!(
            store.verify_replica(1, 0, NodeId(9), 77),
            Err(StoreError::NoReplica { wave: 1, rank: 0 })
        );
        assert!(store.corrupt_replica(1, 0, NodeId(8)));
        assert_eq!(
            store.verify_replica(1, 0, NodeId(8), 77),
            Err(StoreError::CorruptImage {
                wave: 1,
                rank: 0,
                server: NodeId(8),
            })
        );
        assert!(!store.corrupt_replica(1, 0, NodeId(9)), "nothing there");
    }

    #[test]
    fn intact_lookups_walk_past_corrupt_copies() {
        let mut store = CheckpointStore::default();
        store.record_image(
            1,
            0,
            StoredImage {
                digest: 5,
                ..img_on(NodeId(8), 1)
            },
        );
        store.record_image(
            1,
            0,
            StoredImage {
                digest: 5,
                ..img_on(NodeId(9), 1)
            },
        );
        store.corrupt_replica(1, 0, NodeId(8));
        assert!(store.has_intact_image(1, 0, 5));
        assert_eq!(
            store.locate_intact(1, 0, 5).map(|i| i.server),
            Some(NodeId(9)),
            "locate_intact skips the damaged lowest-id copy"
        );
        store.corrupt_replica(1, 0, NodeId(9));
        assert!(!store.has_intact_image(1, 0, 5));
        assert!(store.locate_intact(1, 0, 5).is_none());
        // has_image still sees the damaged copies: existence and
        // integrity are separate questions.
        assert!(store.has_image(1, 0));
    }

    #[test]
    fn corrupt_newest_and_whole_server_flips() {
        let mut store = CheckpointStore::default();
        store.record_image(
            1,
            0,
            StoredImage {
                digest: 1,
                ..img_on(NodeId(8), 1)
            },
        );
        store.record_image(
            2,
            0,
            StoredImage {
                digest: 2,
                ..img_on(NodeId(8), 1)
            },
        );
        store.record_image(
            2,
            1,
            StoredImage {
                digest: 3,
                ..img_on(NodeId(9), 1)
            },
        );
        // Newest wave on node 8 for rank 0 is wave 2.
        assert_eq!(store.corrupt_newest(0, NodeId(8)), Some(2));
        assert!(store.has_intact_image(1, 0, 1), "older wave untouched");
        assert!(!store.has_intact_image(2, 0, 2));
        assert_eq!(store.corrupt_newest(5, NodeId(8)), None, "no such rank");
        // Whole-server rot touches only node 9's slots here.
        assert_eq!(store.corrupt_server(NodeId(9)), vec![(2, 1)]);
        assert!(!store.has_intact_image(2, 1, 3));
    }

    #[test]
    fn a_second_flip_never_heals_and_a_verified_write_does() {
        let mut store = CheckpointStore::default();
        let good = StoredImage {
            digest: 77,
            ..img_on(NodeId(8), 4)
        };
        store.record_image(1, 0, good);
        // A targeted flip, then whole-disk rot over the same replica.
        assert!(store.corrupt_replica(1, 0, NodeId(8)));
        assert_eq!(store.corrupt_server(NodeId(8)), vec![(1, 0)]);
        assert!(
            store.verify_replica(1, 0, NodeId(8), 77).is_err(),
            "two flips must not restore the digest"
        );
        assert!(store.corrupt_replica(1, 0, NodeId(8)));
        assert!(store.verify_replica(1, 0, NodeId(8), 77).is_err());
        // A verified rewrite of the slot is what clears the damage.
        assert!(store.record_image(1, 0, good));
        assert!(store.verify_replica(1, 0, NodeId(8), 77).is_ok());
    }

    #[test]
    fn corruption_detections_accumulate_per_server() {
        let mut store = CheckpointStore::default();
        assert_eq!(store.corruption_seen(NodeId(8)), 0);
        assert_eq!(store.note_corruption(NodeId(8)), 1);
        assert_eq!(store.note_corruption(NodeId(8)), 2);
        assert_eq!(store.note_corruption(NodeId(9)), 1);
        assert_eq!(store.corruption_seen(NodeId(8)), 2);
    }

    #[test]
    fn replica_targets_walk_the_fleet_past_failures() {
        let fleet = [NodeId(10), NodeId(11), NodeId(12)];
        let mut store = CheckpointStore::default();
        // Single copy, healthy fleet: the primary itself.
        assert_eq!(
            replica_targets(&fleet, NodeId(11), 1, &store),
            vec![NodeId(11)]
        );
        // Two replicas wrap around the fleet end.
        assert_eq!(
            replica_targets(&fleet, NodeId(12), 2, &store),
            vec![NodeId(12), NodeId(10)]
        );
        // A failed primary is skipped.
        store.fail_server(NodeId(11));
        assert_eq!(
            replica_targets(&fleet, NodeId(11), 2, &store),
            vec![NodeId(12), NodeId(10)]
        );
        // Not enough live servers: degrade to what survives.
        store.fail_server(NodeId(10));
        assert_eq!(
            replica_targets(&fleet, NodeId(11), 2, &store),
            vec![NodeId(12)]
        );
        store.fail_server(NodeId(12));
        assert!(replica_targets(&fleet, NodeId(11), 1, &store).is_empty());
    }
}
