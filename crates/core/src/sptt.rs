//! Semantic-Preserving Tower Transform (SPTT).
//!
//! SPTT re-expresses the global embedding-output AlltoAll of hybrid-parallel training
//! (Figure 4, step c) as the sequence of Figure 7:
//!
//! | step | operation                | link class        |
//! |------|--------------------------|-------------------|
//! | a    | feature distribution     | global AlltoAll (small: indices) |
//! | b    | embedding lookup         | local HBM         |
//! | c    | peer permute             | device-local copy |
//! | d    | intra-host collective    | NVLink            |
//! | e    | local data shuffle       | device-local copy |
//! | f    | concurrent peer AlltoAlls| NIC, world = #towers |
//!
//! This module provides two things:
//!
//! 1. **A symbolic simulation** of both the classic flow and the SPTT flow over
//!    `(feature, sample)` items, so that semantic equivalence — every rank ends up with
//!    every feature's embedding for exactly its local samples — is machine-checked
//!    rather than argued ([`SpttPlan::verify_semantic_equivalence`]).
//! 2. **Byte accounting** for every step ([`SpttCommVolumes`]), which the trainer
//!    combines with the `dmt-commsim` cost model to produce iteration latencies.

use crate::error::DmtError;
use dmt_topology::{peers_of, ClusterTopology, Rank, TowerId, TowerPlacement};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A `(feature index, global sample index)` item flowing through the lookup pipeline.
type Item = (usize, usize);

/// Per-rank holdings of embedding items.
type Layout = Vec<HashSet<Item>>;

/// A fully specified SPTT dataflow: cluster, tower placement, and the assignment of
/// features to towers and of each feature's table to a rank inside its tower.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpttPlan {
    cluster: ClusterTopology,
    placement: TowerPlacement,
    /// Tower that owns each feature.
    feature_to_tower: Vec<TowerId>,
    /// Rank hosting each feature's embedding table (a rank of the owning tower).
    feature_to_rank: Vec<Rank>,
    /// Samples per rank (the local batch size).
    local_batch: usize,
}

impl SpttPlan {
    /// Builds a plan with features assigned round-robin to towers and, within each
    /// tower, round-robin to the tower's ranks.
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidConfig`] if `num_features` or `local_batch` is zero,
    /// or if there are fewer features than towers (a tower would be empty).
    pub fn new(
        cluster: &ClusterTopology,
        placement: &TowerPlacement,
        num_features: usize,
        local_batch: usize,
    ) -> Result<Self, DmtError> {
        let towers = placement.num_towers();
        if num_features == 0 {
            return Err(DmtError::InvalidConfig {
                reason: "num_features must be positive".into(),
            });
        }
        if num_features < towers {
            return Err(DmtError::InvalidConfig {
                reason: format!("{num_features} features cannot fill {towers} towers"),
            });
        }
        let partition: Vec<Vec<usize>> = (0..towers)
            .map(|t| (0..num_features).filter(|f| f % towers == t).collect())
            .collect();
        Self::with_partition(cluster, placement, &partition, local_batch)
    }

    /// Builds a plan from an explicit feature partition: `partition[t]` lists the
    /// feature indices assigned to tower `t`.
    ///
    /// # Errors
    ///
    /// Returns [`DmtError::InvalidConfig`] if the partition length does not match the
    /// number of towers, a tower is empty, a feature appears twice or is missing, or
    /// `local_batch` is zero.
    pub fn with_partition(
        cluster: &ClusterTopology,
        placement: &TowerPlacement,
        partition: &[Vec<usize>],
        local_batch: usize,
    ) -> Result<Self, DmtError> {
        if local_batch == 0 {
            return Err(DmtError::InvalidConfig {
                reason: "local_batch must be positive".into(),
            });
        }
        if partition.len() != placement.num_towers() {
            return Err(DmtError::InvalidConfig {
                reason: format!(
                    "partition has {} groups but the placement has {} towers",
                    partition.len(),
                    placement.num_towers()
                ),
            });
        }
        let num_features: usize = partition.iter().map(Vec::len).sum();
        let mut feature_to_tower = vec![None; num_features];
        let mut feature_to_rank = vec![None; num_features];
        for (t, features) in partition.iter().enumerate() {
            if features.is_empty() {
                return Err(DmtError::InvalidConfig {
                    reason: format!("tower {t} has no features"),
                });
            }
            let tower_ranks = placement.ranks_of(TowerId(t));
            for (i, &f) in features.iter().enumerate() {
                let slot = feature_to_tower
                    .get_mut(f)
                    .ok_or_else(|| DmtError::InvalidConfig {
                        reason: format!(
                            "feature index {f} out of range for {num_features} features"
                        ),
                    })?;
                if slot.is_some() {
                    return Err(DmtError::InvalidConfig {
                        reason: format!("feature {f} assigned to more than one tower"),
                    });
                }
                *slot = Some(TowerId(t));
                feature_to_rank[f] = Some(tower_ranks[i % tower_ranks.len()]);
            }
        }
        let feature_to_tower: Vec<TowerId> = feature_to_tower
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| DmtError::InvalidConfig {
                reason: "a feature index is missing from the partition".into(),
            })?;
        let feature_to_rank: Vec<Rank> = feature_to_rank
            .into_iter()
            .map(|r| r.expect("assigned with tower"))
            .collect();
        Ok(Self {
            cluster: cluster.clone(),
            placement: placement.clone(),
            feature_to_tower,
            feature_to_rank,
            local_batch,
        })
    }

    /// Number of sparse features in the plan.
    #[must_use]
    pub fn num_features(&self) -> usize {
        self.feature_to_tower.len()
    }

    /// Samples per rank.
    #[must_use]
    pub fn local_batch(&self) -> usize {
        self.local_batch
    }

    /// Global batch size (`local_batch × world_size`).
    #[must_use]
    pub fn global_batch(&self) -> usize {
        self.local_batch * self.cluster.world_size()
    }

    /// The tower owning feature `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn tower_of_feature(&self, f: usize) -> TowerId {
        self.feature_to_tower[f]
    }

    /// Features owned by tower `t`.
    #[must_use]
    pub fn features_of_tower(&self, t: TowerId) -> Vec<usize> {
        self.feature_to_tower
            .iter()
            .enumerate()
            .filter_map(|(f, &tower)| (tower == t).then_some(f))
            .collect()
    }

    /// The tower placement underlying the plan.
    #[must_use]
    pub fn placement(&self) -> &TowerPlacement {
        &self.placement
    }

    /// The cluster underlying the plan.
    #[must_use]
    pub fn cluster(&self) -> &ClusterTopology {
        &self.cluster
    }

    /// Global sample indices owned by `rank`.
    fn local_samples(&self, rank: Rank) -> Vec<usize> {
        let start = rank.0 * self.local_batch;
        (start..start + self.local_batch).collect()
    }

    /// The target layout both flows must converge to: every rank holds every feature
    /// for exactly its local samples.
    #[must_use]
    pub fn target_layout(&self) -> Vec<HashSet<(usize, usize)>> {
        self.cluster
            .all_ranks()
            .into_iter()
            .map(|rank| {
                let mut set = HashSet::new();
                for f in 0..self.num_features() {
                    for s in self.local_samples(rank) {
                        set.insert((f, s));
                    }
                }
                set
            })
            .collect()
    }

    /// Layout right after the embedding lookup (step b): the rank hosting a feature's
    /// table holds that feature's embeddings for the entire global batch.
    fn post_lookup_layout(&self) -> Layout {
        let mut layout: Layout = vec![HashSet::new(); self.cluster.world_size()];
        for f in 0..self.num_features() {
            let host_rank = self.feature_to_rank[f];
            for s in 0..self.global_batch() {
                layout[host_rank.0].insert((f, s));
            }
        }
        layout
    }

    /// Simulates the classic flow of Figure 4: lookup followed by one *global*
    /// AlltoAll that routes every embedding to the owner of its sample.
    #[must_use]
    pub fn simulate_classic_flow(&self) -> Vec<HashSet<(usize, usize)>> {
        let layout = self.post_lookup_layout();
        let mut result: Layout = vec![HashSet::new(); self.cluster.world_size()];
        for (rank_idx, items) in layout.into_iter().enumerate() {
            let _sender = Rank(rank_idx);
            for (f, s) in items {
                let owner = Rank(s / self.local_batch);
                result[owner.0].insert((f, s));
            }
        }
        result
    }

    /// Simulates the SPTT flow of Figure 7 (steps b through f) and returns the final
    /// per-rank layout.
    ///
    /// Steps c (peer permute) and e (local shuffle) do not move data across ranks, so
    /// they do not change the symbolic per-rank holdings; they are accounted for in
    /// [`SpttCommVolumes`] instead.
    #[must_use]
    pub fn simulate_sptt_flow(&self) -> Vec<HashSet<(usize, usize)>> {
        let world = self.cluster.world_size();
        let gpus_per_host = self.cluster.gpus_per_host();
        // Step b: lookup.
        let layout = self.post_lookup_layout();

        // Step d: intra-host AlltoAll. Within each host, rank `g` sends the items of
        // samples owned by slot-l' ranks (across all hosts) to the local rank with
        // slot l'.
        let mut after_d: Layout = vec![HashSet::new(); world];
        for (rank_idx, items) in layout.into_iter().enumerate() {
            let sender = Rank(rank_idx);
            let host = self.cluster.host_of(sender);
            for (f, s) in items {
                let owner = Rank(s / self.local_batch);
                let owner_slot = self.cluster.local_index(owner);
                let receiver = Rank(host * gpus_per_host + owner_slot);
                after_d[receiver.0].insert((f, s));
            }
        }

        // Step f: concurrent peer AlltoAlls. Each rank sends items to the peer that
        // owns the item's sample.
        let mut after_f: Layout = vec![HashSet::new(); world];
        for (rank_idx, items) in after_d.into_iter().enumerate() {
            let sender = Rank(rank_idx);
            let peers = peers_of(&self.cluster, sender);
            for (f, s) in items {
                let owner = Rank(s / self.local_batch);
                debug_assert!(
                    peers.contains(&owner),
                    "after step d every held sample must belong to a peer"
                );
                after_f[owner.0].insert((f, s));
            }
        }
        after_f
    }

    /// Checks that after step d every rank holds exactly the full feature set of its
    /// own tower for its peers' samples — the invariant tower modules rely on.
    #[must_use]
    pub fn verify_tower_locality(&self) -> bool {
        let world = self.cluster.world_size();
        let gpus_per_host = self.cluster.gpus_per_host();
        let layout = self.post_lookup_layout();
        let mut after_d: Layout = vec![HashSet::new(); world];
        for (rank_idx, items) in layout.into_iter().enumerate() {
            let sender = Rank(rank_idx);
            let host = self.cluster.host_of(sender);
            for (f, s) in items {
                let owner = Rank(s / self.local_batch);
                let owner_slot = self.cluster.local_index(owner);
                let receiver = Rank(host * gpus_per_host + owner_slot);
                after_d[receiver.0].insert((f, s));
            }
        }
        for rank in self.cluster.all_ranks() {
            let tower = self.placement.tower_of(rank);
            let tower_features: HashSet<usize> =
                self.features_of_tower(tower).into_iter().collect();
            let peer_samples: HashSet<usize> = peers_of(&self.cluster, rank)
                .into_iter()
                .flat_map(|p| self.local_samples(p))
                .collect();
            let expected: HashSet<Item> = tower_features
                .iter()
                .flat_map(|&f| peer_samples.iter().map(move |&s| (f, s)))
                .collect();
            if after_d[rank.0] != expected {
                return false;
            }
        }
        true
    }

    /// Checks that the SPTT flow produces exactly the same final layout as the classic
    /// global-AlltoAll flow (and that both equal the target layout).
    #[must_use]
    pub fn verify_semantic_equivalence(&self) -> bool {
        let classic = self.simulate_classic_flow();
        let sptt = self.simulate_sptt_flow();
        let target = self.target_layout();
        classic == target && sptt == target
    }

    /// Byte accounting for the flow, assuming `embedding_dim`-wide FP-`bytes_per_elem`
    /// embeddings and 8-byte sparse ids.
    #[must_use]
    pub fn comm_volumes(&self, embedding_dim: usize, bytes_per_elem: u64) -> SpttCommVolumes {
        let world = self.cluster.world_size() as u64;
        let features = self.num_features() as u64;
        let global_batch = self.global_batch() as u64;
        let dim = embedding_dim as u64;

        // Per-rank pooled-embedding payload for a balanced feature assignment:
        // each rank looks up features/world tables for the global batch, which equals
        // local_batch * features embeddings.
        let embedding_bytes = global_batch * features * dim * bytes_per_elem / world;
        // Sparse ids: every rank contributes its local samples' ids for every feature.
        let index_bytes = (self.local_batch as u64) * features * 8;

        SpttCommVolumes {
            input_indices_bytes_per_rank: index_bytes,
            lookup_output_bytes_per_rank: embedding_bytes,
            intra_host_bytes_per_rank: embedding_bytes,
            peer_bytes_per_rank: embedding_bytes,
            shuffle_bytes_per_rank: 2 * embedding_bytes,
        }
    }
}

/// Per-rank byte volumes of each SPTT step (and of the classic flow they replace).
///
/// All values are forward-pass volumes; the backward pass mirrors the forward volumes
/// (gradients retrace the same routes), which is how the trainer accounts for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpttCommVolumes {
    /// Step a: sparse indices distributed to table owners (global AlltoAll).
    pub input_indices_bytes_per_rank: u64,
    /// Step b output / classic step c payload: pooled embeddings produced per rank.
    pub lookup_output_bytes_per_rank: u64,
    /// Step d: bytes exchanged inside the host (NVLink AlltoAll / ReduceScatter).
    pub intra_host_bytes_per_rank: u64,
    /// Step f: bytes exchanged between peers (cross-host AlltoAll of world = #towers).
    /// Tower modules divide this by their compression ratio.
    pub peer_bytes_per_rank: u64,
    /// Steps c + e: device-local permute/transpose traffic.
    pub shuffle_bytes_per_rank: u64,
}

impl SpttCommVolumes {
    /// Peer-AlltoAll bytes after a tower module compresses the tower output by
    /// `compression_ratio`.
    ///
    /// # Panics
    ///
    /// Panics if `compression_ratio` is not positive.
    #[must_use]
    pub fn compressed_peer_bytes(&self, compression_ratio: f64) -> u64 {
        assert!(
            compression_ratio > 0.0,
            "compression ratio must be positive"
        );
        (self.peer_bytes_per_rank as f64 / compression_ratio).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_topology::HardwareGeneration;

    fn setup(hosts: usize, gpus: usize, features: usize, local_batch: usize) -> SpttPlan {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, hosts, gpus).unwrap();
        let placement = TowerPlacement::one_tower_per_host(&cluster);
        SpttPlan::new(&cluster, &placement, features, local_batch).unwrap()
    }

    #[test]
    fn paper_example_is_semantics_preserving() {
        // Figure 7's setup: 2 hosts x 2 GPUs, 4 features, 1 sample per GPU.
        let plan = setup(2, 2, 4, 1);
        assert!(plan.verify_semantic_equivalence());
        assert!(plan.verify_tower_locality());
    }

    #[test]
    fn equivalence_holds_across_cluster_shapes() {
        for (hosts, gpus, features, batch) in [
            (2usize, 4usize, 8usize, 2usize),
            (4, 2, 13, 3),
            (4, 8, 26, 2),
            (8, 8, 64, 1),
        ] {
            let plan = setup(hosts, gpus, features, batch);
            assert!(
                plan.verify_semantic_equivalence(),
                "equivalence failed for {hosts}x{gpus}, {features} features"
            );
            assert!(plan.verify_tower_locality());
        }
    }

    #[test]
    fn equivalence_holds_for_multi_host_towers() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 4, 2).unwrap();
        let placement = TowerPlacement::with_towers(&cluster, 2).unwrap();
        let plan = SpttPlan::new(&cluster, &placement, 8, 2).unwrap();
        assert!(plan.verify_semantic_equivalence());
    }

    #[test]
    fn custom_partition_round_trips() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        let placement = TowerPlacement::one_tower_per_host(&cluster);
        let partition = vec![vec![0, 3], vec![1, 2]];
        let plan = SpttPlan::with_partition(&cluster, &placement, &partition, 4).unwrap();
        assert_eq!(plan.tower_of_feature(3), TowerId(0));
        assert_eq!(plan.tower_of_feature(2), TowerId(1));
        assert_eq!(plan.features_of_tower(TowerId(0)), vec![0, 3]);
        assert!(plan.verify_semantic_equivalence());
    }

    #[test]
    fn invalid_partitions_are_rejected() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        let placement = TowerPlacement::one_tower_per_host(&cluster);
        // Wrong number of groups.
        assert!(SpttPlan::with_partition(&cluster, &placement, &[vec![0, 1]], 4).is_err());
        // Duplicate feature.
        assert!(SpttPlan::with_partition(&cluster, &placement, &[vec![0, 1], vec![1]], 4).is_err());
        // Out-of-range feature index.
        assert!(SpttPlan::with_partition(&cluster, &placement, &[vec![0], vec![7]], 4).is_err());
        // Empty tower.
        assert!(SpttPlan::with_partition(&cluster, &placement, &[vec![0, 1], vec![]], 4).is_err());
        // Zero batch.
        assert!(SpttPlan::with_partition(&cluster, &placement, &[vec![0], vec![1]], 0).is_err());
        // Fewer features than towers.
        assert!(SpttPlan::new(&cluster, &placement, 1, 4).is_err());
        // Zero features.
        assert!(SpttPlan::new(&cluster, &placement, 0, 4).is_err());
    }

    #[test]
    fn comm_volumes_match_hand_computation() {
        // 2 hosts x 2 GPUs, 4 features, dim 128, fp32, local batch 16.
        let plan = setup(2, 2, 4, 16);
        let v = plan.comm_volumes(128, 4);
        // Global batch 64, features/world = 1 table per rank:
        // embeddings per rank = 64 samples * 1 table * 128 dim * 4 B = 32 KiB.
        assert_eq!(v.lookup_output_bytes_per_rank, 64 * 128 * 4);
        assert_eq!(v.intra_host_bytes_per_rank, v.lookup_output_bytes_per_rank);
        assert_eq!(v.peer_bytes_per_rank, v.lookup_output_bytes_per_rank);
        assert_eq!(v.input_indices_bytes_per_rank, 16 * 4 * 8);
        assert_eq!(v.shuffle_bytes_per_rank, 2 * v.lookup_output_bytes_per_rank);
        // Tower-module compression halves the cross-host bytes.
        assert_eq!(v.compressed_peer_bytes(2.0), v.peer_bytes_per_rank / 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_compression_ratio_panics() {
        let plan = setup(2, 2, 4, 1);
        let _ = plan.comm_volumes(128, 4).compressed_peer_bytes(0.0);
    }

    #[test]
    fn global_and_local_batches() {
        let plan = setup(2, 4, 16, 8);
        assert_eq!(plan.local_batch(), 8);
        assert_eq!(plan.global_batch(), 64);
        assert_eq!(plan.num_features(), 16);
    }
}
