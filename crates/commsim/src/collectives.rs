//! Time / byte estimates for the collectives used by recommendation training.
//!
//! All functions take the *per-rank input buffer size in bytes* (`bytes_per_rank`) and
//! a [`ProcessGroup`], and return a [`CollectiveEstimate`] with the wall-clock time and
//! the per-rank traffic split by link class. Bus-bandwidth accessors follow the
//! `nccl-tests` conventions so the Figure 5 reproduction prints directly comparable
//! numbers.

use crate::cost::CostModel;
use dmt_topology::ProcessGroup;
use serde::{Deserialize, Serialize};

/// Which collective an estimate describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Every rank exchanges a distinct shard with every other rank.
    AllToAll,
    /// Every rank ends with the elementwise reduction of all ranks' buffers.
    AllReduce,
    /// Reduction followed by scatter: each rank ends with one reduced shard.
    ReduceScatter,
    /// Each rank ends with the concatenation of all ranks' buffers.
    AllGather,
    /// One rank's buffer is replicated to all ranks.
    Broadcast,
}

/// Result of simulating one collective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveEstimate {
    /// Which collective was simulated.
    pub kind: CollectiveKind,
    /// Number of participating ranks.
    pub world_size: usize,
    /// Per-rank input buffer size in bytes.
    pub bytes_per_rank: u64,
    /// Simulated wall-clock time in seconds.
    pub time_s: f64,
    /// Bytes each rank pushes over cross-host (NIC) links.
    pub cross_host_bytes_per_rank: f64,
    /// Bytes each rank pushes over intra-host (NVLink) links.
    pub intra_host_bytes_per_rank: f64,
}

impl CollectiveEstimate {
    /// Bus bandwidth in GB/s following the `nccl-tests` convention, which is what the
    /// paper's Figure 5 plots.
    ///
    /// * AlltoAll / ReduceScatter / AllGather: `S * (W-1)/W / t`
    /// * AllReduce: `2 * S * (W-1)/W / t`
    /// * Broadcast: `S / t`
    #[must_use]
    pub fn bus_bandwidth_gbs(&self) -> f64 {
        let s = self.bytes_per_rank as f64;
        let w = self.world_size as f64;
        let factor = match self.kind {
            CollectiveKind::AllReduce => 2.0 * (w - 1.0) / w,
            CollectiveKind::AllToAll
            | CollectiveKind::ReduceScatter
            | CollectiveKind::AllGather => (w - 1.0) / w,
            CollectiveKind::Broadcast => 1.0,
        };
        s * factor / self.time_s / 1e9
    }

    /// Total bytes this rank moved over any off-device link.
    #[must_use]
    pub fn wire_bytes_per_rank(&self) -> f64 {
        self.cross_host_bytes_per_rank + self.intra_host_bytes_per_rank
    }
}

fn degenerate(kind: CollectiveKind, bytes_per_rank: u64) -> CollectiveEstimate {
    CollectiveEstimate {
        kind,
        world_size: 1,
        bytes_per_rank,
        time_s: 1e-9,
        cross_host_bytes_per_rank: 0.0,
        intra_host_bytes_per_rank: 0.0,
    }
}

/// Simulates an AlltoAll where each rank starts with `bytes_per_rank` bytes, sending an
/// equal `1/W` shard to every rank of `group`.
///
/// The time is the maximum of the cross-host and intra-host phases (they proceed in
/// parallel over different links) plus launch overhead and wire latency.
#[must_use]
pub fn all_to_all(
    model: &CostModel,
    group: &ProcessGroup,
    bytes_per_rank: u64,
) -> CollectiveEstimate {
    let w = group.world_size();
    if w <= 1 {
        return degenerate(CollectiveKind::AllToAll, bytes_per_rank);
    }
    let ranks_per_host = model.ranks_per_host(group);
    let s = bytes_per_rank as f64;
    let cross_peers = (w - ranks_per_host) as f64;
    let intra_peers = (ranks_per_host - 1) as f64;
    let cross_bytes = s * cross_peers / w as f64;
    let intra_bytes = s * intra_peers / w as f64;

    let cross_time = if cross_peers > 0.0 {
        cross_bytes / model.cross_host_bandwidth(w) + model.group_latency(group)
    } else {
        0.0
    };
    let intra_time = if intra_peers > 0.0 {
        intra_bytes / model.intra_host_bandwidth()
            + model
                .cluster()
                .link_latency(dmt_topology::LinkKind::IntraHost)
    } else {
        0.0
    };
    let time = model.launch_overhead() + cross_time.max(intra_time);
    CollectiveEstimate {
        kind: CollectiveKind::AllToAll,
        world_size: w,
        bytes_per_rank,
        time_s: time,
        cross_host_bytes_per_rank: cross_bytes,
        intra_host_bytes_per_rank: intra_bytes,
    }
}

/// Simulates a hierarchical AllReduce of `bytes_per_rank` bytes over `group`:
/// intra-host reduce-scatter, cross-host all-reduce of the `1/ranks_per_host` shard,
/// intra-host all-gather. Falls back to a single NVLink ring when the group fits in a
/// host.
#[must_use]
pub fn all_reduce(
    model: &CostModel,
    group: &ProcessGroup,
    bytes_per_rank: u64,
) -> CollectiveEstimate {
    let w = group.world_size();
    if w <= 1 {
        return degenerate(CollectiveKind::AllReduce, bytes_per_rank);
    }
    let s = bytes_per_rank as f64;
    let ranks_per_host = model.ranks_per_host(group);
    let hosts = model.hosts_spanned(group);

    if hosts <= 1 {
        // Single-host ring: 2 * S * (W-1)/W bytes per rank over NVLink.
        let intra_bytes = 2.0 * s * (w as f64 - 1.0) / w as f64;
        let time = model.launch_overhead() + intra_bytes / model.intra_host_bandwidth();
        return CollectiveEstimate {
            kind: CollectiveKind::AllReduce,
            world_size: w,
            bytes_per_rank,
            time_s: time,
            cross_host_bytes_per_rank: 0.0,
            intra_host_bytes_per_rank: intra_bytes,
        };
    }

    // Stage 1 + 3: intra-host reduce-scatter and all-gather, each S*(R-1)/R per rank.
    let intra_stage = s * (ranks_per_host as f64 - 1.0) / ranks_per_host as f64;
    let intra_bytes = 2.0 * intra_stage;
    let intra_time = if ranks_per_host > 1 {
        intra_bytes / model.intra_host_bandwidth()
    } else {
        0.0
    };

    // Stage 2: cross-host ring all-reduce of the S/R shard, 2*(S/R)*(H-1)/H per rank.
    let shard = s / ranks_per_host as f64;
    let cross_bytes = 2.0 * shard * (hosts as f64 - 1.0) / hosts as f64;
    let cross_bw = model.cross_host_bandwidth(w) * model.reduction_protocol_efficiency();
    let cross_time = cross_bytes / cross_bw + model.group_latency(group);

    let time = model.launch_overhead() + intra_time + cross_time;
    CollectiveEstimate {
        kind: CollectiveKind::AllReduce,
        world_size: w,
        bytes_per_rank,
        time_s: time,
        cross_host_bytes_per_rank: cross_bytes,
        intra_host_bytes_per_rank: intra_bytes,
    }
}

/// Simulates a ReduceScatter of `bytes_per_rank` bytes over `group` (each rank ends
/// with a reduced `1/W` shard).
#[must_use]
pub fn reduce_scatter(
    model: &CostModel,
    group: &ProcessGroup,
    bytes_per_rank: u64,
) -> CollectiveEstimate {
    let est = scatter_like(model, group, bytes_per_rank, true);
    CollectiveEstimate {
        kind: CollectiveKind::ReduceScatter,
        ..est
    }
}

/// Simulates an AllGather where each rank contributes `bytes_per_rank / W` bytes and
/// ends with the full `bytes_per_rank` buffer.
#[must_use]
pub fn all_gather(
    model: &CostModel,
    group: &ProcessGroup,
    bytes_per_rank: u64,
) -> CollectiveEstimate {
    let est = scatter_like(model, group, bytes_per_rank, false);
    CollectiveEstimate {
        kind: CollectiveKind::AllGather,
        ..est
    }
}

/// Shared ring formula for ReduceScatter / AllGather: `S * (W-1)/W` bytes per rank,
/// bottlenecked by the slowest link class the ring crosses.
fn scatter_like(
    model: &CostModel,
    group: &ProcessGroup,
    bytes_per_rank: u64,
    is_reduction: bool,
) -> CollectiveEstimate {
    let w = group.world_size();
    if w <= 1 {
        return degenerate(CollectiveKind::ReduceScatter, bytes_per_rank);
    }
    let s = bytes_per_rank as f64;
    let hosts = model.hosts_spanned(group);
    let ranks_per_host = model.ranks_per_host(group);
    let total = s * (w as f64 - 1.0) / w as f64;

    let (cross_bytes, intra_bytes, time_data) = if hosts <= 1 {
        (0.0, total, total / model.intra_host_bandwidth())
    } else {
        // Fraction of ring hops that cross hosts.
        let cross_fraction = (w - ranks_per_host) as f64 / w as f64;
        let cross_bytes = s * cross_fraction;
        let intra_bytes = total - cross_bytes;
        let mut cross_bw = model.cross_host_bandwidth(w);
        if is_reduction {
            cross_bw *= model.reduction_protocol_efficiency();
        }
        let t = (cross_bytes / cross_bw).max(intra_bytes / model.intra_host_bandwidth())
            + model.group_latency(group);
        (cross_bytes, intra_bytes, t)
    };

    CollectiveEstimate {
        kind: CollectiveKind::ReduceScatter,
        world_size: w,
        bytes_per_rank,
        time_s: model.launch_overhead() + time_data,
        cross_host_bytes_per_rank: cross_bytes,
        intra_host_bytes_per_rank: intra_bytes,
    }
}

/// Simulates a Broadcast of `bytes_per_rank` bytes from one rank to every member of
/// `group` using a bandwidth-optimal pipelined chain.
#[must_use]
pub fn broadcast(
    model: &CostModel,
    group: &ProcessGroup,
    bytes_per_rank: u64,
) -> CollectiveEstimate {
    let w = group.world_size();
    if w <= 1 {
        return degenerate(CollectiveKind::Broadcast, bytes_per_rank);
    }
    let s = bytes_per_rank as f64;
    let hosts = model.hosts_spanned(group);
    let (cross_bytes, intra_bytes, bw) = if hosts <= 1 {
        (0.0, s, model.intra_host_bandwidth())
    } else {
        (s, 0.0, model.cross_host_bandwidth(w))
    };
    CollectiveEstimate {
        kind: CollectiveKind::Broadcast,
        world_size: w,
        bytes_per_rank,
        time_s: model.launch_overhead() + s / bw + model.group_latency(group),
        cross_host_bytes_per_rank: cross_bytes,
        intra_host_bytes_per_rank: intra_bytes,
    }
}

/// Simulates the `L` *concurrent peer AlltoAlls* of SPTT step (f): one AlltoAll per
/// local slot, each over a world of `num_hosts` ranks (one per host).
///
/// The AlltoAlls run concurrently but each uses its own GPU's NIC, so to first order
/// they do not contend; the returned estimate is the per-rank view (the slowest of the
/// concurrent collectives, which are symmetric).
#[must_use]
pub fn concurrent_peer_all_to_alls(
    model: &CostModel,
    peer_groups: &[ProcessGroup],
    bytes_per_rank: u64,
) -> CollectiveEstimate {
    assert!(
        !peer_groups.is_empty(),
        "at least one peer group is required"
    );
    // Symmetric groups: estimate the first and reuse.
    all_to_all(model, &peer_groups[0], bytes_per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_topology::{ClusterTopology, HardwareGeneration};

    fn setup(world: usize) -> (CostModel, ProcessGroup) {
        let cluster = ClusterTopology::standard(HardwareGeneration::A100, world).unwrap();
        let group = ProcessGroup::global(&cluster);
        (CostModel::new(cluster), group)
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    fn figure5_alltoall_shape() {
        // Bus bandwidth of a 256MB AlltoAll must collapse after the first cross-host
        // step and keep degrading with scale, staying in the ballpark of Figure 5.
        let mut prev = f64::INFINITY;
        for &(world, lo, hi) in &[
            (8usize, 120.0, 200.0),
            (16, 25.0, 50.0),
            (64, 10.0, 25.0),
            (512, 8.0, 18.0),
        ] {
            let (model, group) = setup(world);
            let est = all_to_all(&model, &group, 256 * MB);
            let bw = est.bus_bandwidth_gbs();
            assert!(bw < prev + 1e-9, "bus bandwidth must degrade with scale");
            assert!(
                bw > lo && bw < hi,
                "world {world}: {bw} GB/s outside [{lo},{hi}]"
            );
            prev = bw;
        }
    }

    #[test]
    fn figure5_allreduce_shape() {
        let mut prev = f64::INFINITY;
        for &(world, lo, hi) in &[
            (8usize, 120.0, 220.0),
            (16, 60.0, 160.0),
            (64, 40.0, 130.0),
            (512, 30.0, 90.0),
        ] {
            let (model, group) = setup(world);
            let est = all_reduce(&model, &group, 64 * MB);
            let bw = est.bus_bandwidth_gbs();
            assert!(bw < prev + 1e-9);
            assert!(
                bw > lo && bw < hi,
                "world {world}: {bw} GB/s outside [{lo},{hi}]"
            );
            prev = bw;
        }
    }

    #[test]
    fn single_host_alltoall_has_no_cross_traffic() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 8).unwrap();
        let model = CostModel::new(cluster.clone());
        let est = all_to_all(&model, &ProcessGroup::global(&cluster), 256 * MB);
        assert_eq!(est.cross_host_bytes_per_rank, 0.0);
        assert!(est.intra_host_bytes_per_rank > 0.0);
    }

    #[test]
    fn peer_alltoall_beats_global_alltoall_per_byte() {
        // The SPTT claim: the same per-rank payload moves faster in the smaller peer
        // world than in the global world at large scale.
        let (model, global) = setup(512);
        let peer_groups = ProcessGroup::peer_groups(model.cluster());
        let global_est = all_to_all(&model, &global, 256 * MB);
        let peer_est = concurrent_peer_all_to_alls(&model, &peer_groups, 256 * MB);
        assert!(peer_est.time_s < global_est.time_s);
    }

    #[test]
    fn degenerate_world_is_instant() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 1).unwrap();
        let model = CostModel::new(cluster.clone());
        let est = all_reduce(&model, &ProcessGroup::global(&cluster), 64 * MB);
        assert!(est.time_s < 1e-6);
        assert_eq!(est.wire_bytes_per_rank(), 0.0);
    }

    #[test]
    fn allreduce_moves_twice_the_data_of_reducescatter() {
        // The hierarchical AllReduce moves ~2x the total bytes of a ReduceScatter, but
        // keeps most of them on NVLink, so it can still finish *faster* than a flat
        // ring ReduceScatter that drags most bytes over the NIC.
        let (model, group) = setup(64);
        let ar = all_reduce(&model, &group, 64 * MB);
        let rs = reduce_scatter(&model, &group, 64 * MB);
        assert!(ar.wire_bytes_per_rank() > 1.5 * rs.wire_bytes_per_rank());
        assert!(ar.cross_host_bytes_per_rank < rs.cross_host_bytes_per_rank);
    }

    #[test]
    fn allgather_and_reducescatter_are_symmetric_in_bytes() {
        let (model, group) = setup(64);
        let ag = all_gather(&model, &group, 64 * MB);
        let rs = reduce_scatter(&model, &group, 64 * MB);
        assert!((ag.wire_bytes_per_rank() - rs.wire_bytes_per_rank()).abs() < 1.0);
    }

    #[test]
    fn broadcast_time_scales_with_bytes() {
        let (model, group) = setup(64);
        let small = broadcast(&model, &group, MB);
        let large = broadcast(&model, &group, 64 * MB);
        assert!(large.time_s > small.time_s);
        assert_eq!(large.kind, CollectiveKind::Broadcast);
    }

    #[test]
    fn intra_host_group_collectives_use_nvlink_only() {
        let (model, _) = setup(64);
        let intra = &ProcessGroup::intra_host_groups(model.cluster())[0];
        for est in [
            all_to_all(&model, intra, 64 * MB),
            all_reduce(&model, intra, 64 * MB),
            reduce_scatter(&model, intra, 64 * MB),
        ] {
            assert_eq!(est.cross_host_bytes_per_rank, 0.0, "{:?}", est.kind);
        }
    }
}
