//! The α–β cost model with calibrated scale-dependent efficiency.

use dmt_topology::{ClusterTopology, LinkKind, ProcessGroup};
use serde::{Deserialize, Serialize};

/// Anchor points of the cross-host efficiency curve, keyed by the *number of ranks
/// participating in the collective* and calibrated so that the bus bandwidth of a
/// global AlltoAll / AllReduce on A100 clusters reproduces the shape of the paper's
/// Figure 5 (8 GPUs/host, 8–512 GPUs).
///
/// Efficiency is the fraction of the nominal NIC bandwidth a rank actually achieves
/// once message fragmentation (a `W`-rank AlltoAll splits each buffer into `W` chunks),
/// incast congestion and straggler variance at that scale are accounted for. This is
/// the curve that makes SPTT's world-size reduction pay off: a peer AlltoAll over `T`
/// ranks sits much further left on it than a global AlltoAll over `G` ranks.
const CROSS_HOST_EFFICIENCY_ANCHORS: &[(f64, f64)] = &[
    (8.0, 0.95),
    (16.0, 0.80),
    (32.0, 0.72),
    (64.0, 0.62),
    (128.0, 0.58),
    (256.0, 0.55),
    (512.0, 0.50),
];

/// Fraction of the nominal NVLink bandwidth achievable by intra-host collectives.
/// Calibrated against the single-host (8 GPU) points of Figure 5.
const INTRA_HOST_EFFICIENCY: f64 = 0.53;

/// Extra protocol inefficiency of the multi-stage AllReduce relative to AlltoAll.
const ALLREDUCE_PROTOCOL_EFFICIENCY: f64 = 0.85;

/// Fixed software/launch overhead added per collective invocation, in seconds.
/// Roughly a kernel launch plus NCCL protocol setup.
const COLLECTIVE_LAUNCH_OVERHEAD_S: f64 = 12e-6;

/// Analytical cost model over a concrete cluster.
///
/// All collective estimates in [`crate::collectives`] are computed against a
/// `CostModel`. The model owns the cluster topology plus the calibration constants and
/// exposes the primitive queries (effective link bandwidth at a given scale, fixed
/// overheads) that the collective formulas are built from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    cluster: ClusterTopology,
    /// Multiplier on every cross-host bandwidth term; `1.0` models the paper's
    /// full-bisection fabric, values below 1 model oversubscription.
    cross_host_scale: f64,
    /// Multiplier on the intra-host (scale-up) bandwidth; `1.0` models the nominal
    /// NVLink fabric. Used by the distributed engine's calibration to mirror a
    /// slowed-down emulated fabric.
    intra_host_scale: f64,
}

impl CostModel {
    /// Creates a cost model with the default (paper-calibrated) constants.
    #[must_use]
    pub fn new(cluster: ClusterTopology) -> Self {
        Self {
            cluster,
            cross_host_scale: 1.0,
            intra_host_scale: 1.0,
        }
    }

    /// Scales all cross-host bandwidth by `scale` (e.g. `0.5` for a 2:1
    /// oversubscribed fabric).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    #[must_use]
    pub fn with_cross_host_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "cross-host scale must be positive");
        self.cross_host_scale = scale;
        self
    }

    /// Scales the intra-host (scale-up) bandwidth by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    #[must_use]
    pub fn with_intra_host_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "intra-host scale must be positive");
        self.intra_host_scale = scale;
        self
    }

    /// The cluster this model simulates.
    #[must_use]
    pub fn cluster(&self) -> &ClusterTopology {
        &self.cluster
    }

    /// Cross-host efficiency for a collective with `participants` ranks.
    ///
    /// Log-linear interpolation between the calibration anchors; extrapolates with the
    /// last segment's slope (floored at 0.25) beyond the largest anchor.
    #[must_use]
    pub fn cross_host_efficiency(&self, participants: usize) -> f64 {
        let anchors = CROSS_HOST_EFFICIENCY_ANCHORS;
        let w = (participants.max(2)) as f64;
        if w <= anchors[0].0 {
            return anchors[0].1;
        }
        for window in anchors.windows(2) {
            let (w0, e0) = window[0];
            let (w1, e1) = window[1];
            if w <= w1 {
                let t = (w.log2() - w0.log2()) / (w1.log2() - w0.log2());
                return e0 + t * (e1 - e0);
            }
        }
        let (w0, e0) = anchors[anchors.len() - 2];
        let (w1, e1) = anchors[anchors.len() - 1];
        let slope = (e1 - e0) / (w1.log2() - w0.log2());
        (e1 + slope * (w.log2() - w1.log2())).max(0.25)
    }

    /// Effective per-rank cross-host bandwidth (bytes/s) for a collective with
    /// `participants` ranks.
    #[must_use]
    pub fn cross_host_bandwidth(&self, participants: usize) -> f64 {
        self.cluster.spec().scale_out_bytes_per_sec()
            * self.cross_host_efficiency(participants)
            * self.cross_host_scale
    }

    /// Additional protocol efficiency applied to the cross-host stage of reduction
    /// collectives (AllReduce / ReduceScatter).
    #[must_use]
    pub fn reduction_protocol_efficiency(&self) -> f64 {
        ALLREDUCE_PROTOCOL_EFFICIENCY
    }

    /// Effective per-rank intra-host (NVLink) bandwidth in bytes/s.
    #[must_use]
    pub fn intra_host_bandwidth(&self) -> f64 {
        self.cluster.spec().scale_up_bytes_per_sec() * INTRA_HOST_EFFICIENCY * self.intra_host_scale
    }

    /// Effective per-rank bandwidth for data that stays on the device (a local copy).
    #[must_use]
    pub fn local_copy_bandwidth(&self) -> f64 {
        // Device-local shuffles read + write HBM, so half the raw memory bandwidth.
        self.cluster.spec().memory_bytes_per_sec() * 0.5
    }

    /// Fixed launch/software overhead per collective, in seconds.
    #[must_use]
    pub fn launch_overhead(&self) -> f64 {
        COLLECTIVE_LAUNCH_OVERHEAD_S
    }

    /// Per-message wire latency between members of `group` (the worst link class).
    #[must_use]
    pub fn group_latency(&self, group: &ProcessGroup) -> f64 {
        if group.is_intra_host(&self.cluster) {
            self.cluster.link_latency(LinkKind::IntraHost)
        } else {
            self.cluster.link_latency(LinkKind::CrossHost)
        }
    }

    /// The number of distinct hosts spanned by `group`.
    #[must_use]
    pub fn hosts_spanned(&self, group: &ProcessGroup) -> usize {
        let mut hosts: Vec<usize> = group
            .ranks()
            .iter()
            .map(|r| self.cluster.host_of(*r))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts.len()
    }

    /// Number of ranks of `group` co-located on each spanned host, assuming the group
    /// is host-symmetric (equal membership per spanned host).
    #[must_use]
    pub fn ranks_per_host(&self, group: &ProcessGroup) -> usize {
        let hosts = self.hosts_spanned(group).max(1);
        group.world_size().div_ceil(hosts)
    }

    /// Time to move `bytes` point-to-point over a link of the given kind at this
    /// model's effective bandwidth (no launch overhead). `participants` sets the scale
    /// point of the cross-host efficiency curve.
    #[must_use]
    pub fn p2p_time(&self, kind: LinkKind, bytes: u64, participants: usize) -> f64 {
        let bandwidth = match kind {
            LinkKind::Local => self.local_copy_bandwidth(),
            LinkKind::IntraHost => self.intra_host_bandwidth(),
            LinkKind::CrossHost => self.cross_host_bandwidth(participants),
        };
        bytes as f64 / bandwidth + self.cluster.link_latency(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_topology::HardwareGeneration;

    fn model(world: usize) -> CostModel {
        CostModel::new(ClusterTopology::standard(HardwareGeneration::A100, world).unwrap())
    }

    #[test]
    fn efficiency_decreases_with_scale() {
        let m = model(64);
        let mut prev = f64::INFINITY;
        for world in [8, 16, 32, 64, 128, 256, 512, 1024] {
            let e = m.cross_host_efficiency(world);
            assert!(e <= prev + 1e-12, "efficiency must be non-increasing");
            assert!((0.25..=1.0).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn efficiency_interpolates_between_anchors() {
        let m = model(64);
        let e64 = m.cross_host_efficiency(64);
        let e128 = m.cross_host_efficiency(128);
        let e96 = m.cross_host_efficiency(96);
        assert!(e96 < e64 && e96 > e128);
    }

    #[test]
    fn small_worlds_are_much_more_efficient_than_large_ones() {
        // This is the property SPTT's peer AlltoAll exploits: a 64-rank world achieves
        // noticeably more of the NIC than a 512-rank world.
        let m = model(512);
        assert!(m.cross_host_efficiency(64) / m.cross_host_efficiency(512) > 1.2);
    }

    #[test]
    fn intra_host_is_faster_than_cross_host() {
        let m = model(64);
        assert!(m.intra_host_bandwidth() > m.cross_host_bandwidth(16));
        assert!(m.local_copy_bandwidth() > m.intra_host_bandwidth());
    }

    #[test]
    fn cross_host_scale_applies() {
        let m = model(64);
        let half = m.clone().with_cross_host_scale(0.5);
        assert!((half.cross_host_bandwidth(64) - 0.5 * m.cross_host_bandwidth(64)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cross_host_scale_panics() {
        let _ = model(64).with_cross_host_scale(0.0);
    }

    #[test]
    fn intra_host_scale_applies() {
        let m = model(64);
        let slow = m.clone().with_intra_host_scale(0.1);
        assert!((slow.intra_host_bandwidth() - 0.1 * m.intra_host_bandwidth()).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_intra_host_scale_panics() {
        let _ = model(64).with_intra_host_scale(0.0);
    }

    #[test]
    fn hosts_spanned_and_ranks_per_host() {
        let m = model(64);
        let cluster = m.cluster().clone();
        let global = ProcessGroup::global(&cluster);
        assert_eq!(m.hosts_spanned(&global), 8);
        assert_eq!(m.ranks_per_host(&global), 8);
        let intra = &ProcessGroup::intra_host_groups(&cluster)[0];
        assert_eq!(m.hosts_spanned(intra), 1);
        assert_eq!(m.ranks_per_host(intra), 8);
        let peer = &ProcessGroup::peer_groups(&cluster)[0];
        assert_eq!(m.hosts_spanned(peer), 8);
        assert_eq!(m.ranks_per_host(peer), 1);
    }

    #[test]
    fn p2p_time_orders_by_link_class() {
        let m = model(64);
        let bytes = 64 * 1024 * 1024;
        let local = m.p2p_time(LinkKind::Local, bytes, 64);
        let intra = m.p2p_time(LinkKind::IntraHost, bytes, 64);
        let cross = m.p2p_time(LinkKind::CrossHost, bytes, 64);
        assert!(local < intra && intra < cross);
    }
}
