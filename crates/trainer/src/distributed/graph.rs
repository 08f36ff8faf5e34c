//! The iteration-graph IR: one typed DAG of ops that both deployments lower onto.
//!
//! An iteration of either deployment — hybrid-parallel baseline or DMT — is the
//! *same* training step expressed over different topology-aware communication
//! patterns. This module makes that literal: a lowering (see
//! [`super::baseline`] / [`super::dmt`]) emits an [`IterationGraph`] whose nodes
//! are typed [`OpKind`]s (index exchanges, row exchanges, tower compute,
//! gradient synchronization, quantize/dequantize codec steps, …), and one
//! scheduler — the deterministic list schedule of [`super::pipeline::StageGraph`]
//! — executes any graph under either [`super::config::ScheduleMode`]. The
//! schedule is encoded purely in node *order*: the sync lowering places every
//! `wait` directly after its `issue`, the pipelined lowering stretches the
//! distance between them so micro-batch `b+1`'s transfers ride under micro-batch
//! `b`'s compute.
//!
//! The declarative side of the same IR is the [`SpecNode`] sequence
//! ([`baseline_engine_spec`] / [`dmt_engine_spec`]): for each deployment, the
//! ordered communication segments an
//! iteration produces — kind, label, communicator scope, collective and wire
//! precision — independent of any rank state. It is the single source of truth
//! three consumers share:
//!
//! * the execution engine's measured segments are asserted against it (tests),
//! * the analytical simulator prices its per-segment payloads through the same
//!   [`price_comm`] the calibration twin uses,
//! * wire-byte expectations derive from [`dmt_comm::WireFormat::encoded_bytes`]
//!   instead of parallel arithmetic.

use super::config::DistributedError;
use super::measure::CommScope;
use super::pipeline::{StageGraph, StageId};
use dmt_comm::codec::{self, WireFormat};
use dmt_comm::{CommError, CommOp};
use dmt_commsim::{collectives, CollectiveEstimate, CostModel, Quantization, SegmentKind};
use dmt_topology::ProcessGroup;
use serde::{Deserialize, Serialize};

/// What a graph node *does* — the op vocabulary of the IR.
///
/// The README's architecture table enumerates which link class each comm kind
/// rides per deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Local sharded-table work: routing requests, answering them, pooling rows.
    EmbeddingLookup,
    /// AlltoAll of sparse indices / request keys (`u64` payload, never quantized).
    IndexExchange,
    /// AlltoAll of raw embedding rows (`f32` payload, quantizable).
    RowExchange,
    /// AlltoAll of compressed tower outputs or their gradients (`f32`, quantizable).
    OutputExchange,
    /// AlltoAll of embedding-row gradients back to their owners (`f32`, quantizable).
    GradExchange,
    /// Tower-module forward over the combined tower batch.
    TowerForward,
    /// Tower-module backward.
    TowerBackward,
    /// Replicated dense-stack forward + backward on the local (micro-)batch.
    DenseForwardBackward,
    /// Gradient AllReduce (dense or tower-module parameters; wire-quantizable).
    AllReduce,
    /// Encode an `f32` payload into reduced-precision wire words ([`dmt_comm::codec`]).
    Quantize,
    /// Decode received wire words back to `f32`.
    Dequantize,
    /// Device-local permute / shuffle (simulator-only segment).
    Shuffle,
    /// Optimizer step and other host-side overhead.
    Optimizer,
}

impl OpKind {
    /// The latency category this kind lands in on an
    /// [`dmt_commsim::IterationTimeline`].
    #[must_use]
    pub fn segment_kind(self) -> SegmentKind {
        match self {
            OpKind::EmbeddingLookup
            | OpKind::TowerForward
            | OpKind::TowerBackward
            | OpKind::DenseForwardBackward
            | OpKind::Quantize
            | OpKind::Dequantize => SegmentKind::Compute,
            OpKind::IndexExchange
            | OpKind::RowExchange
            | OpKind::OutputExchange
            | OpKind::GradExchange => SegmentKind::EmbeddingComm,
            OpKind::AllReduce => SegmentKind::DenseSync,
            OpKind::Shuffle => SegmentKind::Shuffle,
            OpKind::Optimizer => SegmentKind::Other,
        }
    }

    /// Whether this kind moves bytes over a communicator world.
    #[must_use]
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            OpKind::IndexExchange
                | OpKind::RowExchange
                | OpKind::OutputExchange
                | OpKind::GradExchange
                | OpKind::AllReduce
        )
    }

    /// Whether this kind's payload is `f32` data the wire codec may quantize
    /// (index exchanges carry `u64` ids and always ride at native width).
    #[must_use]
    pub fn is_quantizable(self) -> bool {
        matches!(
            self,
            OpKind::RowExchange | OpKind::OutputExchange | OpKind::GradExchange | OpKind::AllReduce
        )
    }
}

/// Static description of one graph node: what it is and how it shows up in
/// measured timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMeta {
    /// The op vocabulary entry.
    pub kind: OpKind,
    /// Scheduling label (also the debug name in stage errors).
    pub label: &'static str,
}

/// A typed iteration DAG over a mutable rank context `C`.
///
/// Thin IR layer over [`StageGraph`]: every node carries a [`NodeMeta`] so the
/// lowered graph is introspectable (op census, quantization-node placement),
/// while scheduling and dependency validation stay in the one list scheduler.
pub struct IterationGraph<'a, C> {
    stages: StageGraph<'a, C>,
    metas: Vec<NodeMeta>,
}

impl<C> Default for IterationGraph<'_, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, C> IterationGraph<'a, C> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stages: StageGraph::new(),
            metas: Vec::new(),
        }
    }

    /// Appends a node with `meta` depending on `deps`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency does not precede this node in the list (see
    /// [`StageGraph::add`]).
    pub fn add(
        &mut self,
        meta: NodeMeta,
        deps: &[StageId],
        run: impl FnOnce(&mut C) -> Result<(), DistributedError> + 'a,
    ) -> StageId {
        self.metas.push(meta);
        self.stages.add(meta.label, deps, run)
    }

    /// The metas of every node, in schedule order.
    #[must_use]
    pub fn ops(&self) -> &[NodeMeta] {
        &self.metas
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Executes every node in list order against `ctx` (see [`StageGraph::run`]).
    ///
    /// # Errors
    ///
    /// Propagates the first node failure (configuration errors are annotated
    /// with the failing node's label; transport and tensor errors keep their
    /// own type so callers can still match on them).
    pub fn run(self, ctx: &mut C) -> Result<(), DistributedError> {
        self.stages.run(ctx)
    }
}

/// One declared segment of a lowered iteration: the IR's data-only view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpecNode {
    /// Op vocabulary entry.
    pub kind: OpKind,
    /// Measured-segment label this node produces.
    pub label: &'static str,
    /// Communicator world the bytes ride ([`CommScope::Local`] for compute).
    pub scope: CommScope,
    /// The collective executed, `None` for compute/overhead segments.
    pub comm: Option<CommOp>,
    /// Wire precision of the payload ([`Quantization::Fp32`] where the codec
    /// does not apply — index exchanges, compute).
    pub wire: Quantization,
    /// Declared payload in FP32 bytes per rank (the quantity the wire precision
    /// scales). Zero for compute segments and for engine specs, whose payloads
    /// are measured rather than declared.
    pub fp32_bytes: u64,
    /// Declared local duration in seconds for compute/shuffle/overhead segments
    /// (ignored for comm segments, whose time is priced from bytes).
    pub local_time_s: f64,
    /// Exposure fraction the analytical simulator assumes for this segment.
    pub exposed: f64,
}

impl SpecNode {
    /// A communication spec node.
    #[must_use]
    pub fn comm(
        kind: OpKind,
        label: &'static str,
        scope: CommScope,
        comm: CommOp,
        wire: Quantization,
        fp32_bytes: u64,
        exposed: f64,
    ) -> Self {
        Self {
            kind,
            label,
            scope,
            comm: Some(comm),
            wire: if kind.is_quantizable() {
                wire
            } else {
                Quantization::Fp32
            },
            fp32_bytes,
            local_time_s: 0.0,
            exposed,
        }
    }

    /// A local (compute / shuffle / overhead) spec node of a fixed duration.
    #[must_use]
    pub fn local(kind: OpKind, label: &'static str, time_s: f64) -> Self {
        Self {
            kind,
            label,
            scope: CommScope::Local,
            comm: None,
            wire: Quantization::Fp32,
            fp32_bytes: 0,
            local_time_s: time_s,
            exposed: 1.0,
        }
    }

    /// Declared on-wire bytes: the FP32 payload scaled to the node's wire
    /// precision — the one place this arithmetic lives.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        self.wire.scale_fp32_bytes(self.fp32_bytes)
    }
}

/// Prices one collective of `bytes` per-rank payload over `group` with the α–β
/// model — the shared op→estimate mapping of the analytical simulator
/// ([`crate::simulation`]) and the calibration twin
/// ([`super::calibrate::predicted_timeline`]).
#[must_use]
pub fn price_comm(
    model: &CostModel,
    group: &ProcessGroup,
    op: CommOp,
    bytes: u64,
) -> CollectiveEstimate {
    match op {
        CommOp::AllReduce => collectives::all_reduce(model, group, bytes),
        CommOp::AllToAll | CommOp::AllToAllIndices | CommOp::Barrier => {
            collectives::all_to_all(model, group, bytes)
        }
    }
}

/// Maps the simulator's wire-precision vocabulary onto the executable codec's
/// (FP8 is carried by the int8 codec: 1 byte per element on the wire).
#[must_use]
pub fn wire_format(quant: Quantization) -> WireFormat {
    match quant {
        Quantization::Fp32 => WireFormat::Fp32,
        Quantization::Fp16 => WireFormat::Fp16,
        Quantization::Fp8 | Quantization::Int8 => WireFormat::Int8,
    }
}

/// Encodes each destination shard of an AlltoAll payload at `wire` precision
/// (identity — no copy — at FP32).
#[must_use]
pub(crate) fn encode_shards(wire: WireFormat, shards: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    if wire.is_identity() {
        return shards;
    }
    shards
        .into_iter()
        .map(|shard| codec::encode(wire, shard))
        .collect()
}

/// Decodes each received shard of an AlltoAll payload, with `elements(src)`
/// supplying the receiver-known element count per source rank.
pub(crate) fn decode_shards(
    wire: WireFormat,
    shards: Vec<Vec<f32>>,
    elements: impl Fn(usize) -> usize,
) -> Result<Vec<Vec<f32>>, CommError> {
    if wire.is_identity() {
        return Ok(shards);
    }
    shards
        .into_iter()
        .enumerate()
        .map(|(src, shard)| codec::decode(wire, shard, elements(src)))
        .collect()
}

/// The declared segment sequence of one **sync-scheduled baseline** iteration —
/// what [`super::run_baseline`] measures, in order. Engine specs declare
/// structure (kind, label, scope, collective, wire precision); payload bytes are
/// measured at run time, so `fp32_bytes` is zero here.
#[must_use]
pub fn baseline_engine_spec(wire: Quantization) -> Vec<SpecNode> {
    use CommOp::{AllReduce, AllToAll, AllToAllIndices};
    vec![
        SpecNode::local(OpKind::DenseForwardBackward, "dense + sparse compute", 0.0),
        SpecNode::comm(
            OpKind::IndexExchange,
            "feature distribution AlltoAll",
            CommScope::Global,
            AllToAllIndices,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::RowExchange,
            "embedding row fetch AlltoAll (fwd)",
            CommScope::Global,
            AllToAll,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::GradExchange,
            "embedding gradient AlltoAll (bwd)",
            CommScope::Global,
            AllToAll,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::AllReduce,
            "dense gradient AllReduce",
            CommScope::Global,
            AllReduce,
            wire,
            0,
            1.0,
        ),
        SpecNode::local(OpKind::Optimizer, "optimizer + host overhead", 0.0),
    ]
}

/// The declared segment sequence of one **sync-scheduled DMT** iteration — what
/// [`super::run_dmt`] measures, in order. The intra-host index and row-fetch
/// exchanges share one label (they form a single lookup round trip and are
/// merged into one measured segment), so the row-fetch entry stands for both.
#[must_use]
pub fn dmt_engine_spec(wire: Quantization) -> Vec<SpecNode> {
    use CommOp::{AllReduce, AllToAll, AllToAllIndices};
    vec![
        SpecNode::local(
            OpKind::DenseForwardBackward,
            "dense + tower-module compute",
            0.0,
        ),
        SpecNode::comm(
            OpKind::IndexExchange,
            "peer index distribution AlltoAll",
            CommScope::Peer,
            AllToAllIndices,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::RowExchange,
            "intra-host row fetch AlltoAll (fwd)",
            CommScope::IntraHost,
            AllToAll,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::OutputExchange,
            "peer tower-output AlltoAll (fwd)",
            CommScope::Peer,
            AllToAll,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::OutputExchange,
            "peer tower-grad AlltoAll (bwd)",
            CommScope::Peer,
            AllToAll,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::GradExchange,
            "intra-host gradient AlltoAll (bwd)",
            CommScope::IntraHost,
            AllToAll,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::AllReduce,
            "tower-module intra-host AllReduce",
            CommScope::IntraHost,
            AllReduce,
            wire,
            0,
            1.0,
        ),
        SpecNode::comm(
            OpKind::AllReduce,
            "dense gradient AllReduce",
            CommScope::Global,
            AllReduce,
            wire,
            0,
            1.0,
        ),
        SpecNode::local(OpKind::Optimizer, "optimizer + host overhead", 0.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_nodes_carry_meta_and_run_in_order() {
        let mut graph: IterationGraph<Vec<OpKind>> = IterationGraph::new();
        let a = graph.add(
            NodeMeta {
                kind: OpKind::EmbeddingLookup,
                label: "lookup",
            },
            &[],
            |log| {
                log.push(OpKind::EmbeddingLookup);
                Ok(())
            },
        );
        graph.add(
            NodeMeta {
                kind: OpKind::Quantize,
                label: "quantize",
            },
            &[a],
            |log| {
                log.push(OpKind::Quantize);
                Ok(())
            },
        );
        assert_eq!(graph.len(), 2);
        assert_eq!(graph.ops()[1].kind, OpKind::Quantize);
        let mut log = Vec::new();
        graph.run(&mut log).unwrap();
        assert_eq!(log, vec![OpKind::EmbeddingLookup, OpKind::Quantize]);
    }

    #[test]
    fn quantizable_kinds_scale_spec_bytes_and_index_kinds_do_not() {
        let rows = SpecNode::comm(
            OpKind::RowExchange,
            "rows",
            CommScope::Global,
            CommOp::AllToAll,
            Quantization::Fp16,
            1000,
            1.0,
        );
        assert_eq!(rows.wire_bytes(), 500);
        let idx = SpecNode::comm(
            OpKind::IndexExchange,
            "idx",
            CommScope::Global,
            CommOp::AllToAllIndices,
            Quantization::Fp16,
            1000,
            1.0,
        );
        assert_eq!(idx.wire_bytes(), 1000, "index payloads ride native width");
    }

    #[test]
    fn engine_specs_cover_both_deployments() {
        let baseline = baseline_engine_spec(Quantization::Fp32);
        assert_eq!(baseline.len(), 6);
        assert!(baseline.iter().filter(|n| n.kind.is_comm()).count() == 4);
        let dmt = dmt_engine_spec(Quantization::Fp16);
        assert_eq!(dmt.len(), 9);
        // Peer exchanges ride the peer scope; the lookup round trip is intra-host.
        assert!(dmt
            .iter()
            .filter(|n| n.scope == CommScope::Peer)
            .all(|n| n.kind != OpKind::AllReduce));
        // At fp16 the index exchange stays at native width.
        assert_eq!(dmt[1].wire, Quantization::Fp32);
        assert_eq!(dmt[2].wire, Quantization::Fp16);
    }

    #[test]
    fn codec_shard_helpers_round_trip() {
        let shards = vec![vec![1.0f32, -2.0, 3.5], vec![], vec![0.25]];
        let lens = [3usize, 0, 1];
        let encoded = encode_shards(WireFormat::Fp16, shards.clone());
        assert_eq!(encoded[0].len(), 2);
        let decoded = decode_shards(WireFormat::Fp16, encoded, |src| lens[src]).unwrap();
        assert_eq!(decoded, shards, "these values are exact in fp16");
        // FP32 is the identity.
        let decoded = decode_shards(WireFormat::Fp32, shards.clone(), |src| lens[src]).unwrap();
        assert_eq!(decoded, shards);
    }
}
