//! Declared exchanges and the one pair of node builders both lowerings emit
//! them through.
//!
//! Every `f32` collective of a lowered iteration is written down once, as
//! plain data: an [`AllToAll`] for each per-micro-batch exchange (rows, tower
//! outputs, gradients) and an [`AllReduce`] for each gradient synchronization.
//! A description names its world (a [`CommScope`], which is also the scope its
//! wait is logged under), its [`OpKind`], its node and wait labels and where
//! its payload lives. The builders turn it into graph nodes:
//!
//! * [`AllToAll::send`] — `[Quantize] → issue`,
//! * [`AllToAll::recv`] — `claim → [Dequantize]`,
//! * [`AllReduce::issue`] / [`AllReduce::claim`] — flatten the gradients and
//!   launch a quantized-wire AllReduce; wait, then write them back divided by
//!   the world size and the micro-batch count.
//!
//! The codec nodes appear only below FP32 wire precision, and that decision
//! lives here alone. AllReduces carry their codec inside the collective
//! (`all_reduce_cast`, NCCL-datatype-style), so no codec node wraps them.

use super::executor::IterationStats;
use super::graph::{decode_shards, encode_shards, IterationGraph, NodeMeta, OpKind};
use super::measure::{wait_logged, CommScope, WaitEntry};
use super::model::{flatten_grads, write_back_grads};
use super::{RankComms, StageId};
use dmt_comm::codec::WireFormat;
use dmt_comm::{Backend, PendingOp};
use dmt_data::Batch;
use dmt_metrics::auc::roc_auc;
use dmt_nn::param::HasParameters;

/// Everything one lowered iteration mutates: the lowering's rank state `L`,
/// its communicators, the wait log and one `M` per micro-batch.
pub(crate) struct Ctx<'a, L, M> {
    pub low: &'a mut L,
    pub comm: &'a mut RankComms,
    pub waits: &'a mut Vec<WaitEntry>,
    pub mbs: Vec<M>,
    /// `1 / micro-batches`: the weight that averages micro-batch gradients.
    pub inv_m: f32,
    pub loss_sum: f64,
    pub scores: Vec<f32>,
    pub labels: Vec<f32>,
}

impl<'a, L, M> Ctx<'a, L, M> {
    /// A fresh iteration over `mbs`, each micro-batch's state built by `mb`.
    pub fn new(
        low: &'a mut L,
        comm: &'a mut RankComms,
        waits: &'a mut Vec<WaitEntry>,
        mbs: Vec<Batch>,
        mb: impl Fn(Batch) -> M,
    ) -> Self {
        let m = mbs.len();
        Self {
            low,
            comm,
            waits,
            mbs: mbs.into_iter().map(mb).collect(),
            inv_m: 1.0 / m as f32,
            loss_sum: 0.0,
            scores: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The iteration's loss and AUC once its graph has run.
    pub fn stats(&self) -> IterationStats {
        IterationStats {
            loss: self.loss_sum,
            auc: roc_auc(&self.scores, &self.labels),
        }
    }
}

/// One micro-batch's side of a declared [`AllToAll`]: the payload staged for
/// sending, the op in flight and the payload received. The codec nodes
/// transcode `send` and `recv` in place.
#[derive(Default)]
pub(crate) struct Transfer {
    pub send: Vec<Vec<f32>>,
    pub op: Option<PendingOp<Vec<Vec<f32>>>>,
    pub recv: Vec<Vec<f32>>,
}

/// A per-micro-batch `f32` AlltoAll, declared once.
pub(crate) struct AllToAll<L, M> {
    /// The world it rides, and the scope its wait is logged under.
    pub world: CommScope,
    /// Kind of the issue and claim nodes.
    pub kind: OpKind,
    pub quantize: &'static str,
    pub issue: &'static str,
    pub claim: &'static str,
    pub dequantize: &'static str,
    /// Measured-segment label of the wait.
    pub wait: &'static str,
    /// The micro-batch's [`Transfer`] of this exchange.
    pub transfer: fn(&mut M) -> &mut Transfer,
    /// Elements the receiver expects from source rank `src` — what decoding
    /// the wire words needs.
    pub elements: fn(&L, &M, usize) -> usize,
}

impl<L, M> AllToAll<L, M> {
    /// Emits `[Quantize] → issue` for micro-batch `b`; returns the issue node.
    pub fn send<'g>(
        &'static self,
        g: &mut IterationGraph<'g, Ctx<'_, L, M>>,
        deps: &[StageId],
        b: usize,
        wire: WireFormat,
    ) -> StageId {
        let encoded;
        let deps = if wire.is_identity() {
            deps
        } else {
            encoded = [g.add(
                NodeMeta {
                    kind: OpKind::Quantize,
                    label: self.quantize,
                },
                deps,
                move |ctx: &mut Ctx<L, M>| {
                    let transfer = (self.transfer)(&mut ctx.mbs[b]);
                    transfer.send = encode_shards(wire, std::mem::take(&mut transfer.send));
                    Ok(())
                },
            )];
            &encoded
        };
        g.add(
            NodeMeta {
                kind: self.kind,
                label: self.issue,
            },
            deps,
            move |ctx: &mut Ctx<L, M>| {
                let transfer = (self.transfer)(&mut ctx.mbs[b]);
                let payload = std::mem::take(&mut transfer.send);
                transfer.op = Some(ctx.comm.world(self.world).all_to_all_nonblocking(payload));
                Ok(())
            },
        )
    }

    /// Emits `claim → [Dequantize]` for micro-batch `b`; returns the last node.
    pub fn recv<'g>(
        &'static self,
        g: &mut IterationGraph<'g, Ctx<'_, L, M>>,
        deps: &[StageId],
        b: usize,
        wire: WireFormat,
    ) -> StageId {
        let claimed = g.add(
            NodeMeta {
                kind: self.kind,
                label: self.claim,
            },
            deps,
            move |ctx: &mut Ctx<L, M>| {
                let transfer = (self.transfer)(&mut ctx.mbs[b]);
                let op = transfer.op.take().expect("exchange issued");
                let segment = self.kind.segment_kind();
                transfer.recv = wait_logged(op, ctx.waits, self.wait, segment, self.world)?;
                Ok(())
            },
        );
        if wire.is_identity() {
            return claimed;
        }
        g.add(
            NodeMeta {
                kind: OpKind::Dequantize,
                label: self.dequantize,
            },
            &[claimed],
            move |ctx: &mut Ctx<L, M>| {
                let mb = &mut ctx.mbs[b];
                let received = std::mem::take(&mut (self.transfer)(mb).recv);
                let low = &*ctx.low;
                let decoded = decode_shards(wire, received, |src| (self.elements)(low, mb, src))?;
                (self.transfer)(mb).recv = decoded;
                Ok(())
            },
        )
    }
}

/// A gradient AllReduce over one module of the lowering, declared once.
pub(crate) struct AllReduce<L, P> {
    /// The world it reduces over; its size is the gradient divisor.
    pub world: CommScope,
    pub issue: &'static str,
    pub claim: &'static str,
    /// Measured-segment label of the wait.
    pub wait: &'static str,
    /// The module whose gradients are reduced.
    pub module: fn(&mut L) -> &mut P,
    /// Where the op waits between its issue and claim nodes.
    pub op: fn(&mut L) -> &mut Option<PendingOp<Vec<f32>>>,
}

impl<L, P: HasParameters> AllReduce<L, P> {
    /// Emits the node that flattens the module's gradients and launches the
    /// AllReduce at `wire` precision.
    pub fn issue<'g, M>(
        &'static self,
        g: &mut IterationGraph<'g, Ctx<'_, L, M>>,
        deps: &[StageId],
        wire: WireFormat,
    ) -> StageId {
        g.add(
            NodeMeta {
                kind: OpKind::AllReduce,
                label: self.issue,
            },
            deps,
            move |ctx: &mut Ctx<L, M>| {
                let flat = flatten_grads((self.module)(ctx.low));
                let op = ctx
                    .comm
                    .world(self.world)
                    .all_reduce_cast_nonblocking(flat, wire);
                *(self.op)(ctx.low) = Some(op);
                Ok(())
            },
        )
    }

    /// Emits the node that waits for the AllReduce and writes the mean
    /// gradient back into the module.
    pub fn claim<'g, M>(
        &'static self,
        g: &mut IterationGraph<'g, Ctx<'_, L, M>>,
        deps: &[StageId],
    ) -> StageId {
        g.add(
            NodeMeta {
                kind: OpKind::AllReduce,
                label: self.claim,
            },
            deps,
            move |ctx: &mut Ctx<L, M>| {
                let op = (self.op)(ctx.low).take().expect("allreduce issued");
                let segment = OpKind::AllReduce.segment_kind();
                let flat = wait_logged(op, ctx.waits, self.wait, segment, self.world)?;
                let scale = ctx.inv_m / ctx.comm.world(self.world).world_size() as f32;
                write_back_grads((self.module)(ctx.low), &flat, scale);
                Ok(())
            },
        )
    }
}
