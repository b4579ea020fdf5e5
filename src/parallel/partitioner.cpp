#include "parallel/partitioner.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace temp::parallel {

using model::OpType;
using model::Operator;
using model::TpRole;
using net::CollectiveKind;
using net::CollectiveTask;

mem::MemoryFootprint
OpExecution::footprint() const
{
    mem::MemoryFootprint fp;
    fp[mem::MemClass::Weights] = weight_bytes;
    fp[mem::MemClass::Gradients] = grad_bytes;
    fp[mem::MemClass::OptimizerState] = optimizer_bytes;
    fp[mem::MemClass::Activations] = activation_bytes;
    fp[mem::MemClass::CommBuffers] = comm_buffer_bytes;
    return fp;
}

double
OpExecution::collectivePayloadBytes() const
{
    double total = 0.0;
    auto add = [&total](const std::vector<CollectiveTask> &tasks) {
        for (const CollectiveTask &task : tasks) {
            const double n = static_cast<double>(task.size());
            if (n <= 1.0)
                continue;
            switch (task.kind) {
              case CollectiveKind::AllReduce:
                total += 2.0 * (n - 1.0) * task.bytes;
                break;
              case CollectiveKind::AllGather:
              case CollectiveKind::ReduceScatter:
                total += (n - 1.0) * task.bytes;
                break;
              case CollectiveKind::Broadcast:
                total += (n - 1.0) * task.bytes;
                break;
              case CollectiveKind::P2P:
                total += task.bytes;
                break;
            }
        }
    };
    add(fwd_collectives);
    add(bwd_collectives);
    add(step_collectives);
    return total;
}

int
axisTag(Axis axis)
{
    return 1000 + static_cast<int>(axis);
}

Partitioner::Partitioner(TrainingOptions options) : options_(options) {}

double
Partitioner::activationShardFactor(const Operator &op,
                                   const ParallelSpec &spec) const
{
    // Batch/sequence-style splits shard every activation.
    double factor =
        spec.dp * spec.fsdp * spec.sp * spec.cp * spec.tatp;
    switch (op.tp_role) {
      case TpRole::ColumnParallel:
      case TpRole::HeadParallel:
        factor *= spec.tp;  // output lives K-split / head-split
        break;
      case TpRole::RowParallel:
      case TpRole::SequenceRegion:
        // Row-parallel outputs are replicated across TP after the
        // all-reduce; the norm/residual region likewise — unless
        // Megatron-3 coupled SP reduce-scatters them along M.
        if (spec.coupled_sp)
            factor *= spec.tp;
        break;
    }
    return factor;
}

OpExecution
Partitioner::analyze(const Operator &op, const GroupLayout &layout) const
{
    CollectivePlan plan;
    OpExecution exec = analyzeUnplaced(op, layout.spec(), plan);
    // Each list is reserved once at its exact size; tasks copy the
    // layout's group handles, not die lists.
    for (auto list : {&OpExecution::fwd_collectives,
                      &OpExecution::bwd_collectives,
                      &OpExecution::step_collectives,
                      &OpExecution::overlap_collectives}) {
        std::size_t count = 0;
        for (const CollectivePlan::Emission &e : plan.items())
            if (e.list == list)
                count += layout.groups(e.axis).size();
        (exec.*list).reserve(count);
    }
    for (const CollectivePlan::Emission &e : plan.items())
        for (const hw::DieGroup *group : layout.handles(e.axis))
            (exec.*e.list).push_back(
                {e.kind, axisTag(e.axis), e.bytes, group});
    return exec;
}

OpExecution
Partitioner::analyzeUnplaced(const Operator &op, const ParallelSpec &spec,
                             CollectivePlan &plan) const
{
    OpExecution exec;
    exec.spec = spec;
    plan.size = 0;

    const double d = spec.dp;
    const double f = spec.fsdp;
    const double t = spec.tp;
    const double s = spec.sp;
    const double c = spec.cp;
    const double g = spec.tatp;

    // --- Compute split -------------------------------------------------
    // Batch-style axes (dp/fsdp/sp/cp/tatp) split every operator's work;
    // tp additionally splits GEMM-family work but leaves the
    // norm/residual region replicated across the TP group (the
    // redundancy Megatron-3 pointed out).
    double comp_split = d * f * s * c * g;
    if (op.tp_role != TpRole::SequenceRegion || spec.coupled_sp)
        comp_split *= t;
    exec.fwd_flops_per_die = op.forwardFlops() / comp_split;
    exec.bwd_flops_per_die = op.backwardFlops() / comp_split;

    // --- Parameter state -----------------------------------------------
    const double weight_shards = t * g * f;
    if (op.has_weight) {
        const double params = op.n * op.k;
        exec.weight_bytes =
            params * options_.weight_bytes_per_elem / weight_shards;
        exec.grad_bytes =
            params * options_.grad_bytes_per_elem / weight_shards;
        // ZeRO-1 shards optimizer state across the replica axes too.
        const double opt_shards =
            weight_shards * (options_.zero1_optimizer ? d * s * c : 1.0);
        exec.optimizer_bytes =
            params * options_.optimizer_bytes_per_param / opt_shards;
    }

    // --- Activations stored for backward -------------------------------
    const bool flash_skipped =
        options_.flash_attention &&
        (op.type == OpType::Softmax || op.type == OpType::AttentionScore);
    if (!flash_skipped) {
        exec.activation_bytes =
            op.outputBytes(options_.act_bytes_per_elem) /
            activationShardFactor(op, spec);
    }

    // --- DRAM traffic (roofline term) -----------------------------------
    // With FlashAttention the S^2 score/softmax tensors never leave
    // SRAM: attention ops only stream their Q/K/V-sized operands.
    double dram_fwd =
        op.forwardDramBytes(options_.act_bytes_per_elem) / comp_split;
    if (options_.flash_attention) {
        const double bpe = options_.act_bytes_per_elem;
        if (op.type == OpType::Softmax) {
            dram_fwd = 0.0;  // fused into the attention SRAM loop
        } else if (op.type == OpType::AttentionScore) {
            // Read Q [b,m,n] and K [b,n,k]; the S^2 output stays local.
            dram_fwd = (op.b * op.m * op.n + op.b * op.n * op.k) * bpe /
                       comp_split;
        } else if (op.type == OpType::AttentionContext) {
            // Read V [b,n,k], write O [b,m,k]; S^2 input stays local.
            dram_fwd = (op.b * op.n * op.k + op.b * op.m * op.k) * bpe /
                       comp_split;
        }
    }
    exec.dram_bytes_fwd = dram_fwd;
    exec.dram_bytes_bwd = 2.0 * dram_fwd;

    // --- Collectives ----------------------------------------------------
    // Per-group activation bytes: the tensor slice a single parallel
    // group works on (other axes already sharded it).
    const double batch_split = d * f * s * c * g;
    const double out_bytes_group =
        op.outputBytes(options_.act_bytes_per_elem) / batch_split;
    const double in_bytes_group =
        op.inputBytes(options_.act_bytes_per_elem) / batch_split;

    // Each emission is one collective over every group of an axis.
    auto emit = [&plan](std::vector<CollectiveTask> OpExecution::*list,
                        CollectiveKind kind, Axis axis, double bytes) {
        if (bytes > 0.0)
            plan.emissions[plan.size++] = {list, kind, axis, bytes};
    };
    constexpr auto fwd = &OpExecution::fwd_collectives;
    constexpr auto bwd = &OpExecution::bwd_collectives;
    constexpr auto step = &OpExecution::step_collectives;
    constexpr auto overlap = &OpExecution::overlap_collectives;

    if (spec.tp > 1) {
        if (op.tp_role == TpRole::RowParallel) {
            // Megatron "g" operator: sum partial products forward.
            emit(fwd, CollectiveKind::AllReduce, Axis::TP, out_bytes_group);
        } else if (op.tp_role == TpRole::ColumnParallel) {
            // Megatron "f" operator: reduce input gradients backward.
            emit(bwd, CollectiveKind::AllReduce, Axis::TP, in_bytes_group);
        }
    }

    // Attention needs the full K/V sequence; SP gathers it with an
    // exposed all-gather, CP exchanges it ring-style overlapped with the
    // attention compute (Sec. II-A / Fig. 17 discussion).
    const bool attention_op = op.type == OpType::AttentionScore ||
                              op.type == OpType::AttentionContext;
    if (attention_op && (spec.sp > 1 || spec.cp > 1)) {
        // The K (resp. V) operand is the op's [b, n, k] "weight side";
        // dp/fsdp/tatp shard its batch, tp shards its heads.
        const double kv_operand_bytes =
            op.b * op.n * op.k * options_.act_bytes_per_elem /
            (d * f * g * t);
        if (spec.sp > 1) {
            emit(fwd, CollectiveKind::AllGather, Axis::SP,
                 kv_operand_bytes / (s * c));
            emit(bwd, CollectiveKind::ReduceScatter, Axis::SP,
                 kv_operand_bytes / c);
        }
        if (spec.cp > 1) {
            emit(overlap, CollectiveKind::AllGather, Axis::CP,
                 kv_operand_bytes / (s * c));
        }
    }

    if (spec.fsdp > 1 && op.has_weight) {
        // Un-shard weights before use (fwd) and again for backward;
        // reduce-scatter the gradients at step end.
        const double weight_shard_bytes =
            op.n * op.k * options_.weight_bytes_per_elem / (t * g * f);
        emit(fwd, CollectiveKind::AllGather, Axis::FSDP, weight_shard_bytes);
        emit(bwd, CollectiveKind::AllGather, Axis::FSDP, weight_shard_bytes);
        emit(step, CollectiveKind::ReduceScatter, Axis::FSDP,
             op.n * op.k * options_.grad_bytes_per_elem / (t * g));
        // Transient full-weight buffer while the op executes.
        exec.comm_buffer_bytes +=
            op.n * op.k * options_.weight_bytes_per_elem / (t * g) *
            (1.0 - 1.0 / f);
    }

    // Weights are replicated across dp, sp and cp; each of those axes
    // needs a gradient all-reduce at step end (this is "CP's weight
    // replication" cost the paper contrasts TATP against).
    if (op.has_weight) {
        const double grad_shard_bytes =
            op.n * op.k * options_.grad_bytes_per_elem / (t * g * f);
        for (Axis axis : {Axis::DP, Axis::SP, Axis::CP}) {
            if (spec.degree(axis) <= 1)
                continue;
            emit(step, CollectiveKind::AllReduce, axis, grad_shard_bytes);
        }
    }

    // --- TATP stream -----------------------------------------------------
    if (spec.tatp > 1 && op.isGemm()) {
        TatpStream &stream = exec.tatp;
        stream.active = true;
        stream.degree = spec.tatp;

        // Selective transfer policy (Sec. V): stream whichever operand
        // is smaller once the other axes have sharded it. Activations
        // are sharded by batch-style axes; weights by tp/fsdp only.
        const double input_group_bytes =
            op.inputBytes(options_.act_bytes_per_elem) / (d * f * c * s);
        const double wside_full =
            (op.has_weight ? op.n * op.k : op.b * op.n * op.k) *
            options_.weight_bytes_per_elem;
        const double wside_group_bytes =
            wside_full / (op.has_weight ? (t * f) : (d * f * c * s * t));
        stream.stream_weights = wside_group_bytes <= input_group_bytes;
        stream.group_tensor_bytes =
            std::min(wside_group_bytes, input_group_bytes);
        stream.bytes_per_round = stream.group_tensor_bytes / g;
        stream.fwd_flops_per_round = exec.fwd_flops_per_die / g;
        stream.bwd_flops_per_round = exec.bwd_flops_per_die / g;

        // Bidirectional relay holds up to ~half the streamed tensor in
        // flight on the worst die (validated against the orchestrator
        // simulation in tests/tatp_test.cpp), plus double buffering.
        const double held_shards =
            std::floor(static_cast<double>(spec.tatp) / 2.0 - 1.0) + 2.0;
        exec.comm_buffer_bytes +=
            std::max(0.0, held_shards) * stream.bytes_per_round;
    }

    return exec;
}

double
reshardBytesPerDie(double out_bytes, int from_degree, int to_degree)
{
    // The producer's output is laid out by `from`; the consumer expects
    // `to`. In the worst case every die exchanges its full local shard;
    // the overlap of the two shardings reduces the moved fraction. We
    // approximate the moved fraction by the normalised difference of the
    // shard factors (identical factors with different axis mixes still
    // move about half the tensor).
    const double fa = std::max(1.0, static_cast<double>(from_degree));
    const double fb = std::max(1.0, static_cast<double>(to_degree));
    const double per_die_from = out_bytes / fa;
    const double per_die_to = out_bytes / fb;
    const double moved = 0.5 * (per_die_from + per_die_to);
    return moved;
}

}  // namespace temp::parallel
