/**
 * @file
 * The unified parallelism representation (Sec. VI-A, Fig. 10).
 *
 * The Partitioner projects one operator under one ParallelSpec onto the
 * wafer: per-die compute, the per-die memory footprint of every training
 * state class, the collective communication the spec induces (with
 * concrete die groups from the GroupLayout) and, when TATP is active,
 * the tensor-stream descriptor the TATP executor consumes.
 *
 * This is the representation through which "precise identification of
 * communication contention both across parallel strategies and among
 * parallel groups" (paper) becomes possible: every collective task names
 * physical dies, so all flows can be analysed jointly.
 */
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "mem/memory_ledger.hpp"
#include "model/operator.hpp"
#include "net/collective.hpp"
#include "parallel/layout.hpp"
#include "parallel/spec.hpp"

namespace temp::parallel {

/// Global training recipe knobs (Sec. VIII-A).
struct TrainingOptions
{
    /// FlashAttention + online softmax (Fig. 12 ops 4-7): S^2 score and
    /// softmax tensors are neither stored for backward nor spilled to
    /// DRAM — they live in SRAM tiles and are recomputed.
    bool flash_attention = true;
    /// ZeRO-1 style distributed optimizer: optimizer state is
    /// additionally sharded across the data/sequence/context replicas
    /// (modern Megatron-3/FSDP default; Megatron-1 predates it).
    bool zero1_optimizer = true;
    double weight_bytes_per_elem = kBytesFp16;
    double act_bytes_per_elem = kBytesFp16;
    double grad_bytes_per_elem = kBytesFp16;
    /// FP32 master weights + FP32 Adam moments (4+4+4 bytes/param),
    /// the classic mixed-precision Adam recipe of Sec. VIII-A.
    double optimizer_bytes_per_param = 12.0;
};

/// TATP tensor-stream descriptor for one operator (consumed by tatp::).
struct TatpStream
{
    bool active = false;
    /// Stream degree == number of rounds == chain length.
    int degree = 1;
    /// Selective transfer policy outcome: stream weights or inputs
    /// (whichever is smaller, Sec. V).
    bool stream_weights = true;
    /// Bytes of the streamed tensor per TATP group (all sub-tensors).
    double group_tensor_bytes = 0.0;
    /// Per-round, per-link stream volume (one sub-tensor).
    double bytes_per_round = 0.0;
    /// Per-die compute per round, forward pass.
    double fwd_flops_per_round = 0.0;
    /// Per-die compute per round, backward pass.
    double bwd_flops_per_round = 0.0;
};

/**
 * Everything the cost model and simulator need to know about executing
 * one operator under one spec. All quantities are per *representative*
 * die (the layout is symmetric) and per single layer instance.
 */
struct OpExecution
{
    ParallelSpec spec;

    /// @{ Per-die FLOPs.
    double fwd_flops_per_die = 0.0;
    double bwd_flops_per_die = 0.0;
    /// @}

    /// @{ Per-die memory contributions of this operator (bytes).
    double weight_bytes = 0.0;
    double grad_bytes = 0.0;
    double optimizer_bytes = 0.0;
    double activation_bytes = 0.0;   ///< stored for backward
    double comm_buffer_bytes = 0.0;  ///< replicas/stream buffers
    /// @}

    /// @{ Per-die DRAM traffic (roofline memory term).
    double dram_bytes_fwd = 0.0;
    double dram_bytes_bwd = 0.0;
    /// @}

    /// Blocking collectives in the forward pass (all groups).
    std::vector<net::CollectiveTask> fwd_collectives;
    /// Blocking collectives in the backward pass (all groups).
    std::vector<net::CollectiveTask> bwd_collectives;
    /// Per-step gradient synchronisation (DP/SP/CP all-reduce, FSDP RS).
    std::vector<net::CollectiveTask> step_collectives;
    /// Collectives that overlap with this op's compute (CP's ring-style
    /// KV exchange): the cost model takes max(comp, overlap) not a sum.
    std::vector<net::CollectiveTask> overlap_collectives;

    /// TATP stream descriptor (active iff spec.tatp > 1 and op is GEMM).
    TatpStream tatp;

    /// Sum of per-die memory classes as a footprint record.
    mem::MemoryFootprint footprint() const;

    /// Total bytes crossing D2D links for energy accounting, excluding
    /// the TATP stream (which the TATP executor reports itself).
    double collectivePayloadBytes() const;
};

/// Communication tags used to attribute flows to parallel axes.
int axisTag(Axis axis);

/**
 * The collectives one operator induces under a spec, before placement:
 * each emission is `kind` over every group of `axis`, bound for one of
 * OpExecution's four task lists. analyze() expands them over a
 * layout's groups; volume estimates read them without placing
 * anything.
 */
struct CollectivePlan
{
    struct Emission
    {
        std::vector<net::CollectiveTask> OpExecution::*list;
        net::CollectiveKind kind;
        Axis axis;
        double bytes;
    };

    /// Ten at most: one TP all-reduce, SP's gather and scatter, CP's
    /// gather, FSDP's three, and the DP/SP/CP gradient all-reduces.
    std::array<Emission, 10> emissions{};
    std::size_t size = 0;

    std::span<const Emission> items() const
    {
        return {emissions.data(), size};
    }
};

/// The partitioner: stateless analysis of (operator, spec, layout).
class Partitioner
{
  public:
    explicit Partitioner(TrainingOptions options = TrainingOptions());

    /**
     * Analyses one operator under the layout's spec.
     *
     * @param op     The operator (one layer instance).
     * @param layout Spatial realisation of the spec on the wafer.
     */
    OpExecution analyze(const model::Operator &op,
                        const GroupLayout &layout) const;

    /**
     * analyze() without a layout: every per-die quantity and the TATP
     * stream, with the collectives left as `plan` (the four task
     * lists stay empty).
     */
    OpExecution analyzeUnplaced(const model::Operator &op,
                                const ParallelSpec &spec,
                                CollectivePlan &plan) const;

    const TrainingOptions &options() const { return options_; }

    /**
     * Factor by which this op's *output activation* is sharded across
     * the wafer under the spec (used for memory and resharding).
     */
    double activationShardFactor(const model::Operator &op,
                                 const ParallelSpec &spec) const;

  private:
    TrainingOptions options_;
};

/**
 * Resharding cost between two consecutive operators with different
 * specs: the producer's output (`out_bytes`) must be redistributed to
 * match the consumer's expected sharding (Eq. 3's inter-operator P2P
 * term). Returns the per-die P2P byte volume of two *distinct* specs
 * of total degrees `from_degree` and `to_degree` (specs that agree
 * move nothing; the caller decides that).
 */
double reshardBytesPerDie(double out_bytes, int from_degree, int to_degree);

}  // namespace temp::parallel
