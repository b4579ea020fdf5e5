/**
 * @file
 * The wafer-centric cost model (Sec. VII-A).
 *
 * Implements the paper's Eq. (2)-(4):
 *   T_intra(Op)  = Collective(Op) + max(Comp(Op), P2P(Op))
 *   T_inter(a,b) = P2P(a, b)                 (resharding transfers)
 *   T_total      = sum T_intra + sum T_inter
 *
 * Collective times come from lowering the partitioner's tasks onto the
 * fabric (all groups concurrently, so cross-group and cross-axis
 * contention is captured) and evaluating them under the link-level
 * contention model; the TATP stream is the overlappable P2P term.
 */
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>

#include "cost/compute_model.hpp"
#include "cost/power_model.hpp"
#include "hw/wafer.hpp"
#include "model/graph.hpp"
#include "net/collective.hpp"
#include "parallel/partitioner.hpp"
#include "tatp/chain_mapper.hpp"
#include "tatp/executor.hpp"
#include "tcme/mapping_policy.hpp"
#include "tcme/optimizer.hpp"

namespace temp::cost {

/// Full timing/energy breakdown for one operator instance.
struct OpCostBreakdown
{
    bool feasible = true;  ///< false when faults partition a route

    double fwd_time = 0.0;        ///< forward wall time
    double bwd_time = 0.0;        ///< backward wall time
    double step_comm_time = 0.0;  ///< exposed share of grad-sync comm

    double comp_time = 0.0;        ///< pure compute, fwd+bwd
    double collective_time = 0.0;  ///< blocking collectives, fwd+bwd
    double stream_comm_time = 0.0; ///< TATP per-round comm (overlappable)
    double exposed_comm = 0.0;     ///< communication not hidden
    double tail_latency = 0.0;     ///< multi-hop stream penalty

    double d2d_link_bytes = 0.0;  ///< fabric occupancy (energy)
    double dram_bytes = 0.0;      ///< per-wafer DRAM traffic
    double flops = 0.0;           ///< per-wafer executed FLOPs
    double bw_utilization = 0.0;  ///< during communication phases

    /// Wall time of the operator in one training step.
    double total() const { return fwd_time + bwd_time + step_comm_time; }
};

/**
 * An op's gradient-sync collectives timed as a phase of their own: the
 * per-op share of step communication the DP matrix charges. The
 * simulator times a layer's step tasks jointly instead.
 */
struct StepPhase
{
    double time_s = 0.0;       ///< +inf when a route is partitioned
    double bytes = 0.0;        ///< payload bytes: the utilisation weight
    double utilization = 0.0;  ///< bandwidth utilisation of the phase
    double link_bytes = 0.0;   ///< bytes x hops (energy)
};

/**
 * One operator's costed execution under a spec: the breakdown without
 * step collectives plus its own step phase, and the analysis fields the
 * training simulator reads besides. The one op-level memo: the DP
 * matrix reads withStep(), the simulator the breakdown.
 */
struct OpCell
{
    OpCostBreakdown breakdown;  ///< include_step = false
    /// Phase bytes that weight breakdown.bw_utilization, so the step
    /// phase can be blended in.
    double comm_bytes = 0.0;
    StepPhase step;  ///< untimed when the breakdown is infeasible
    mem::MemoryFootprint footprint;
    std::vector<net::CollectiveTask> step_tasks;
    double activation_bytes = 0.0;

    /**
     * The cell's DP matrix entry, opCost(..., include_step=true): the
     * breakdown with the step phase added last (link bytes,
     * step_comm_time into exposed_comm, the utilisation blend).
     */
    OpCostBreakdown withStep() const;
};

/// Exact key of an OpCell: graph fingerprint, op index and spec. The
/// layout memo uses the same key with op_index kLayoutOp.
struct OpCellKey
{
    static constexpr int kLayoutOp = -1;

    std::uint64_t graph_fp = 0;
    int op_index = 0;
    parallel::ParallelSpec spec;

    bool operator==(const OpCellKey &other) const = default;
};

struct OpCellKeyHash
{
    std::size_t operator()(const OpCellKey &key) const;
};

/// The cost model: (operator, layout) -> OpCostBreakdown.
class WaferCostModel
{
  public:
    /**
     * @param wafer Physical substrate (faults included).
     * @param policy Mapping engine behaviour (axis order, optimizer).
     * @param options Training recipe.
     */
    WaferCostModel(const hw::Wafer &wafer, tcme::MappingPolicy policy,
                   parallel::TrainingOptions options =
                       parallel::TrainingOptions());

    /// Unregisters the fault listener (see constructor).
    ~WaferCostModel();

    WaferCostModel(const WaferCostModel &) = delete;
    WaferCostModel &operator=(const WaferCostModel &) = delete;

    /// Analyses and costs one operator under the layout's spec.
    /// @param include_step When false, per-step gradient-sync
    ///        collectives are left out (the simulator merges them
    ///        across the whole layer and times them jointly).
    OpCostBreakdown opCost(const model::Operator &op,
                           const parallel::GroupLayout &layout,
                           bool include_step = true) const;

    /// Costs an already-analysed execution (avoids re-partitioning).
    OpCostBreakdown opCost(const parallel::OpExecution &exec,
                           const model::Operator &op,
                           const parallel::GroupLayout &layout,
                           bool include_step = true) const;

    /**
     * Lowers a set of collective tasks (all groups concurrently) into
     * one flow arena, applies the policy's traffic optimisation, and
     * times the result under link-level contention. The timed result
     * is served from the phase memo (keyed on the exact task-set
     * content), the one memo of collective work: a hit skips lowering,
     * optimisation and contention evaluation.
     *
     * @param link_bytes Optional accumulator of bytes x hops (energy).
     */
    net::PhaseTiming timeCollectiveTasks(
        const std::vector<net::CollectiveTask> &tasks,
        double *link_bytes = nullptr) const;

    /**
     * The op-level memo shared by the DP matrix and the simulator: op
     * `op_index` of `graph` (fingerprinted `graph_fp`) costed under
     * `spec`, keyed exactly on (graph_fp, op_index, spec). findCell
     * returns the resident cell or nullptr (one memo miss); addCell is
     * the miss path: it places the spec through the layout memo, keyed
     * on (graph_fp, spec), costs the cell and memoizes it. Both memos
     * are cleared on setFaults(), so a fault change never serves a
     * placement built around dies that have since died. On a racing
     * duplicate miss the resident cell stays and each caller keeps its
     * own bit-identical copy.
     */
    std::shared_ptr<const OpCell> findCell(
        std::uint64_t graph_fp, int op_index,
        const parallel::ParallelSpec &spec) const;
    std::shared_ptr<const OpCell> addCell(const model::ComputeGraph &graph,
                                          std::uint64_t graph_fp,
                                          int op_index,
                                          const parallel::ParallelSpec &spec)
        const;

    /**
     * Seeds the cell memo (warm start); a resident cell wins. An
     * unbounded memo never evicts, so its imported cells share the
     * vector's one allocation; under a budget each cell owns its
     * memory, so an eviction frees it.
     */
    void importCells(std::vector<std::pair<OpCellKey, OpCell>> cells) const;

    /// Visits every resident cell (the persist layer's export hook).
    void forEachCell(
        const std::function<void(const OpCellKey &, const OpCell &)> &fn)
        const;

    /// Unique layout constructions since construction (racing
    /// duplicates count once).
    long layoutBuilds() const;

    /// Unique cells addCell() memoized since construction (racing
    /// duplicates count once, imported cells not at all): each placed
    /// its spec through one layout lookup.
    long cellBuilds() const;

    /// Eq. (3): inter-operator resharding time between adjacent ops.
    double interOpTime(const model::Operator &producer,
                       const parallel::ParallelSpec &from,
                       const parallel::ParallelSpec &to) const;

    /**
     * interOpTime() between two *distinct* specs, which depends only
     * on the producer's output bytes (reshardOutputBytes()) and the
     * two total degrees: the one expression behind interOpTime() and
     * the DP's per-producer degree table, so both read the same
     * doubles.
     */
    double reshardTime(double out_bytes, int from_degree,
                       int to_degree) const;

    /// The producer output volume reshardTime() redistributes.
    double reshardOutputBytes(const model::Operator &producer) const;

    /**
     * Estimates per-axis communication volumes for a whole graph under a
     * spec (drives GMap/TCME axis ordering) without building layouts.
     */
    tcme::AxisVolumes estimateAxisVolumes(
        const model::ComputeGraph &graph,
        const parallel::ParallelSpec &spec) const;

    /// Builds the layout for a spec per the mapping policy.
    parallel::GroupLayout buildLayout(const model::ComputeGraph &graph,
                                      const parallel::ParallelSpec &spec)
        const;

    const hw::Wafer &wafer() const { return wafer_; }
    const parallel::Partitioner &partitioner() const { return partitioner_; }
    const ComputeModel &computeModel() const { return compute_; }
    const PowerModel &powerModel() const { return power_; }
    const net::Router &router() const { return router_; }
    const tcme::MappingPolicy &policy() const { return policy_; }

    /**
     * Collective tasks lowered since construction: the tasks of every
     * phase-memo insert (racing duplicate misses count once; a phase
     * evicted under a finite budget recounts when it returns). The
     * one count of schedule work; callers take deltas across a solve.
     */
    long scheduleLowerings() const;

    /**
     * Applies the cost model's memo budgets (0 = unbounded): the
     * phase memo takes the net.schedule_cache budgets, the layout and
     * stream-plan memos the layout budgets, the cell memo the
     * eval.cache budgets; routes are not budgeted. Const for the same
     * reason the memos are mutable: governance does not change what a
     * cost query computes, only what stays resident.
     */
    void setCacheBudgets(const common::CacheBudget &budget) const;

    /// Governance counters of the router's memoized routes.
    common::CacheStats routePoolStats() const
    {
        return router_.poolStats();
    }

    /// Governance counters of the stream-plan memo.
    common::CacheStats streamPlanStats() const;

    /// Governance counters of the timed collective-phase memo.
    common::CacheStats phaseMemoStats() const;

    /// Governance counters of the op-cell memo.
    common::CacheStats cellMemoStats() const;

    /// Governance counters of the layout memo.
    common::CacheStats layoutMemoStats() const;

    /// Fraction of grad-sync communication hidden behind backward
    /// compute (bucketed overlap, as Megatron/FSDP implement).
    static constexpr double kGradSyncOverlap = 0.5;

  private:
    /// The layout, stream-plan, timed-phase and cell memos (see the
    /// .cpp).
    struct Memos;

    /// A timed collective phase as the phase memo stores it.
    struct TimedPhase
    {
        net::PhaseTiming timing;
        /// Added to the caller's accumulator (0 when infeasible).
        double link_bytes = 0.0;
    };

    /// The memos, created on first use: building a cost model does no
    /// memo work, so frameworks that never solve pay nothing for them.
    Memos &memos() const;

    /// timeCollectiveTasks() without the phase memo.
    TimedPhase timePhase(const std::vector<net::CollectiveTask> &tasks) const;

    /// The (memoized) stream plan of a layout's TATP groups.
    std::shared_ptr<const tatp::StreamPlan> streamPlan(
        std::span<const hw::DieGroup *const> groups, int degree) const;

    /// Costs an analysed execution as a cell; its step phase is timed
    /// only when `time_step` is set.
    OpCell costCell(const parallel::OpExecution &exec,
                    const model::Operator &op,
                    const parallel::GroupLayout &layout,
                    bool time_step) const;

    /// Times the TATP stream of an execution (all groups concurrently).
    void timeStream(const parallel::OpExecution &exec,
                    const parallel::GroupLayout &layout,
                    OpCostBreakdown &out) const;

    const hw::Wafer &wafer_;
    tcme::MappingPolicy policy_;
    parallel::Partitioner partitioner_;
    ComputeModel compute_;
    PowerModel power_;
    net::Router router_;
    net::CollectiveScheduler scheduler_;
    net::ContentionModel contention_;
    tatp::ChainMapper chain_mapper_;
    tatp::TatpExecutor tatp_executor_;
    tcme::TrafficOptimizer optimizer_;
    mutable std::once_flag memos_once_;
    mutable std::unique_ptr<Memos> memos_;
    /// Registration id of the wafer fault listener that clears the
    /// memos and the route epoch and re-snapshots
    /// the contention model on setFaults().
    std::uint64_t fault_listener_id_ = 0;
};

}  // namespace temp::cost
