#include "cost/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>

#include "common/logging.hpp"

namespace temp::cost {

using parallel::Axis;
using parallel::GroupLayout;
using parallel::OpExecution;
using parallel::ParallelSpec;

namespace {

/// Appends a collective task set's exact content to a memo key.
void
appendTasks(common::WordKey &key,
            const std::vector<net::CollectiveTask> &tasks)
{
    key.add(static_cast<std::uint32_t>(tasks.size()));
    for (const net::CollectiveTask &task : tasks) {
        key.add(static_cast<std::uint32_t>(task.kind));
        key.addInt(task.tag);
        key.addDouble(task.bytes);
        key.add(static_cast<std::uint32_t>(task.group.size()));
        for (hw::DieId die : task.group)
            key.addInt(die);
    }
}

}  // namespace

std::size_t
OpCellKeyHash::operator()(const OpCellKey &key) const
{
    const ParallelSpec &s = key.spec;
    std::uint64_t hash = key.graph_fp;
    for (int v : {key.op_index, s.dp, s.fsdp, s.tp, s.sp, s.cp, s.tatp, s.pp,
                  s.coupled_sp ? 1 : 0})
        hash = (hash ^ static_cast<std::uint32_t>(v)) * 0x100000001b3ull;
    return static_cast<std::size_t>(hash ^ (hash >> 29));
}

/// The cost model's exact memos; the fault listener clears them all.
struct WaferCostModel::Memos
{
    /// (graph, spec) -> the placed layout.
    common::BoundedCache<OpCellKey,
                         std::shared_ptr<const parallel::GroupLayout>,
                         OpCellKeyHash>
        layouts;
    std::atomic<long> layout_builds{0};
    /// TATP group set + degree -> stream plan.
    common::BoundedCache<common::WordKey,
                         std::shared_ptr<const tatp::StreamPlan>,
                         common::WordKeyHash>
        stream_plans;
    /// Collective task-set content -> timed phase.
    common::BoundedCache<common::WordKey, TimedPhase, common::WordKeyHash>
        phases;
    /// (graph, op, spec) -> the cell the DP matrix and the simulator
    /// share.
    common::BoundedCache<OpCellKey, std::shared_ptr<const OpCell>,
                         OpCellKeyHash>
        cells;

    Memos()
    {
        // Honest byte estimates, so the configured byte budgets bound
        // what the memos really hold.
        layouts.setByteEstimate(
            [](const OpCellKey &,
               const std::shared_ptr<const GroupLayout> &layout) {
                return static_cast<long>(sizeof(OpCellKey) +
                                         sizeof(layout)) +
                       layout->byteEstimate();
            });
        stream_plans.setByteEstimate(
            [](const common::WordKey &key,
               const std::shared_ptr<const tatp::StreamPlan> &plan) {
                return common::cacheByteEstimate(key) +
                       plan->byteEstimate();
            });
        phases.setByteEstimate(
            [](const common::WordKey &key, const TimedPhase &) {
                return common::cacheByteEstimate(key) +
                       static_cast<long>(sizeof(TimedPhase));
            });
        cells.setByteEstimate(
            [](const OpCellKey &, const std::shared_ptr<const OpCell> &cell) {
                long bytes = static_cast<long>(sizeof(OpCellKey) +
                                               sizeof(OpCell));
                for (const net::CollectiveTask &task : cell->step_tasks)
                    bytes += static_cast<long>(
                        sizeof(task) +
                        task.group.capacity() * sizeof(hw::DieId));
                return bytes;
            });
    }
};

WaferCostModel::WaferCostModel(const hw::Wafer &wafer,
                               tcme::MappingPolicy policy,
                               parallel::TrainingOptions options)
    : wafer_(wafer),
      policy_(policy),
      partitioner_(options),
      compute_(wafer.config().die, wafer.config().hbm),
      power_(wafer.config()),
      router_(wafer.topology(), &wafer.faults()),
      scheduler_(router_),
      schedule_cache_(scheduler_),
      contention_(wafer, wafer.config().d2d.latency_s),
      chain_mapper_(wafer.topology()),
      tatp_executor_(wafer.config().d2d),
      optimizer_(router_)
{
    // Everything below derives from the fault state: a setFaults() on
    // the live wafer clears it before any further lookup.
    fault_listener_id_ = wafer_.addFaultListener([this] {
        Memos &memo = memos();
        memo.layouts.clear();
        memo.cells.clear();
        memo.phases.clear();
        memo.stream_plans.clear();  // releases their route epochs
        schedule_cache_.clear();
        router_.newEpoch();
        contention_.resnapshot();
    });
}

WaferCostModel::~WaferCostModel()
{
    wafer_.removeFaultListener(fault_listener_id_);
}

WaferCostModel::Memos &
WaferCostModel::memos() const
{
    std::call_once(memos_once_,
                   [this] { memos_ = std::make_unique<Memos>(); });
    return *memos_;
}

common::CacheStats
WaferCostModel::streamPlanStats() const
{
    return memos().stream_plans.stats();
}

common::CacheStats
WaferCostModel::phaseMemoStats() const
{
    return memos().phases.stats();
}

common::CacheStats
WaferCostModel::cellMemoStats() const
{
    return memos().cells.stats();
}

common::CacheStats
WaferCostModel::layoutMemoStats() const
{
    return memos().layouts.stats();
}

long
WaferCostModel::layoutBuilds() const
{
    return memos().layout_builds.load();
}

void
WaferCostModel::setCacheBudgets(const common::CacheBudget &budget) const
{
    // Negative budgets clamp to 0 (unbounded): a size_t wrap would
    // silently produce a never-evicting "bounded" cache that still
    // pays the exclusive-lock hit path.
    schedule_cache_.setMaxEntries(static_cast<std::size_t>(
        std::max(0L, budget.max_schedule_entries)));
    schedule_cache_.setMaxBytes(std::max(0L, budget.max_schedule_bytes));
    Memos &memo = memos();
    memo.phases.setCapacity(budget.max_schedule_entries);
    memo.phases.setMaxBytes(budget.max_schedule_bytes);
    memo.layouts.setCapacity(budget.max_layout_entries);
    memo.layouts.setMaxBytes(budget.max_layout_bytes);
    memo.stream_plans.setCapacity(budget.max_layout_entries);
    memo.stream_plans.setMaxBytes(budget.max_layout_bytes);
    memo.cells.setCapacity(budget.max_eval_entries);
    memo.cells.setMaxBytes(budget.max_eval_bytes);
}

net::PhaseTiming
WaferCostModel::timeCollectiveTasks(
    const std::vector<net::CollectiveTask> &tasks, double *link_bytes,
    net::ScheduleCacheStats *sched_stats) const
{
    if (tasks.empty())
        return net::PhaseTiming{};

    common::WordKey key;
    appendTasks(key, tasks);
    Memos &memo = memos();
    std::optional<TimedPhase> phase = memo.phases.get(key);
    if (phase) {
        if (sched_stats != nullptr)
            sched_stats->hits += static_cast<long>(tasks.size());
    } else {
        phase = timePhase(tasks, sched_stats);
        memo.phases.insert(key, *phase);
    }
    if (link_bytes != nullptr)
        *link_bytes += phase->link_bytes;
    return phase->timing;
}

WaferCostModel::TimedPhase
WaferCostModel::timePhase(const std::vector<net::CollectiveTask> &tasks,
                          net::ScheduleCacheStats *sched_stats) const
{
    TimedPhase phase;
    // Lower every task through the shared schedule cache (content-keyed
    // on the task signature).
    std::vector<std::shared_ptr<const net::CommSchedule>> lowered;
    lowered.reserve(tasks.size());
    bool feasible = true;
    for (const net::CollectiveTask &task : tasks) {
        bool hit = false;
        lowered.push_back(schedule_cache_.lowered(task, &hit));
        feasible = feasible && lowered.back()->feasible;
        if (sched_stats != nullptr) {
            if (hit)
                ++sched_stats->hits;
            else
                ++sched_stats->lowerings;
        }
    }
    if (!feasible) {
        phase.timing.time_s = std::numeric_limits<double>::infinity();
        return phase;
    }

    // Single-task fast path: no overlay combination needed, and when no
    // traffic optimisation runs the cached schedule is evaluated in
    // place.
    if (tasks.size() == 1) {
        const net::CommSchedule &single = *lowered.front();
        if (!policy_.contentionOptimization()) {
            phase.link_bytes = single.linkBytes();
            phase.timing = contention_.evaluateSequence(single);
            return phase;
        }
        net::CommSchedule optimized = single;
        optimizer_.optimize(optimized);
        phase.link_bytes = optimized.linkBytes();
        phase.timing = contention_.evaluateSequence(optimized);
        return phase;
    }

    // Overlay same-kind rounds in one pass: groups of one axis run
    // concurrently, and different axes' collectives inside one op
    // contend for the same links (the Fig. 11 scenario).
    std::vector<const net::CommSchedule *> parts;
    parts.reserve(lowered.size());
    for (const auto &schedule : lowered)
        parts.push_back(schedule.get());
    net::CommSchedule combined = net::CommSchedule::combine(parts);

    if (policy_.contentionOptimization())
        optimizer_.optimize(combined);  // finalizes its rebuilt arena
    else
        combined.finalize();

    phase.link_bytes = combined.linkBytes();
    phase.timing = contention_.evaluateSequence(combined);
    return phase;
}

std::shared_ptr<const tatp::StreamPlan>
WaferCostModel::streamPlan(const std::vector<std::vector<hw::DieId>> &groups,
                           int degree) const
{
    common::WordKey key;
    key.addInt(degree);
    for (const std::vector<hw::DieId> &group : groups) {
        key.add(static_cast<std::uint32_t>(group.size()));
        for (hw::DieId die : group)
            key.addInt(die);
    }
    Memos &memo = memos();
    if (auto plan = memo.stream_plans.get(key))
        return *plan;

    // Build the physical chains these groups give the stream. Engines
    // other than SMap re-order scattered groups into the best chain
    // (GMap is hop-aware; TCME is topology-aware by construction).
    std::vector<tatp::ChainInfo> chains;
    chains.reserve(groups.size());
    for (const std::vector<hw::DieId> &group : groups) {
        chains.push_back(chain_mapper_.analyzeChain(
            policy_.kind != tcme::MappingEngineKind::SMap
                ? chain_mapper_.orderAsChain(group)
                : group));
    }
    auto plan = std::make_shared<const tatp::StreamPlan>(
        tatp_executor_.planStream(std::move(chains), degree, router_));
    return memo.stream_plans.insert(key, std::move(plan)).first;
}

std::shared_ptr<const OpCell>
WaferCostModel::findCell(std::uint64_t graph_fp, int op_index,
                         const ParallelSpec &spec) const
{
    auto cell = memos().cells.get(OpCellKey{graph_fp, op_index, spec});
    return cell ? *cell : nullptr;
}

std::shared_ptr<const OpCell>
WaferCostModel::addCell(const model::ComputeGraph &graph,
                        std::uint64_t graph_fp, int op_index,
                        const ParallelSpec &spec) const
{
    const OpCellKey key{graph_fp, op_index, spec};
    Memos &memo = memos();
    // Place the spec (built outside the cache lock; on a racing
    // duplicate the first insert wins). The shared_ptr pins the layout
    // while the cell is costed: under a finite layout budget the memo
    // may evict it meanwhile.
    const OpCellKey layout_key{graph_fp, OpCellKey::kLayoutOp, spec};
    std::shared_ptr<const GroupLayout> placed;
    if (auto cached = memo.layouts.get(layout_key)) {
        placed = std::move(*cached);
    } else {
        bool inserted = false;
        std::tie(placed, inserted) = memo.layouts.insert(
            layout_key,
            std::make_shared<const GroupLayout>(buildLayout(graph, spec)));
        memo.layout_builds += inserted ? 1 : 0;
    }
    const model::Operator &op = graph.op(op_index);
    auto cell = std::make_shared<const OpCell>(costCell(
        partitioner_.analyze(op, *placed), op, *placed, /*time_step=*/true));
    memo.cells.insert(key, cell);
    return cell;
}

void
WaferCostModel::importCell(std::uint64_t graph_fp, int op_index,
                           const ParallelSpec &spec, OpCell cell) const
{
    memos().cells.insert(OpCellKey{graph_fp, op_index, spec},
                         std::make_shared<const OpCell>(std::move(cell)));
}

void
WaferCostModel::forEachCell(
    const std::function<void(const OpCellKey &, const OpCell &)> &fn) const
{
    memos().cells.forEach(
        [&](const OpCellKey &key, const std::shared_ptr<const OpCell> &cell) {
            fn(key, *cell);
        });
}

void
WaferCostModel::timeStream(const OpExecution &exec, const GroupLayout &layout,
                           OpCostBreakdown &out) const
{
    const parallel::TatpStream &stream = exec.tatp;
    const int g = stream.degree;

    const auto &groups = layout.groups(Axis::TATP);
    if (groups.empty())
        return;
    const std::shared_ptr<const tatp::StreamPlan> plan =
        streamPlan(groups, g);
    const tatp::ChainInfo &worst = plan->chains[plan->worst];

    double min_derate = 1.0;
    for (hw::DieId die : layout.activeDies())
        min_derate = std::min(min_derate,
                              wafer_.faults().computeDerate(die));
    // Per-round compute obeys the same roofline as any GEMM slice
    // (the streamed operand still transits DRAM); express it as an
    // effective FLOP rate so the TATP executor can overlap against it.
    const double dram_per_round_fwd =
        exec.dram_bytes_fwd / static_cast<double>(g);
    const double round_comp_fwd =
        compute_.opTime(stream.fwd_flops_per_round, dram_per_round_fwd,
                        true, min_derate);
    const double flops_rate =
        round_comp_fwd > 0.0 ? stream.fwd_flops_per_round / round_comp_fwd
                             : wafer_.config().die.peak_flops;

    // Cross-group contention: evaluate round 0 of the stream under the
    // contention model and take the worse of that and the
    // store-and-forward estimate. Round 0 carries every chain-neighbour
    // pair in both directions and later rounds only subsets of them, so
    // it is the densest round and alone decides feasibility.
    auto contended_round = [&](double bytes) {
        if (!plan->feasible)
            return std::numeric_limits<double>::infinity();
        if (plan->round0.empty())
            return 0.0;
        std::vector<net::Flow> flows = plan->round0;
        for (net::Flow &flow : flows)
            flow.bytes = bytes;
        return contention_.evaluate(flows).time_s;
    };

    const tatp::TatpTiming fwd = tatp_executor_.timePass(
        stream.fwd_flops_per_round, stream.bytes_per_round, g, worst,
        flops_rate);
    const tatp::TatpTiming bwd = tatp_executor_.timePass(
        stream.bwd_flops_per_round, 2.0 * stream.bytes_per_round, g, worst,
        flops_rate);

    const double fwd_comm_round = std::max(
        fwd.comm_time_s / g, contended_round(stream.bytes_per_round));
    const double bwd_comm_round = std::max(
        bwd.comm_time_s / g, contended_round(2.0 * stream.bytes_per_round));
    if (std::isinf(fwd_comm_round) || std::isinf(bwd_comm_round)) {
        out.feasible = false;
        return;
    }

    const double fwd_round = std::max(fwd.comp_time_s / g, fwd_comm_round);
    const double bwd_round = std::max(bwd.comp_time_s / g, bwd_comm_round);

    out.fwd_time += g * fwd_round;
    out.bwd_time += g * bwd_round;
    out.comp_time += fwd.comp_time_s + bwd.comp_time_s;
    out.stream_comm_time += g * (fwd_comm_round + bwd_comm_round);
    out.exposed_comm += g * (std::max(0.0, fwd_comm_round -
                                               fwd.comp_time_s / g) +
                             std::max(0.0, bwd_comm_round -
                                               bwd.comp_time_s / g));
    // Tail latency: whatever exceeds the contiguous-chain ideal.
    const double ideal_hop =
        tatp_executor_.hopTransferTime(stream.bytes_per_round, 1);
    const double ideal_hop_bwd =
        tatp_executor_.hopTransferTime(2.0 * stream.bytes_per_round, 1);
    out.tail_latency +=
        g * (std::max(0.0, fwd_round - std::max(fwd.comp_time_s / g,
                                                ideal_hop)) +
             std::max(0.0, bwd_round - std::max(bwd.comp_time_s / g,
                                                ideal_hop_bwd)));
    out.d2d_link_bytes +=
        (fwd.link_bytes + bwd.link_bytes) * plan->chains.size();
}

OpCostBreakdown
WaferCostModel::opCost(const model::Operator &op, const GroupLayout &layout,
                       bool include_step) const
{
    return opCost(partitioner_.analyze(op, layout), op, layout,
                  include_step);
}

OpCostBreakdown
WaferCostModel::opCost(const OpExecution &exec, const model::Operator &op,
                       const GroupLayout &layout, bool include_step) const
{
    const OpCell cell = costCell(exec, op, layout, include_step);
    return include_step ? cell.withStep() : cell.breakdown;
}

OpCostBreakdown
OpCell::withStep() const
{
    OpCostBreakdown out = breakdown;
    out.schedule_lowerings += step.schedule_lowerings;
    out.schedule_cache_hits += step.schedule_cache_hits;
    if (!out.feasible)
        return out;
    out.d2d_link_bytes += step.link_bytes;
    if (std::isinf(step.time_s)) {
        out.feasible = false;
        return out;
    }
    // Gradient-sync collectives partially overlap backward compute.
    out.step_comm_time =
        step.time_s * (1.0 - WaferCostModel::kGradSyncOverlap);
    out.exposed_comm += out.step_comm_time;
    if (step.bytes > 0.0)
        out.bw_utilization =
            (out.bw_utilization * comm_bytes +
             step.utilization * step.bytes) /
            (comm_bytes + step.bytes);
    return out;
}

OpCell
WaferCostModel::costCell(const OpExecution &exec, const model::Operator &op,
                         const GroupLayout &layout, bool time_step) const
{
    OpCell cell;
    cell.footprint = exec.footprint();
    cell.step_tasks = exec.step_collectives;
    cell.activation_bytes = exec.activation_bytes;
    OpCostBreakdown &out = cell.breakdown;
    const int dies = layout.usedDies();

    double min_derate = 1.0;
    for (hw::DieId die : layout.activeDies())
        min_derate = std::min(min_derate,
                              wafer_.faults().computeDerate(die));

    const double comp_fwd = compute_.opTime(
        exec.fwd_flops_per_die, exec.dram_bytes_fwd, op.isGemm(), min_derate);
    const double comp_bwd = compute_.opTime(
        exec.bwd_flops_per_die, exec.dram_bytes_bwd, op.isGemm(), min_derate);

    // Blocking collectives (Eq. 2's Collective term). One lookup-stat
    // accumulator for all phases; folded into the breakdown so callers
    // (evaluators, the simulator) inherit honest cache accounting.
    net::ScheduleCacheStats sched_stats;
    const net::PhaseTiming coll_fwd = timeCollectiveTasks(
        exec.fwd_collectives, &out.d2d_link_bytes, &sched_stats);
    const net::PhaseTiming coll_bwd = timeCollectiveTasks(
        exec.bwd_collectives, &out.d2d_link_bytes, &sched_stats);
    const net::PhaseTiming coll_overlap = timeCollectiveTasks(
        exec.overlap_collectives, &out.d2d_link_bytes, &sched_stats);
    out.schedule_lowerings = sched_stats.lowerings;
    out.schedule_cache_hits = sched_stats.hits;
    if (std::isinf(coll_fwd.time_s) || std::isinf(coll_bwd.time_s) ||
        std::isinf(coll_overlap.time_s)) {
        out.feasible = false;
        return cell;
    }

    if (exec.tatp.active) {
        timeStream(exec, layout, out);
        if (!out.feasible)
            return cell;
    } else {
        out.fwd_time += std::max(comp_fwd, coll_overlap.time_s);
        out.bwd_time += comp_bwd;
        out.comp_time += comp_fwd + comp_bwd;
        out.exposed_comm +=
            std::max(0.0, coll_overlap.time_s - comp_fwd);
    }

    out.fwd_time += coll_fwd.time_s;
    out.bwd_time += coll_bwd.time_s;
    out.collective_time += coll_fwd.time_s + coll_bwd.time_s;
    out.exposed_comm += coll_fwd.time_s + coll_bwd.time_s;

    out.dram_bytes = (exec.dram_bytes_fwd + exec.dram_bytes_bwd) * dies;
    out.flops = (exec.fwd_flops_per_die + exec.bwd_flops_per_die) * dies;

    // Utilisation: byte-weighted over the communication phases.
    double util_acc = 0.0;
    for (const net::PhaseTiming *t : {&coll_fwd, &coll_bwd, &coll_overlap}) {
        if (t->total_bytes > 0.0) {
            util_acc += t->bandwidth_utilization * t->total_bytes;
            cell.comm_bytes += t->total_bytes;
        }
    }
    out.bw_utilization =
        cell.comm_bytes > 0.0 ? util_acc / cell.comm_bytes : 0.0;

    if (time_step) {
        // The per-op step phase the matrix entry adds (withStep).
        net::ScheduleCacheStats step_stats;
        const net::PhaseTiming step = timeCollectiveTasks(
            exec.step_collectives, &cell.step.link_bytes, &step_stats);
        cell.step.time_s = step.time_s;
        cell.step.bytes = step.total_bytes;
        cell.step.utilization = step.bandwidth_utilization;
        cell.step.schedule_lowerings = step_stats.lowerings;
        cell.step.schedule_cache_hits = step_stats.hits;
    }
    return cell;
}

double
WaferCostModel::interOpTime(const model::Operator &producer,
                            const ParallelSpec &from,
                            const ParallelSpec &to) const
{
    const double bytes = parallel::reshardBytesPerDie(
        producer, from, to, partitioner_.options());
    if (bytes <= 0.0)
        return 0.0;
    // Resharding is a bulk exchange between neighbouring shards; a die
    // moves its share at roughly one D2D link of bandwidth.
    const hw::D2dConfig &d2d = wafer_.config().d2d;
    return bytes / d2d.effectiveBandwidth(bytes) + d2d.latency_s;
}

tcme::AxisVolumes
WaferCostModel::estimateAxisVolumes(const model::ComputeGraph &graph,
                                    const ParallelSpec &spec) const
{
    tcme::AxisVolumes volumes{};
    std::vector<hw::DieId> probe_order =
        GroupLayout::snakeOrder(wafer_.topology());
    if (!wafer_.faults().healthy()) {
        const std::vector<hw::DieId> usable = wafer_.usableDies();
        if (static_cast<int>(usable.size()) >= spec.totalDegree()) {
            std::vector<bool> ok(wafer_.dieCount(), false);
            for (hw::DieId die : usable)
                ok[die] = true;
            std::erase_if(probe_order,
                          [&](hw::DieId die) { return !ok[die]; });
        }
    }
    GroupLayout probe(std::move(probe_order), spec,
                      parallel::defaultAxisOrder());
    for (const model::Operator &op : graph.ops()) {
        const OpExecution exec = partitioner_.analyze(op, probe);
        auto account = [&volumes](const std::vector<net::CollectiveTask>
                                      &tasks) {
            for (const net::CollectiveTask &task : tasks) {
                const int axis = task.tag - 1000;
                if (axis < 0 ||
                    axis >= static_cast<int>(parallel::Axis::Count))
                    continue;
                volumes[axis] +=
                    task.bytes * static_cast<double>(task.group.size());
            }
        };
        account(exec.fwd_collectives);
        account(exec.bwd_collectives);
        account(exec.step_collectives);
        account(exec.overlap_collectives);
        if (exec.tatp.active) {
            volumes[static_cast<std::size_t>(Axis::TATP)] +=
                exec.tatp.group_tensor_bytes * 2.0;
        }
    }
    return volumes;
}

GroupLayout
WaferCostModel::buildLayout(const model::ComputeGraph &graph,
                            const ParallelSpec &spec) const
{
    const tcme::AxisVolumes volumes = estimateAxisVolumes(graph, spec);
    if (wafer_.faults().healthy()) {
        return GroupLayout(wafer_.topology(), spec,
                           policy_.axisOrder(volumes));
    }
    // Fault-tolerant placement: keep the snake enumeration but drop
    // dies outside the largest usable component (Fig. 20a step 2:
    // re-balance partitioning around the faults). A spec too large for
    // the component is placed on the full snake instead; its routes
    // then cross the faults and the cost model reports infeasibility.
    const std::vector<hw::DieId> usable = wafer_.usableDies();
    if (static_cast<int>(usable.size()) < spec.totalDegree()) {
        return GroupLayout(wafer_.topology(), spec,
                           policy_.axisOrder(volumes));
    }
    std::vector<bool> ok(wafer_.dieCount(), false);
    for (hw::DieId die : usable)
        ok[die] = true;
    std::vector<hw::DieId> order;
    for (hw::DieId die : GroupLayout::snakeOrder(wafer_.topology()))
        if (ok[die])
            order.push_back(die);
    return GroupLayout(std::move(order), spec,
                       policy_.axisOrder(volumes));
}

}  // namespace temp::cost
