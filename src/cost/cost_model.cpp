#include "cost/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <tuple>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace temp::cost {

using parallel::Axis;
using parallel::GroupLayout;
using parallel::OpExecution;
using parallel::ParallelSpec;

namespace {

/**
 * An exact memo key over interned die groups: a flat word sequence in
 * which a group is one word, its intern index (unique per content
 * within the wafer's table). The hash folds in each group's content
 * hash rather than its index, so it depends on content only, never on
 * which thread interned a group first.
 */
struct GroupKey
{
    std::vector<std::uint32_t> words;
    std::uint64_t hash = common::kFnvOffset;

    void clear()
    {
        words.clear();
        hash = common::kFnvOffset;
    }
    void add(std::uint32_t word)
    {
        words.push_back(word);
        mix(word);
    }
    void addDouble(double value)
    {
        const auto bits = std::bit_cast<std::uint64_t>(value);
        add(static_cast<std::uint32_t>(bits));
        add(static_cast<std::uint32_t>(bits >> 32));
    }
    /// One word: the group's index, with `high` (< 8) in the top bits
    /// (the table holds fewer than 2^29 groups).
    void addGroup(const hw::DieGroup &group, std::uint32_t high,
                  const hw::DieGroupTable &table)
    {
        if (group.table != &table)
            panic("cost key: a die group from another topology's table");
        words.push_back(group.index | high << 29);
        mix(high);
        mix(static_cast<std::uint32_t>(group.hash));
        mix(static_cast<std::uint32_t>(group.hash >> 32));
    }

    bool operator==(const GroupKey &other) const
    {
        return words == other.words;
    }

  private:
    /// FNV-1a, one word at a time.
    void mix(std::uint32_t word) { hash = (hash ^ word) * 0x100000001b3ull; }
};

struct GroupKeyHash
{
    std::size_t operator()(const GroupKey &key) const
    {
        return static_cast<std::size_t>(key.hash ^ (key.hash >> 29));
    }
};

long
keyBytes(const GroupKey &key)
{
    return static_cast<long>(sizeof(GroupKey) +
                             key.words.capacity() * sizeof(std::uint32_t));
}

/**
 * The phase-memo key of a task set: four words per task, [group index
 * | kind << 29], tag and the two halves of the byte count. Built in a
 * per-thread buffer reused across calls; the memo copies it only when
 * it inserts a new phase.
 */
const GroupKey &
phaseKey(std::span<const net::CollectiveTask> tasks,
         const hw::DieGroupTable &table)
{
    thread_local GroupKey key;
    key.clear();
    for (const net::CollectiveTask &task : tasks) {
        key.addGroup(*task.group, static_cast<std::uint32_t>(task.kind),
                     table);
        key.add(static_cast<std::uint32_t>(task.tag));
        key.addDouble(task.bytes);
    }
    return key;
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

/**
 * The lock shards of each unbounded memo when evaluator threads share
 * the memos, so two of them rarely meet on one lock (the count measured
 * at width 2); a serial caller's memos keep one.
 */
constexpr unsigned kThreadedMemoShards = 16;

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
    common::BoundedCache<GroupKey, std::shared_ptr<const tatp::StreamPlan>,
                         GroupKeyHash>
        stream_plans;
    /// Collective task-set content -> timed phase.
    common::BoundedCache<GroupKey, TimedPhase, GroupKeyHash> phases;
    /// Tasks of the phases inserted above (see scheduleLowerings()).
    std::atomic<long> lowerings{0};
    /// (graph, op, spec) -> the cell the DP matrix and the simulator
    /// share.
    common::BoundedCache<OpCellKey, std::shared_ptr<const OpCell>,
                         OpCellKeyHash>
        cells;
    std::atomic<long> cell_builds{0};

    explicit Memos(unsigned shards)
        : layouts(0, shards), stream_plans(0, shards), phases(0, shards),
          cells(0, shards)
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
            [](const GroupKey &key,
               const std::shared_ptr<const tatp::StreamPlan> &plan) {
                return keyBytes(key) + plan->byteEstimate();
            });
        phases.setByteEstimate([](const GroupKey &key, const TimedPhase &) {
            return keyBytes(key) + static_cast<long>(sizeof(TimedPhase));
        });
        cells.setByteEstimate(
            [](const OpCellKey &, const std::shared_ptr<const OpCell> &cell) {
                return static_cast<long>(
                    sizeof(OpCellKey) + sizeof(OpCell) +
                    cell->step_tasks.capacity() *
                        sizeof(net::CollectiveTask));
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
    std::call_once(memos_once_, [this] {
        memos_ = std::make_unique<Memos>(
            memos_threaded_.load() ? kThreadedMemoShards : 1u);
    });
    return *memos_;
}

void
WaferCostModel::shardMemosFor(int threads) const
{
    if (threads > 1)
        memos_threaded_.store(true);
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

unsigned
WaferCostModel::memoShardCount() const
{
    return memos().cells.shardCount();
}

long
WaferCostModel::layoutBuilds() const
{
    return memos().layout_builds.load();
}

long
WaferCostModel::cellBuilds() const
{
    return memos().cell_builds.load();
}

long
WaferCostModel::scheduleLowerings() const
{
    return memos().lowerings.load();
}

void
WaferCostModel::setCacheBudgets(const common::CacheBudget &budget) const
{
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
    const std::vector<net::CollectiveTask> &tasks, double *link_bytes) const
{
    if (tasks.empty())
        return net::PhaseTiming{};

    const GroupKey &key = phaseKey(tasks, wafer_.topology().dieGroups());
    Memos &memo = memos();
    std::optional<TimedPhase> phase = memo.phases.get(key);
    if (!phase) {
        phase = timePhase(tasks);
        // Racing misses of one phase each time it; only the insert
        // that wins counts its tasks, so the count is exact at any
        // width.
        if (memo.phases.insert(key, *phase).second)
            memo.lowerings += static_cast<long>(tasks.size());
    }
    if (link_bytes != nullptr)
        *link_bytes += phase->link_bytes;
    return phase->timing;
}

WaferCostModel::TimedPhase
WaferCostModel::timePhase(const std::vector<net::CollectiveTask> &tasks) const
{
    TimedPhase phase;
    // Groups of one axis run concurrently, and different axes'
    // collectives inside one op contend for the same links (the
    // Fig. 11 scenario): the whole phase is lowered into one arena
    // with its tasks' rounds overlaid.
    const net::CommSchedule schedule = scheduler_.lowerPhase(tasks);
    if (!schedule.feasible) {
        phase.timing.time_s = std::numeric_limits<double>::infinity();
        return phase;
    }
    // Timed run by run, while each run is hot in cache: under TCME a
    // run is optimized in a per-thread scratch buffer (optimizePhase is
    // a pure function of its flows, so no optimized schedule is
    // rebuilt), then its link bytes and its timing are each folded in
    // once per executed round, in the order CommSchedule::linkBytes()
    // and ContentionModel::evaluateSequence() sum the optimized
    // schedule.
    const bool optimize = policy_.contentionOptimization();
    thread_local std::vector<net::Flow> optimized;
    net::PhaseSequence sequence(contention_.fabricCapacity());
    for (int i = 0; i < schedule.runCount(); ++i) {
        std::span<const net::Flow> run = schedule.run(i);
        if (optimize) {
            optimized.assign(run.begin(), run.end());
            optimizer_.optimizePhase(optimized);
            run = optimized;
        }
        const std::uint32_t repeat = schedule.repeat(i);
        phase.link_bytes = net::CommSchedule::addRunLinkBytes(
            phase.link_bytes, run, repeat);
        sequence.add(contention_.evaluate(run), repeat);
    }
    phase.timing = sequence.total();
    return phase;
}

std::shared_ptr<const tatp::StreamPlan>
WaferCostModel::streamPlan(std::span<const hw::DieGroup *const> groups,
                           int degree) const
{
    thread_local GroupKey key;
    key.clear();
    key.add(static_cast<std::uint32_t>(degree));
    for (const hw::DieGroup *group : groups)
        key.addGroup(*group, 0, wafer_.topology().dieGroups());
    Memos &memo = memos();
    if (auto plan = memo.stream_plans.get(key))
        return *plan;

    // Build the physical chains these groups give the stream. Engines
    // other than SMap re-order scattered groups into the best chain
    // (GMap is hop-aware; TCME is topology-aware by construction).
    std::vector<tatp::ChainInfo> chains;
    chains.reserve(groups.size());
    for (const hw::DieGroup *group : groups) {
        chains.push_back(chain_mapper_.analyzeChain(
            policy_.kind != tcme::MappingEngineKind::SMap
                ? chain_mapper_.orderAsChain(group->dies)
                : group->dies));
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
    return cell ? std::move(*cell) : nullptr;
}

void
WaferCostModel::findCells(std::span<const OpCellKey> keys,
                          std::shared_ptr<const OpCell> *cells) const
{
    memos().cells.getAll(keys,
                         [cells](std::size_t i,
                                 const std::shared_ptr<const OpCell> &cell) {
                             cells[i] = cell;
                         });
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
    memo.cell_builds += memo.cells.insert(key, cell).second ? 1 : 0;
    return cell;
}

void
WaferCostModel::importCells(
    std::vector<std::pair<OpCellKey, OpCell>> cells) const
{
    auto &memo = memos().cells;
    std::vector<std::pair<OpCellKey, std::shared_ptr<const OpCell>>> entries;
    entries.reserve(cells.size());
    if (memo.bounded()) {
        for (auto &[key, cell] : cells)
            entries.emplace_back(
                key, std::make_shared<const OpCell>(std::move(cell)));
    } else {
        // One allocation owns every cell; the entries alias into it.
        const auto owner =
            std::make_shared<const std::vector<std::pair<OpCellKey, OpCell>>>(
                std::move(cells));
        for (const auto &[key, cell] : *owner)
            entries.emplace_back(key,
                                 std::shared_ptr<const OpCell>(owner, &cell));
    }
    memo.insertAll(std::move(entries));
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

    const std::span<const hw::DieGroup *const> groups =
        layout.handles(Axis::TATP);
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
        return contention_.evaluate(plan->round0, bytes).time_s;
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

double
OpCell::entryTotal(bool include_step) const
{
    const OpCostBreakdown entry = include_step ? withStep() : breakdown;
    return entry.feasible ? entry.total()
                          : std::numeric_limits<double>::infinity();
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

    // Blocking collectives (Eq. 2's Collective term).
    const net::PhaseTiming coll_fwd =
        timeCollectiveTasks(exec.fwd_collectives, &out.d2d_link_bytes);
    const net::PhaseTiming coll_bwd =
        timeCollectiveTasks(exec.bwd_collectives, &out.d2d_link_bytes);
    const net::PhaseTiming coll_overlap =
        timeCollectiveTasks(exec.overlap_collectives, &out.d2d_link_bytes);
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
        const net::PhaseTiming step = timeCollectiveTasks(
            exec.step_collectives, &cell.step.link_bytes);
        cell.step.time_s = step.time_s;
        cell.step.bytes = step.total_bytes;
        cell.step.utilization = step.bandwidth_utilization;
    }
    return cell;
}

double
WaferCostModel::interOpTime(const model::Operator &producer,
                            const ParallelSpec &from,
                            const ParallelSpec &to) const
{
    if (from == to)
        return 0.0;
    return reshardTime(reshardOutputBytes(producer), from.totalDegree(),
                       to.totalDegree());
}

double
WaferCostModel::reshardOutputBytes(const model::Operator &producer) const
{
    return producer.outputBytes(partitioner_.options().act_bytes_per_elem);
}

double
WaferCostModel::reshardTime(double out_bytes, int from_degree,
                            int to_degree) const
{
    const double bytes =
        parallel::reshardBytesPerDie(out_bytes, from_degree, to_degree);
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
    // Every group of an axis carries the same collective, so the
    // volumes need no placement: an emission adds bytes x degree once
    // per group, list by list in task order as the placed tasks would.
    tcme::AxisVolumes volumes{};
    const int total = spec.totalDegree();
    parallel::CollectivePlan plan;
    for (const model::Operator &op : graph.ops()) {
        const OpExecution exec = partitioner_.analyzeUnplaced(op, spec, plan);
        for (auto list : {&OpExecution::fwd_collectives,
                          &OpExecution::bwd_collectives,
                          &OpExecution::step_collectives,
                          &OpExecution::overlap_collectives})
            for (const parallel::CollectivePlan::Emission &e : plan.items()) {
                const int degree = spec.degree(e.axis);
                if (e.list != list || degree <= 1)
                    continue;
                double &volume = volumes[static_cast<std::size_t>(e.axis)];
                for (int group = 0; group < total / degree; ++group)
                    volume += e.bytes * static_cast<double>(degree);
            }
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
    const std::vector<hw::DieId> &usable = wafer_.usableDies();
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
    return GroupLayout(wafer_.topology(), order, spec,
                       policy_.axisOrder(volumes));
}

}  // namespace temp::cost
