#include "core/framework.hpp"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

#include "common/logging.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace temp::core {

TempFramework::TempFramework(hw::WaferConfig wafer_config,
                             FrameworkOptions options)
    : options_(options),
      wafer_(std::make_unique<hw::Wafer>(wafer_config)),
      sim_(std::make_unique<sim::TrainingSimulator>(*wafer_, options.policy,
                                                    options.training)),
      pool_(std::make_unique<ThreadPool>(options.eval_threads)),
      evaluator_(std::make_unique<eval::ExactEvaluator>(sim_->costModel(),
                                                        pool_.get())),
      steps_(std::make_unique<eval::StepEvaluator>(*sim_, pool_.get()))
{
    // Cache governance: thread the entry and byte budgets through
    // every memo layer this framework owns. All budgets default to 0
    // (unbounded), so the historical behaviour — and the bit-exactness
    // guarantees its tests assert — are untouched unless a budget is
    // configured.
    if (options.cache.boundsFramework()) {
        steps_->setCacheBudget(options.cache);
        sim_->costModel().setCacheBudgets(options.cache);
    }
}

TempFramework::~TempFramework()
{
    // Members go in reverse declaration order, as the implicit
    // destructor would free them, so the trim below sees their memory.
    steps_.reset();
    evaluator_.reset();
    pool_.reset();
    sim_.reset();
    wafer_.reset();
#if defined(__GLIBC__)
    // The memo stack is tens of thousands of small nodes. glibc parks
    // their freed chunks on fastbins and merges them only at the next
    // large allocation, so without this the next framework built on
    // this thread pays for the previous one's teardown (~0.5 ms per
    // cold build after an OPT 175B solve).
    malloc_trim(0);
#endif
}

persist::MemoBlock
TempFramework::exportMemos() const
{
    // A snapshot's bytes must not see the race of the pool threads that
    // filled the memos, so entries are sorted by key. Step tasks move
    // to the block's own group table, which outlives this wafer.
    persist::MemoBlock block;
    block.groups = std::make_shared<hw::DieGroupTable>();
    sim_->costModel().forEachCell(
        [&](const cost::OpCellKey &key, const cost::OpCell &cell) {
            cost::OpCell &entry = block.cells.emplace_back(key, cell).second;
            for (net::CollectiveTask &task : entry.step_tasks)
                task.group = block.groups->intern(task.group->dies);
        });
    const auto rank = [](const cost::OpCellKey &k) {
        const parallel::ParallelSpec &s = k.spec;
        return std::tuple(k.graph_fp, k.op_index, s.dp, s.fsdp, s.tp, s.sp,
                          s.cp, s.tatp, s.pp, s.coupled_sp);
    };
    std::sort(block.cells.begin(), block.cells.end(),
              [&](const auto &a, const auto &b) {
                  return rank(a.first) < rank(b.first);
              });
    steps_->forEachCached(
        [&](const std::string &key, const sim::PerfReport &report) {
            block.step_reports.emplace_back(key, report);
        });
    std::sort(block.step_reports.begin(), block.step_reports.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return block;
}

bool
TempFramework::importMemos(persist::MemoBlock block) const
{
    // A block naming a die this wafer lacks imports nothing. A wafer
    // that has interned no group yet (a fresh framework) adopts the
    // block's table whole, so every step task keeps its handle.
    // Otherwise each distinct group is re-interned into the wafer's
    // table in one call, in the order the tasks first name them, and
    // every task swaps handles.
    hw::DieGroupTable *const from = block.groups.get();
    const int dies = wafer_->dieCount();
    const auto on_wafer = [dies](const hw::DieGroup &group) {
        return std::ranges::all_of(group.dies, [dies](hw::DieId die) {
            return die >= 0 && die < dies;
        });
    };
    if (from != nullptr && !from->allOf(on_wafer))
        return false;
    hw::DieGroupTable &groups = wafer_->topology().dieGroups();
    // Only an unshared table may move: a copy of the block would keep
    // handles this wafer then owns.
    if (block.groups.use_count() != 1 || !groups.adopt(*from)) {
        constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
        std::vector<std::size_t> slot(from != nullptr ? from->size() : 0,
                                      kUnseen);
        std::vector<std::span<const hw::DieId>> distinct;
        for (const auto &[key, cell] : block.cells)
            for (const net::CollectiveTask &task : cell.step_tasks) {
                if (task.group->table != from)
                    panic("importMemos: a step task outside the block's "
                          "groups");
                std::size_t &mine = slot[task.group->index];
                if (mine == kUnseen) {
                    mine = distinct.size();
                    distinct.emplace_back(task.group->dies);
                }
            }
        std::vector<const hw::DieGroup *> local(distinct.size());
        groups.internAll(distinct, local);
        for (auto &[key, cell] : block.cells)
            for (net::CollectiveTask &task : cell.step_tasks)
                task.group = local[slot[task.group->index]];
    }
    sim_->costModel().importCells(std::move(block.cells));
    steps_->importCached(std::move(block.step_reports));
    return true;
}

std::vector<std::pair<std::string, common::CacheStats>>
TempFramework::cacheStats() const
{
    const cost::WaferCostModel &model = sim_->costModel();
    return {
        {"step_reports", steps_->cacheStats()},
        {"layouts", model.layoutMemoStats()},
        {"routes", model.routePoolStats()},
        {"stream_plans", model.streamPlanStats()},
        {"collective_phases", model.phaseMemoStats()},
        {"sim_cells", model.cellMemoStats()},
    };
}

solver::SolverResult
TempFramework::optimize(const model::ModelConfig &model) const
{
    return optimize(model, solver::SolveBudget{});
}

solver::SolverResult
TempFramework::optimize(const model::ModelConfig &model,
                        const solver::SolveBudget &budget) const
{
    return optimize(model::ComputeGraph::transformer(model), budget);
}

solver::SolverResult
TempFramework::optimize(const model::ComputeGraph &graph,
                        const solver::SolveBudget &budget) const
{
    solver::DlsSolver solver(*sim_, options_.solver, evaluator_.get(),
                             steps_.get());
    return solver.solve(graph, nullptr, budget);
}

DegradedContext::DegradedContext(const hw::WaferConfig &config,
                                 const hw::FaultMap &faults,
                                 const FrameworkOptions &options,
                                 ThreadPool *pool)
    // Step 1 of Fig. 20(a): fault localisation = the FaultMap itself.
    // Steps 2-3 (re-balance partitioning, re-route communication) run
    // in optimize() against this derate-/fault-aware stack. The
    // degraded wafer has its own cost model, so the shared healthy
    // evaluator cannot serve it; this context-local evaluator (sharing
    // the framework pool) keeps the parallel fill — and, unlike the
    // historical per-call locals, its cost model keeps its memos
    // across calls.
    : options_(options), fingerprint_(faults.contentFingerprint()),
      wafer_(config, faults),
      sim_(wafer_, options.policy, options.training),
      eval_(sim_.costModel(), pool), steps_(sim_, pool)
{
    // Same governance the healthy framework applies in its ctor: a
    // long-lived degraded context must honour the configured budgets.
    if (options.cache.boundsFramework()) {
        steps_.setCacheBudget(options.cache);
        sim_.costModel().setCacheBudgets(options.cache);
    }
}

solver::SolverResult
DegradedContext::optimize(const model::ModelConfig &model,
                          const solver::SolveHints *hints,
                          const solver::SolveBudget &budget)
{
    const model::ComputeGraph graph =
        model::ComputeGraph::transformer(model);
    solver::DlsSolver solver(sim_, options_.solver, &eval_, &steps_);
    return solver.solve(graph, hints, budget);
}

std::shared_ptr<DegradedContext>
TempFramework::degradedContext(const hw::FaultMap &faults) const
{
    return std::make_shared<DegradedContext>(wafer_->config(), faults,
                                             options_, pool_.get());
}

solver::SolverResult
TempFramework::optimizeWithFaults(const model::ModelConfig &model,
                                  const hw::FaultMap &faults) const
{
    return optimizeWithFaults(model, faults, solver::SolveBudget{});
}

solver::SolverResult
TempFramework::optimizeWithFaults(const model::ModelConfig &model,
                                  const hw::FaultMap &faults,
                                  const solver::SolveBudget &budget) const
{
    // The one-shot path: build a context, solve cold, discard — the
    // historical behaviour of FaultRequest. Long-lived callers (the
    // scenario engine) hold the context instead.
    return degradedContext(faults)->optimize(model, nullptr, budget);
}

baselines::TunedBaseline
TempFramework::evaluateBaseline(baselines::BaselineKind kind,
                                tcme::MappingEngineKind engine,
                                const model::ModelConfig &model) const
{
    parallel::TrainingOptions opts = options_.training;
    if (kind == baselines::BaselineKind::Megatron1)
        opts.zero1_optimizer = false;  // predates the distributed optimizer
    sim::TrainingSimulator engine_sim(*wafer_, tcme::MappingPolicy{engine},
                                      opts);
    baselines::BaselineGenerator generator(engine_sim, pool_.get());
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    return generator.tune(kind, graph);
}

sim::PerfReport
TempFramework::evaluateStrategy(const model::ModelConfig &model,
                                const parallel::ParallelSpec &spec) const
{
    const model::ComputeGraph graph = model::ComputeGraph::transformer(model);
    return sim_->simulate(graph, spec);
}

}  // namespace temp::core
