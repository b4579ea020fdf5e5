#include "eval/cost_evaluator.hpp"

#include <unordered_map>

namespace temp::eval {

using cost::OpCellKey;

ExactEvaluator::ExactEvaluator(const cost::WaferCostModel &model,
                               ThreadPool *pool, bool)
    : model_(model), pool_(pool != nullptr ? *pool : serial_)
{
    model_.shardMemosFor(pool_.threadCount());
}

cost::OpCostBreakdown
ExactEvaluator::evaluate(const model::ComputeGraph &graph,
                         const EvalRequest &request)
{
    return evaluateBatch(graph, {request}).front();
}

std::vector<std::shared_ptr<const cost::OpCell>>
ExactEvaluator::cells(const model::ComputeGraph &graph,
                      const std::vector<EvalRequest> &requests,
                      common::BudgetGauge *gauge)
{
    const std::uint64_t graph_fp = model::graphFingerprint(graph);

    // Serve resident cells through one bulk memo lookup (a warm batch
    // never wakes the pool and builds no slot map). The misses are
    // this batch's measurements: one slot per distinct missing (op,
    // spec) cell, so in-batch duplicates are hits at any thread count,
    // costed in parallel. Requests come op-major, so concurrent misses
    // almost always place different specs; a racing duplicate layout
    // build is discarded and counted once.
    std::vector<OpCellKey> keys;
    keys.reserve(requests.size());
    for (const EvalRequest &request : requests)
        keys.push_back({graph_fp, request.op_id, request.spec});
    std::vector<std::shared_ptr<const cost::OpCell>> cells(requests.size());
    model_.findCells(keys, cells.data());

    std::unordered_map<OpCellKey, std::size_t, cost::OpCellKeyHash> slot_of;
    std::vector<std::size_t> slot_request;  // first request of each slot
    std::vector<std::pair<std::size_t, std::size_t>> missed;  // (req, slot)
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (cells[i] != nullptr)
            continue;
        if (missed.empty()) {  // room for every request left to miss
            slot_of.reserve(requests.size() - i);
            slot_request.reserve(requests.size() - i);
            missed.reserve(requests.size() - i);
        }
        const auto [it, inserted] =
            slot_of.try_emplace(keys[i], slot_request.size());
        if (inserted)
            slot_request.push_back(i);
        missed.emplace_back(i, it->second);
    }
    std::vector<std::shared_ptr<const cost::OpCell>> built(
        slot_request.size());
    pool_.parallelFor(built.size(), [&](std::size_t s) {
        const EvalRequest &request = requests[slot_request[s]];
        built[s] = model_.addCell(graph, graph_fp, request.op_id,
                                  request.spec);
    });
    for (const auto &[i, s] : missed)
        cells[i] = built[s];

    const long n_measured = static_cast<long>(built.size());
    measurements_ += n_measured;
    cache_hits_ += static_cast<long>(requests.size()) - n_measured;
    // Batch complete: latch any wall/token expiry at this boundary.
    if (gauge != nullptr)
        gauge->exhausted();
    return cells;
}

std::vector<cost::OpCostBreakdown>
ExactEvaluator::evaluateBatch(const model::ComputeGraph &graph,
                              const std::vector<EvalRequest> &requests,
                              common::BudgetGauge *gauge)
{
    // A matrix entry is the cell plus its step phase.
    const auto batch = cells(graph, requests, gauge);
    std::vector<cost::OpCostBreakdown> results(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        results[i] = requests[i].include_step ? batch[i]->withStep()
                                              : batch[i]->breakdown;
    return results;
}

std::vector<double>
ExactEvaluator::evaluateTotals(const model::ComputeGraph &graph,
                               const std::vector<EvalRequest> &requests,
                               common::BudgetGauge *gauge)
{
    const auto batch = cells(graph, requests, gauge);
    std::vector<double> totals(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        totals[i] = batch[i]->entryTotal(requests[i].include_step);
    return totals;
}

EvalStats
ExactEvaluator::stats() const
{
    // Every unique cell placed its spec through one layout lookup, so
    // the layout hits are the cells minus the layouts they built: both
    // counts are unique, hence exact at any width (racing duplicate
    // cell costings add lookups, not cells).
    const long builds = model_.layoutBuilds();
    return {measurements_.load(),
            cache_hits_.load(),
            builds,
            model_.cellBuilds() - builds,
            model_.scheduleLowerings(),
            0,
            model_.cellMemoStats().evictions +
                model_.layoutMemoStats().evictions};
}

}  // namespace temp::eval
