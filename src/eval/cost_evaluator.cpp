#include "eval/cost_evaluator.hpp"

#include <unordered_map>

namespace temp::eval {

using cost::OpCellKey;

ExactEvaluator::ExactEvaluator(const cost::WaferCostModel &model,
                               ThreadPool *pool, bool)
    : model_(model), pool_(pool != nullptr ? *pool : serial_)
{
}

cost::OpCostBreakdown
ExactEvaluator::evaluate(const model::ComputeGraph &graph,
                         const EvalRequest &request)
{
    return evaluateBatch(graph, {request}).front();
}

std::vector<cost::OpCostBreakdown>
ExactEvaluator::evaluateBatch(const model::ComputeGraph &graph,
                              const std::vector<EvalRequest> &requests,
                              common::BudgetGauge *gauge)
{
    const std::uint64_t graph_fp = model::graphFingerprint(graph);

    // One slot per distinct (op, spec) cell; every request maps to a
    // slot, so in-batch duplicates are hits at any thread count.
    std::unordered_map<OpCellKey, std::size_t, cost::OpCellKeyHash> slot_of;
    std::vector<std::size_t> request_slot(requests.size());
    std::vector<std::size_t> slot_request;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const EvalRequest &request = requests[i];
        const auto [it, inserted] = slot_of.try_emplace(
            OpCellKey{graph_fp, request.op_id, request.spec},
            slot_request.size());
        if (inserted)
            slot_request.push_back(i);
        request_slot[i] = it->second;
    }

    // Serve resident cells serially (a warm batch never wakes the
    // pool); the misses are this batch's measurements, costed in
    // parallel. Requests come op-major, so concurrent misses almost
    // always place different specs; a racing duplicate layout build is
    // discarded and counted once.
    std::vector<std::shared_ptr<const cost::OpCell>> cells(
        slot_request.size());
    std::vector<std::size_t> missing;
    for (std::size_t s = 0; s < cells.size(); ++s) {
        const EvalRequest &request = requests[slot_request[s]];
        cells[s] = model_.findCell(graph_fp, request.op_id, request.spec);
        if (cells[s] == nullptr)
            missing.push_back(s);
    }
    pool_.parallelFor(missing.size(), [&](std::size_t m) {
        const EvalRequest &request = requests[slot_request[missing[m]]];
        cells[missing[m]] = model_.addCell(graph, graph_fp, request.op_id,
                                           request.spec);
    });

    // A matrix entry is the cell plus its step phase.
    std::vector<cost::OpCostBreakdown> results(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const cost::OpCell &cell = *cells[request_slot[i]];
        results[i] = requests[i].include_step ? cell.withStep()
                                              : cell.breakdown;
    }
    const long n_measured = static_cast<long>(missing.size());
    measurements_ += n_measured;
    cache_hits_ += static_cast<long>(requests.size()) - n_measured;
    // Batch complete: latch any wall/token expiry at this boundary.
    if (gauge != nullptr)
        gauge->exhausted();
    return results;
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
