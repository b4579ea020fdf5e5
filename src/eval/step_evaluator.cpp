#include "eval/step_evaluator.hpp"

namespace temp::eval {

using parallel::ParallelSpec;

namespace {

/// Memo-served reports charge their schedule work as hits.
void
markReportServed(sim::PerfReport &report)
{
    report.schedule_cache_hits += report.schedule_lowerings;
    report.schedule_lowerings = 0;
}

/// Appends one spec's content encoding to a step key.
void
appendSpecKey(std::string &key, const ParallelSpec &spec)
{
    key += std::to_string(spec.dp);
    key += ',';
    key += std::to_string(spec.fsdp);
    key += ',';
    key += std::to_string(spec.tp);
    key += ',';
    key += std::to_string(spec.sp);
    key += ',';
    key += std::to_string(spec.cp);
    key += ',';
    key += std::to_string(spec.tatp);
    key += ',';
    key += std::to_string(spec.pp);
    key += spec.coupled_sp ? ",c" : ",n";
}

}  // namespace

std::string
stepKey(std::uint64_t graph_fp, const std::vector<ParallelSpec> &specs)
{
    std::string key = std::to_string(graph_fp);
    for (const ParallelSpec &spec : specs) {
        key += '|';
        appendSpecKey(key, spec);
    }
    return key;
}

StepEvaluator::StepEvaluator(const sim::TrainingSimulator &simulator,
                             ThreadPool *pool)
    : sim_(simulator), pool_(pool != nullptr ? *pool : serial_)
{
    // Honest byte estimate: PerfReport owns a heap string
    // (strategy_desc) the default sizeof-based estimate would miss.
    cache_.setByteEstimate(
        [](const std::string &key, const sim::PerfReport &report) {
            return common::cacheByteEstimate(key) +
                   static_cast<long>(sizeof(report) +
                                     report.strategy_desc.capacity());
        });
}

sim::PerfReport
StepEvaluator::evaluate(const model::ComputeGraph &graph,
                        const std::vector<ParallelSpec> &per_op_specs,
                        common::BudgetGauge *gauge)
{
    return evaluateBatch(graph, {per_op_specs}, gauge).front();
}

sim::PerfReport
StepEvaluator::evaluate(const model::ComputeGraph &graph,
                        const ParallelSpec &spec,
                        common::BudgetGauge *gauge)
{
    return evaluate(graph,
                    std::vector<ParallelSpec>(
                        static_cast<std::size_t>(graph.opCount()), spec),
                    gauge);
}

std::vector<sim::PerfReport>
StepEvaluator::evaluateBatch(
    const model::ComputeGraph &graph,
    const std::vector<std::vector<ParallelSpec>> &assignments,
    common::BudgetGauge *gauge)
{
    // The batch is a solve-budget quantum: charge it whole (one
    // quantum per assignment, memo-served or not) and never look at
    // the gauge mid-batch — callers check between batches, which is
    // what keeps budget-truncated runs bit-exact.
    if (gauge != nullptr)
        gauge->charge(static_cast<long>(assignments.size()));
    const std::uint64_t graph_fp = model::graphFingerprint(graph);

    // Dedup: one slot per distinct assignment, every request maps to a
    // slot.
    std::vector<std::string> slot_key;
    std::vector<std::size_t> slot_request;
    std::vector<std::size_t> request_slot(assignments.size());
    std::unordered_map<std::string, std::size_t> slot_of;
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        auto [it, inserted] = slot_of.emplace(
            stepKey(graph_fp, assignments[i]), slot_key.size());
        if (inserted) {
            slot_key.push_back(it->first);
            slot_request.push_back(i);
        }
        request_slot[i] = it->second;
    }

    // Serve cached slots; simulate the misses in parallel. Each
    // simulation is independent and the simulator is thread-safe, so
    // slot s always holds the same bits for any thread count.
    std::vector<sim::PerfReport> slot_value(slot_key.size());
    std::vector<char> simulated(slot_key.size(), 0);
    std::vector<std::size_t> missing;
    for (std::size_t s = 0; s < slot_key.size(); ++s) {
        if (auto cached = cache_.get(slot_key[s]))
            slot_value[s] = std::move(*cached);
        else
            missing.push_back(s);
    }
    pool_.parallelFor(missing.size(), [&](std::size_t m) {
        const std::size_t s = missing[m];
        slot_value[s] = sim_.simulate(graph, assignments[slot_request[s]]);
        simulated[s] = 1;
    });
    for (std::size_t s : missing)
        cache_.insert(slot_key[s], slot_value[s]);

    // Expand slots into request order: the first request of a slot
    // simulated here charges its real lowerings; every other request is
    // a hit, and its served report charges its schedule work as hits.
    std::vector<sim::PerfReport> results(assignments.size());
    long sched_lowerings = 0;
    long sched_hits = 0;
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        const std::size_t s = request_slot[i];
        results[i] = slot_value[s];
        if (!simulated[s] || slot_request[s] != i)
            markReportServed(results[i]);
        sched_lowerings += results[i].schedule_lowerings;
        sched_hits += results[i].schedule_cache_hits;
    }
    const long sims = static_cast<long>(missing.size());
    sims_ += sims;
    cache_hits_ += static_cast<long>(assignments.size()) - sims;
    schedule_lowerings_ += sched_lowerings;
    schedule_cache_hits_ += sched_hits;
    return results;
}

StepStats
StepEvaluator::stats() const
{
    // Evictions of the report memo only: the cell and layout memos a
    // step query also touches belong to the cost model, and EvalStats
    // counts them.
    return {sims_.load(), cache_hits_.load(), schedule_lowerings_.load(),
            schedule_cache_hits_.load(), cache_.stats().evictions};
}

}  // namespace temp::eval
