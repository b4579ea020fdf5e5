#include "eval/step_evaluator.hpp"

#include <charconv>
#include <memory>

namespace temp::eval {

using parallel::ParallelSpec;

namespace {

/// Writes one spec's content encoding of a step key at `out` and
/// returns the end of what it wrote (at most kSpecKeyChars chars).
char *
writeSpecKey(char *out, char *end, const ParallelSpec &spec)
{
    for (int degree : {spec.dp, spec.fsdp, spec.tp, spec.sp, spec.cp,
                       spec.tatp, spec.pp}) {
        if (degree >= 0 && degree < 10)  // most degrees: one digit
            *out++ = static_cast<char>('0' + degree);
        else
            out = std::to_chars(out, end, degree).ptr;
        *out++ = ',';
    }
    *out++ = spec.coupled_sp ? 'c' : 'n';
    return out;
}

/// '|', seven ints of up to 11 chars each and their commas, and c/n.
constexpr std::size_t kSpecKeyChars = 1 + 7 * 12 + 1;

/// Appends stepKey(graph_fp, specs) to `out`.
void
appendStepKey(std::string &out, std::uint64_t graph_fp,
              const std::vector<ParallelSpec> &specs)
{
    // Decimal as std::to_string prints it, written into a buffer sized
    // for the longest key (on the stack for any usual graph), then
    // appended in one piece.
    char stack[4096];
    const std::size_t bound = 20 + kSpecKeyChars * specs.size();
    std::unique_ptr<char[]> heap;
    if (bound > sizeof stack)
        heap = std::make_unique_for_overwrite<char[]>(bound);
    char *const begin = heap != nullptr ? heap.get() : stack;
    char *const end = begin + bound;
    char *last = std::to_chars(begin, end, graph_fp).ptr;
    for (const ParallelSpec &spec : specs) {
        *last++ = '|';
        last = writeSpecKey(last, end, spec);
    }
    out.append(begin, last);
}

}  // namespace

std::string
stepKey(std::uint64_t graph_fp, const std::vector<ParallelSpec> &specs)
{
    std::string key;
    appendStepKey(key, graph_fp, specs);
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
    fault_listener_id_ =
        sim_.wafer().addFaultListener([this] { cache_.clear(); });
}

StepEvaluator::~StepEvaluator()
{
    sim_.wafer().removeFaultListener(fault_listener_id_);
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

    // Every assignment's key goes into one arena (keys of one graph
    // are about equally long, so it grows once after the first), and
    // the memo is probed with views of it: only an inserted report
    // gets a key string of its own.
    std::string arena;
    std::vector<std::size_t> key_end(assignments.size());
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        appendStepKey(arena, graph_fp, assignments[i]);
        key_end[i] = arena.size();
        if (i == 0)
            arena.reserve(arena.size() * assignments.size());
    }

    // Dedup: one slot per distinct assignment, every request maps to a
    // slot.
    std::vector<std::string_view> slot_key;
    std::vector<std::size_t> slot_request;
    std::vector<std::size_t> request_slot(assignments.size());
    std::unordered_map<std::string_view, std::size_t> slot_of;
    slot_key.reserve(assignments.size());
    slot_request.reserve(assignments.size());
    slot_of.reserve(assignments.size());
    for (std::size_t i = 0, begin = 0; i < assignments.size(); ++i) {
        const std::string_view key(arena.data() + begin, key_end[i] - begin);
        begin = key_end[i];
        auto [it, inserted] = slot_of.try_emplace(key, slot_key.size());
        if (inserted) {
            slot_key.push_back(key);
            slot_request.push_back(i);
        }
        request_slot[i] = it->second;
    }

    // Serve cached slots; simulate the misses in parallel. Each
    // simulation is independent and the simulator is thread-safe, so
    // slot s always holds the same bits for any thread count.
    std::vector<sim::PerfReport> slot_value(slot_key.size());
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
    });
    for (std::size_t s : missing)
        cache_.insert(std::string(slot_key[s]), slot_value[s]);

    const long sims = static_cast<long>(missing.size());
    sims_ += sims;
    cache_hits_ += static_cast<long>(assignments.size()) - sims;
    // Expand slots into request order (slot s is request s when the
    // batch holds no duplicate).
    if (slot_value.size() == assignments.size())
        return slot_value;
    std::vector<sim::PerfReport> results(assignments.size());
    for (std::size_t i = 0; i < assignments.size(); ++i)
        results[i] = slot_value[request_slot[i]];
    return results;
}

StepStats
StepEvaluator::stats() const
{
    // Evictions of the report memo only: the cell and layout memos a
    // step query also touches belong to the cost model, and EvalStats
    // counts them.
    return {sims_.load(), cache_hits_.load(), cache_.stats().evictions};
}

}  // namespace temp::eval
