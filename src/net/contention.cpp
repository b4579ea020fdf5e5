#include "net/contention.hpp"

#include <algorithm>
#include <bit>

#include "common/kernels.hpp"
#include "common/logging.hpp"
#include "net/collective.hpp"

namespace temp::net {

template <typename Fn>
void
LinkLoadMap::forEachTouched(Fn &&fn) const
{
    if (!masked_) {
        for (LinkId link : touched_)
            fn(link);
        return;
    }
    for (int word = 0; word < 2; ++word)
        for (std::uint64_t bits = touched_mask_[word]; bits != 0;
             bits &= bits - 1)
            fn(static_cast<LinkId>(word * 64 + std::countr_zero(bits)));
}

void
LinkLoadMap::reset(int link_count)
{
    if (link_count != linkCount()) {
        loads_.assign(static_cast<std::size_t>(link_count), 0.0);
        masked_ = link_count <= Route::kMaskLinks;
        marked_.assign(masked_ ? 0 : static_cast<std::size_t>(link_count),
                       0);
    } else {
        forEachTouched([this](LinkId link) { loads_[link] = 0.0; });
        for (LinkId link : touched_)
            marked_[link] = 0;
    }
    touched_mask_ = {};
    touched_.clear();
}

void
LinkLoadMap::mark(const Route &route)
{
    for (LinkId link : route.links) {
        if (marked_[link] == 0) {
            marked_[link] = 1;
            touched_.push_back(link);
        }
    }
}

LinkId
LinkLoadMap::maxLoadLink() const
{
    // Untouched links hold zero. The mask walks ascending ids, so the
    // strict compare keeps the first maximum, selected without a branch
    // (the comparisons are data-dependent); the list is in first-touch
    // order, so ties break on the id explicitly.
    LinkId best = -1;
    double best_load = -1.0;
    if (masked_) {
        forEachTouched([&](LinkId link) {
            const double load = loads_[link];
            const bool better = load > best_load;
            best_load = better ? load : best_load;
            best = better ? link : best;
        });
    } else {
        forEachTouched([&](LinkId link) {
            const double load = loads_[link];
            if (load > best_load || (load == best_load && link < best)) {
                best_load = load;
                best = link;
            }
        });
    }
    // All-zero loads: a dense scan's first maximum is link 0, whether
    // or not anything was ever touched.
    if (best_load <= 0.0)
        return linkCount() > 0 ? 0 : -1;
    return best;
}

double
LinkLoadMap::maxLoad() const
{
    double best = 0.0;
    forEachTouched(
        [&](LinkId link) { best = std::max(best, loads_[link]); });
    return best;
}

namespace {

/**
 * Per-thread scratch for phase evaluation: a dense load vector gated by
 * an epoch stamp per link. Depositing into a stale-stamped link claims
 * it (set, not add), so neither a zeroing pass nor a touched list is
 * needed between phases; the drain scan reads the stamps to skip
 * untouched links in id order (the same order the former
 * sort(touched) produced).
 */
struct PhaseScratch
{
    std::vector<double> loads;
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;

    void prepare(int link_count)
    {
        if (static_cast<int>(loads.size()) < link_count) {
            loads.resize(link_count, 0.0);
            stamp.resize(link_count, 0);
        }
        if (++epoch == 0) {
            // Stamp wraparound: clear so no stale stamp aliases the
            // recycled epoch value.
            std::fill(stamp.begin(), stamp.end(), 0u);
            epoch = 1;
        }
    }
};

PhaseScratch &
phaseScratch()
{
    static thread_local PhaseScratch scratch;
    return scratch;
}

}  // namespace

ContentionModel::ContentionModel(const hw::Topology &topo,
                                 double link_bandwidth, double hop_latency_s)
    : topo_(topo), link_bandwidth_(topo.linkCount(), link_bandwidth),
      hop_latency_s_(hop_latency_s)
{
    for (double bandwidth : link_bandwidth_)
        fabric_capacity_ += bandwidth;
}

ContentionModel::ContentionModel(const hw::Wafer &wafer, double hop_latency_s)
    : topo_(wafer.topology()), wafer_(&wafer),
      link_bandwidth_(topo_.linkCount()), hop_latency_s_(hop_latency_s)
{
    resnapshot();
}

void
ContentionModel::resnapshot()
{
    if (wafer_ == nullptr)
        return;
    fabric_capacity_ = 0.0;
    for (LinkId link = 0; link < topo_.linkCount(); ++link) {
        link_bandwidth_[link] = wafer_->linkBandwidth(link);
        fabric_capacity_ += link_bandwidth_[link];
    }
}

namespace {

/// Folds the drain scan's result into a deposited phase's timing.
void
finishDrain(PhaseTiming &timing, const PhaseScratch &scratch,
            const double *bandwidth, int link_count,
            double hop_latency_s, double fabric_capacity)
{
    const kernels::MaxDrain r = kernels::maxDrainArgmax(
        scratch.loads.data(), scratch.stamp.data(), scratch.epoch,
        bandwidth, link_count);
    if (r.dead_link >= 0)
        panic("ContentionModel: flow routed over dead link %d",
              r.dead_link);
    timing.serial_time_s = r.worst;
    timing.bottleneck_link = r.link;
    timing.bottleneck_bytes = r.link_load;
    timing.time_s = r.worst + timing.max_hops * hop_latency_s;

    // Aggregate utilisation: bytes-hops actually moved vs. what the whole
    // fabric could move during the phase.
    if (timing.time_s > 0.0 && fabric_capacity > 0.0) {
        timing.bandwidth_utilization =
            timing.link_bytes / (fabric_capacity * timing.time_s);
    }
}

/// Deposits each flow's bytes_of(flow) on its route's links (skipping
/// flows that carry nothing) and sums the phase's byte counts.
template <typename BytesOf>
void
depositFlows(PhaseTiming &timing, PhaseScratch &scratch,
             std::span<const Flow> flows, BytesOf bytes_of)
{
    for (const Flow &flow : flows) {
        const double bytes = bytes_of(flow);
        if (bytes <= 0.0)
            continue;
        const std::vector<LinkId> &links = flow.route.links();
        kernels::depositLinks(scratch.loads.data(), scratch.stamp.data(),
                              scratch.epoch, links.data(),
                              static_cast<int>(links.size()), bytes);
        timing.total_bytes += bytes;
        timing.link_bytes += bytes * flow.route.hops();
        timing.max_hops = std::max(timing.max_hops, flow.route.hops());
    }
}

}  // namespace

PhaseTiming
ContentionModel::evaluate(std::span<const Flow> flows) const
{
    PhaseTiming timing;
    if (flows.empty())
        return timing;

    PhaseScratch &scratch = phaseScratch();
    scratch.prepare(topo_.linkCount());
    depositFlows(timing, scratch, flows,
                 [](const Flow &flow) { return flow.bytes; });
    finishDrain(timing, scratch, link_bandwidth_.data(), topo_.linkCount(),
                hop_latency_s_, fabric_capacity_);
    return timing;
}

PhaseTiming
ContentionModel::evaluate(std::span<const Flow> flows, double bytes) const
{
    PhaseTiming timing;
    if (flows.empty())
        return timing;

    PhaseScratch &scratch = phaseScratch();
    scratch.prepare(topo_.linkCount());
    depositFlows(timing, scratch, flows,
                 [bytes](const Flow &) { return bytes; });
    finishDrain(timing, scratch, link_bandwidth_.data(), topo_.linkCount(),
                hop_latency_s_, fabric_capacity_);
    return timing;
}

PhaseTiming
ContentionModel::evaluateSoaRound(const FlowSoa &soa, std::uint32_t begin,
                                  std::uint32_t end) const
{
    PhaseTiming timing;
    if (begin == end)
        return timing;

    PhaseScratch &scratch = phaseScratch();
    scratch.prepare(topo_.linkCount());
    for (std::uint32_t f = begin; f < end; ++f) {
        const double bytes = soa.bytes[f];
        if (bytes <= 0.0)
            continue;
        const std::uint32_t lb = soa.link_begin[f];
        const std::uint32_t le = soa.link_begin[f + 1];
        kernels::depositLinks(scratch.loads.data(), scratch.stamp.data(),
                              scratch.epoch, soa.links.data() + lb,
                              static_cast<int>(le - lb), bytes);
        timing.total_bytes += bytes;
        timing.link_bytes += bytes * soa.hops[f];
        timing.max_hops =
            std::max<int>(timing.max_hops, soa.hops[f]);
    }
    finishDrain(timing, scratch, link_bandwidth_.data(), topo_.linkCount(),
                hop_latency_s_, fabric_capacity_);
    return timing;
}

void
PhaseSequence::add(const PhaseTiming &t, std::uint32_t repeat)
{
    for (std::uint32_t k = 0; k < repeat; ++k) {
        total_.time_s += t.time_s;
        total_.serial_time_s += t.serial_time_s;
        total_.total_bytes += t.total_bytes;
        total_.link_bytes += t.link_bytes;
        total_.max_hops = std::max(total_.max_hops, t.max_hops);
        if (t.bottleneck_bytes > total_.bottleneck_bytes) {
            total_.bottleneck_bytes = t.bottleneck_bytes;
            total_.bottleneck_link = t.bottleneck_link;
        }
        busy_capacity_time_ += t.time_s * fabric_capacity_;
    }
}

PhaseTiming
PhaseSequence::total() const
{
    PhaseTiming total = total_;
    if (busy_capacity_time_ > 0.0)
        total.bandwidth_utilization = total.link_bytes / busy_capacity_time_;
    return total;
}

PhaseTiming
ContentionModel::evaluateSequence(const CommSchedule &schedule) const
{
    // Each stored run is evaluated once and folded in once per executed
    // round, so the accumulation order matches the expanded schedule.
    PhaseSequence sequence(fabric_capacity_);
    for (int i = 0; i < schedule.runCount(); ++i) {
        sequence.add(schedule.soaReady()
                         ? evaluateSoaRound(schedule.soa(),
                                            schedule.runBegin(i),
                                            schedule.runEnd(i))
                         : evaluate(schedule.run(i)),
                     schedule.repeat(i));
    }
    return sequence.total();
}

PhaseTiming
ContentionModel::evaluateSequence(
    const std::vector<std::vector<Flow>> &phases) const
{
    PhaseSequence sequence(fabric_capacity_);
    for (const auto &phase : phases)
        sequence.add(evaluate(phase));
    return sequence.total();
}

double
ContentionModel::flowTime(const Flow &flow) const
{
    if (flow.bytes <= 0.0 || flow.route.empty())
        return 0.0;
    double min_bw = link_bandwidth_[flow.route.links().front()];
    for (LinkId link : flow.route.links())
        min_bw = std::min(min_bw, link_bandwidth_[link]);
    if (min_bw <= 0.0)
        panic("ContentionModel::flowTime: dead link on route");
    return flow.bytes / min_bw + flow.route.hops() * hop_latency_s_;
}

}  // namespace temp::net
