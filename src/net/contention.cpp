#include "net/contention.hpp"

#include <algorithm>

#include "common/kernels.hpp"
#include "common/logging.hpp"
#include "net/collective.hpp"

namespace temp::net {

void
LinkLoadMap::add(const Route &route, double bytes)
{
    for (LinkId link : route.links) {
        if (marked_[link] == 0) {
            marked_[link] = 1;
            touched_.push_back(link);
        }
        loads_[link] += bytes;
    }
}

void
LinkLoadMap::remove(const Route &route, double bytes)
{
    // The mark stays: dropping it would need an O(touched) membership
    // check per re-add, and a removed-to-zero link still contributes an
    // exact +0.0 to the stats scans.
    for (LinkId link : route.links) {
        loads_[link] -= bytes;
        if (loads_[link] < 0.0)
            loads_[link] = 0.0;
    }
}

void
LinkLoadMap::reset(int link_count)
{
    if (link_count != linkCount()) {
        loads_.assign(link_count, 0.0);
        marked_.assign(link_count, 0);
    } else {
        for (LinkId link : touched_) {
            loads_[link] = 0.0;
            marked_[link] = 0;
        }
    }
    touched_.clear();
}

LinkId
LinkLoadMap::maxLoadLink() const
{
    // The former dense scan returned the smallest link id among the
    // maxima (ascending order + strictly-greater). The touched list is
    // insertion-ordered, so ties break on the id explicitly.
    LinkId best = -1;
    double best_load = -1.0;
    for (LinkId link : touched_) {
        const double load = loads_[link];
        if (load > best_load || (load == best_load && link < best)) {
            best_load = load;
            best = link;
        }
    }
    // All-zero loads: the dense scan picked link 0 (0.0 > -1.0 at the
    // first link), whether or not anything was ever touched.
    if (best_load <= 0.0)
        return linkCount() > 0 ? 0 : -1;
    return best;
}

double
LinkLoadMap::maxLoad() const
{
    double best = 0.0;
    for (LinkId link : touched_)
        best = std::max(best, loads_[link]);
    return best;
}

double
LinkLoadMap::totalLoad() const
{
    // Summed in ascending link order, exactly like the former dense
    // scan: untouched links contributed +0.0, the identity on this
    // non-negative accumulation, so skipping them is bit-identical.
    std::vector<LinkId> ordered(touched_);
    std::sort(ordered.begin(), ordered.end());
    double total = 0.0;
    for (LinkId link : ordered)
        total += loads_[link];
    return total;
}

int
LinkLoadMap::activeLinkCount() const
{
    int active = 0;
    for (LinkId link : touched_)
        if (loads_[link] > 0.0)
            ++active;
    return active;
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

}  // namespace

PhaseTiming
ContentionModel::evaluate(std::span<const Flow> flows) const
{
    PhaseTiming timing;
    if (flows.empty())
        return timing;

    PhaseScratch &scratch = phaseScratch();
    scratch.prepare(topo_.linkCount());
    for (const Flow &flow : flows) {
        if (flow.bytes <= 0.0)
            continue;
        const std::vector<LinkId> &links = flow.route.links();
        kernels::depositLinks(scratch.loads.data(), scratch.stamp.data(),
                              scratch.epoch, links.data(),
                              static_cast<int>(links.size()), flow.bytes);
        timing.total_bytes += flow.bytes;
        timing.link_bytes += flow.bytes * flow.route.hops();
        timing.max_hops = std::max(timing.max_hops, flow.route.hops());
    }
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

namespace {

/// Folds one phase's timing into a running sequence total.
void
accumulatePhase(PhaseTiming &total, const PhaseTiming &t,
                double fabric_capacity, double &busy_capacity_time)
{
    total.time_s += t.time_s;
    total.serial_time_s += t.serial_time_s;
    total.total_bytes += t.total_bytes;
    total.link_bytes += t.link_bytes;
    total.max_hops = std::max(total.max_hops, t.max_hops);
    if (t.bottleneck_bytes > total.bottleneck_bytes) {
        total.bottleneck_bytes = t.bottleneck_bytes;
        total.bottleneck_link = t.bottleneck_link;
    }
    busy_capacity_time += t.time_s * fabric_capacity;
}

}  // namespace

PhaseTiming
ContentionModel::evaluateSequence(const CommSchedule &schedule) const
{
    PhaseTiming total;
    double busy_capacity_time = 0.0;
    // Each stored run is evaluated once and folded in once per executed
    // round, so the accumulation order matches the expanded schedule.
    for (int i = 0; i < schedule.runCount(); ++i) {
        const PhaseTiming t =
            schedule.soaReady()
                ? evaluateSoaRound(schedule.soa(), schedule.runBegin(i),
                                   schedule.runEnd(i))
                : evaluate(schedule.run(i));
        for (std::uint32_t k = 0; k < schedule.repeat(i); ++k)
            accumulatePhase(total, t, fabric_capacity_,
                            busy_capacity_time);
    }
    if (busy_capacity_time > 0.0)
        total.bandwidth_utilization = total.link_bytes / busy_capacity_time;
    return total;
}

PhaseTiming
ContentionModel::evaluateSequence(
    const std::vector<std::vector<Flow>> &phases) const
{
    PhaseTiming total;
    double busy_capacity_time = 0.0;
    for (const auto &phase : phases) {
        accumulatePhase(total, evaluate(phase), fabric_capacity_,
                        busy_capacity_time);
    }
    if (busy_capacity_time > 0.0)
        total.bandwidth_utilization = total.link_bytes / busy_capacity_time;
    return total;
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
