#include "tcme/optimizer.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/logging.hpp"

namespace temp::tcme {

using net::Flow;
using net::LinkLoadMap;
using net::Route;

TrafficOptimizer::TrafficOptimizer(const net::Router &router)
    : TrafficOptimizer(router, Config())
{
}

TrafficOptimizer::TrafficOptimizer(const net::Router &router, Config config)
    : router_(router), config_(config)
{
}

OptimizationStats
TrafficOptimizer::optimize(net::CommSchedule &schedule) const
{
    OptimizationStats total;
    // The arena is rebuilt run by run through a per-thread scratch vector:
    // path merging can change a round's flow count, so rounds cannot be
    // rewritten in place. Flows are trivially copyable (a route is a
    // non-owning handle), so the copies write no shared state.
    // optimizePhase is a pure function of its flows, so each stored run
    // is optimized once and keeps its repeat; its stats count once per
    // executed round.
    net::CommSchedule rebuilt;
    rebuilt.payload_bytes = schedule.payload_bytes;
    rebuilt.feasible = schedule.feasible;
    rebuilt.reserve(schedule.flows().size(), schedule.runCount());
    thread_local std::vector<net::Flow> scratch;
    for (int i = 0; i < schedule.runCount(); ++i) {
        const std::span<const net::Flow> run = schedule.run(i);
        const std::uint32_t repeat = schedule.repeat(i);
        scratch.assign(run.begin(), run.end());
        const OptimizationStats s = optimizePhase(scratch);
        total.initial_max_load = std::max(total.initial_max_load,
                                          s.initial_max_load);
        total.final_max_load = std::max(total.final_max_load,
                                        s.final_max_load);
        total.iterations += s.iterations * static_cast<int>(repeat);
        total.reroutes += s.reroutes * static_cast<int>(repeat);
        total.merges += s.merges * static_cast<int>(repeat);
        total.phases += static_cast<int>(repeat);
        for (net::Flow &flow : scratch)
            rebuilt.addFlow(std::move(flow));
        rebuilt.sealRound(repeat);
    }
    schedule = std::move(rebuilt);
    return total;
}

namespace {

/// Appends the indices of the flows whose route crosses `mcl`, in
/// ascending order, to the cleared `hot`: one mask bit test per flow
/// below Route::kMaskLinks, a route scan above it.
void
collectHot(const std::vector<Flow> &flows, hw::LinkId mcl,
           std::vector<std::size_t> &hot)
{
    hot.clear();
    for (std::size_t i = 0; i < flows.size(); ++i)
        if (flows[i].route.crosses(mcl))
            hot.push_back(i);
}

}  // namespace

OptimizationStats
TrafficOptimizer::optimizePhase(std::vector<Flow> &flows) const
{
    OptimizationStats stats;
    stats.phases = 1;
    if (flows.empty())
        return stats;

    // Phase 1 happened upstream (flows carry initial routes). Build the
    // load picture in a per-thread map reused across phases.
    thread_local LinkLoadMap loads(0);
    loads.reset(router_.topology().linkCount());
    for (const Flow &flow : flows)
        loads.add(flow.route, flow.bytes);

    // Phase 2: bottleneck identification.
    hw::LinkId mcl = loads.maxLoadLink();
    double cur = loads.load(mcl);
    stats.initial_max_load = cur;
    double prev = 2.0 * cur;

    // Phases 3-5: iterate while the bottleneck keeps improving. The
    // flows crossing the bottleneck are collected once per iteration
    // and again only after a merge changed the flows; a reroute moves
    // routes but never adds, drops or reorders flows.
    thread_local std::vector<std::size_t> hot;
    while (cur < prev && cur > 0.0) {
        if (stats.iterations >= config_.max_iters)
            break;
        prev = cur;
        ++stats.iterations;

        collectHot(flows, mcl, hot);
        // First iteration only, while the loads are the initial deposit
        // (sums of adds, no remove residue): one flow alone on the
        // bottleneck leaves nothing to merge, and every link of its
        // (loop-free) route reads exactly its bytes, since none exceeds
        // the bottleneck. Lifted off, those links read exactly zero, so
        // no candidate peaks below its own route: the iteration would
        // change nothing and end the loop. A later iteration can see
        // residue ((a + b) - b need not equal a) and is run in full.
        if (hot.size() == 1 && stats.iterations == 1)
            break;
        if (config_.enable_merging) {
            const int merges = mergeDuplicates(flows, loads, hot);
            stats.merges += merges;
            if (merges > 0)
                collectHot(flows, mcl, hot);
        }
        if (config_.enable_rerouting)
            stats.reroutes += rerouteCongested(flows, loads, hot);

        mcl = loads.maxLoadLink();
        cur = loads.load(mcl);
    }
    // The last bottleneck reading is the final maximum, so no second
    // scan runs; clamped at 0 like maxLoad().
    stats.final_max_load = std::max(0.0, cur);
    return stats;
}

int
TrafficOptimizer::mergeDuplicates(std::vector<Flow> &flows,
                                  LinkLoadMap &loads,
                                  std::span<const std::size_t> hot) const
{
    // Duplicate payloads: same source, tag and size crossing the
    // bottleneck toward different destinations (e.g. a broadcast that
    // was lowered to unicasts). Fold them into one multicast tree.
    // Bucketed by sorting a per-thread list of (key, flow) entries:
    // buckets come out in key order with ascending flow indices, and
    // the reused lists allocate nothing once grown.
    struct Entry
    {
        hw::DieId src;
        int tag;
        long long bytes_q;
        std::size_t flow;
        auto operator<=>(const Entry &) const = default;
    };
    thread_local std::vector<Entry> entries;
    entries.clear();
    for (std::size_t i : hot) {
        const Flow &f = flows[i];
        entries.push_back({f.src, f.tag, static_cast<long long>(f.bytes), i});
    }
    std::sort(entries.begin(), entries.end());

    int merges = 0;
    thread_local std::vector<std::size_t> to_remove;
    thread_local std::vector<Flow> to_add;
    thread_local std::vector<hw::DieId> leaves;
    thread_local net::MulticastTree tree;
    to_remove.clear();
    to_add.clear();
    for (std::size_t begin = 0, end = 0; begin < entries.size();
         begin = end) {
        const Entry &key = entries[begin];
        for (end = begin + 1; end < entries.size(); ++end) {
            const Entry &e = entries[end];
            if (e.src != key.src || e.tag != key.tag ||
                e.bytes_q != key.bytes_q)
                break;
        }
        if (end - begin < 2)
            continue;
        const std::span<const Entry> bucket(entries.data() + begin,
                                            end - begin);
        // Build a multicast tree covering all destinations, into a
        // per-thread buffer.
        leaves.clear();
        for (const Entry &e : bucket)
            leaves.push_back(flows[e.flow].dst);
        net::buildMulticastTree(router_, key.src, leaves,
                                net::RoutePolicy::XY, tree);
        if (!tree.complete)
            continue;  // faults block a fault-free tree; keep unicasts
        // Tree payload: one copy per tree link instead of one per flow.
        const double bytes = flows[key.flow].bytes;
        double before = 0.0;
        for (const Entry &e : bucket)
            before += bytes * flows[e.flow].route.hops();
        const double after = bytes * static_cast<double>(tree.links.size());
        if (after >= before)
            continue;  // no savings; keep unicasts

        for (const Entry &e : bucket) {
            loads.remove(flows[e.flow].route, flows[e.flow].bytes);
            to_remove.push_back(e.flow);
        }
        for (hw::LinkId link : tree.links) {
            Flow branch;
            const hw::Link &l = router_.topology().link(link);
            branch.src = l.src;
            branch.dst = l.dst;
            branch.bytes = bytes;
            branch.tag = key.tag;
            branch.route = router_.linkRoute(link);
            loads.add(branch.route, branch.bytes);
            to_add.push_back(std::move(branch));
        }
        ++merges;
    }

    if (!to_remove.empty()) {
        // One stable compaction drops the merged flows (each index
        // appears once: a flow sits in one bucket); the tree branches
        // follow the survivors.
        std::sort(to_remove.begin(), to_remove.end());
        std::size_t out = to_remove.front();
        std::size_t next = 0;
        for (std::size_t i = out; i < flows.size(); ++i) {
            if (next < to_remove.size() && to_remove[next] == i)
                ++next;
            else
                flows[out++] = flows[i];
        }
        flows.resize(out);
        flows.insert(flows.end(), to_add.begin(), to_add.end());
    }
    return merges;
}

int
TrafficOptimizer::rerouteCongested(std::vector<Flow> &flows,
                                   LinkLoadMap &loads,
                                   std::vector<std::size_t> &hot) const
{
    // The flows crossing the bottleneck, largest first (moving big
    // flows helps most).
    std::sort(hot.begin(), hot.end(), [&](std::size_t a, std::size_t b) {
        return flows[a].bytes > flows[b].bytes;
    });

    int reroutes = 0;
    for (std::size_t i : hot) {
        Flow &flow = flows[i];
        loads.remove(flow.route, flow.bytes);

        // Current route's worst-link load once this flow is added back.
        auto route_peak = [&](const net::RouteRef &r) {
            double peak = 0.0;
            for (hw::LinkId link : r.links())
                peak = std::max(peak, loads.load(link) + flow.bytes);
            return peak;
        };

        // Candidates come from the router's memo, so the reroute loop
        // allocates nothing per flow.
        const std::span<const net::RouteRef> candidates =
            router_.candidateRouteRefs(flow.src, flow.dst);
        net::RouteRef best = flow.route;
        double best_peak = route_peak(flow.route);
        for (const net::RouteRef &cand : candidates) {
            const double peak = route_peak(cand);
            if (peak < best_peak) {
                best_peak = peak;
                best = cand;
            }
        }
        if (!best.sameLinks(flow.route)) {
            flow.route = best;
            ++reroutes;
        }
        loads.add(flow.route, flow.bytes);
    }
    return reroutes;
}

}  // namespace temp::tcme
