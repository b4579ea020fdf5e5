#include "net/collective.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace temp::net {

const char *
collectiveKindName(CollectiveKind kind)
{
    switch (kind) {
      case CollectiveKind::AllReduce: return "all-reduce";
      case CollectiveKind::AllGather: return "all-gather";
      case CollectiveKind::ReduceScatter: return "reduce-scatter";
      case CollectiveKind::Broadcast: return "broadcast";
      case CollectiveKind::P2P: return "p2p";
    }
    return "?";
}

void
CommSchedule::finalize()
{
    if (soa_valid_)
        return;
    const std::size_t n = flows_.size();
    soa_.bytes.resize(n);
    soa_.hops.resize(n);
    soa_.link_begin.resize(n + 1);
    std::size_t total_links = 0;
    for (const Flow &flow : flows_)
        total_links += flow.route.links().size();
    soa_.links.clear();
    soa_.links.reserve(total_links);
    for (std::size_t f = 0; f < n; ++f) {
        const Flow &flow = flows_[f];
        const std::vector<LinkId> &links = flow.route.links();
        soa_.bytes[f] = flow.bytes;
        soa_.hops[f] = static_cast<std::int32_t>(links.size());
        soa_.link_begin[f] =
            static_cast<std::uint32_t>(soa_.links.size());
        soa_.links.insert(soa_.links.end(), links.begin(), links.end());
    }
    soa_.link_begin[n] = static_cast<std::uint32_t>(soa_.links.size());
    soa_valid_ = true;
}

void
CommSchedule::overlay(const CommSchedule &other)
{
    const CommSchedule *pair[] = {this, &other};
    *this = combine(pair);
}

CommSchedule
CommSchedule::combine(std::span<const CommSchedule *const> schedules)
{
    CommSchedule out;
    std::size_t total_flows = 0;
    std::size_t total_runs = 0;
    for (const CommSchedule *s : schedules) {
        total_flows += s->flows_.size();
        total_runs += s->runs_.size();
        out.payload_bytes += s->payload_bytes;
        out.feasible = out.feasible && s->feasible;
    }
    out.reserve(total_flows, total_runs);

    // Per part: its current run and the executions of it still owed.
    // Every step emits one output run covering the active parts'
    // current runs (in part order, as the per-round overlay did), as
    // long as the shortest of them still repeats.
    struct Cursor
    {
        int run = 0;
        std::uint32_t left = 0;
    };
    std::vector<Cursor> cursors(schedules.size());
    for (std::size_t p = 0; p < schedules.size(); ++p)
        if (!schedules[p]->runs_.empty())
            cursors[p].left = schedules[p]->runs_[0].repeat;
    for (;;) {
        std::uint32_t step = 0;
        for (std::size_t p = 0; p < schedules.size(); ++p) {
            const std::uint32_t left = cursors[p].left;
            if (left > 0 && (step == 0 || left < step))
                step = left;
        }
        if (step == 0)
            break;
        for (std::size_t p = 0; p < schedules.size(); ++p) {
            Cursor &c = cursors[p];
            if (c.left == 0)
                continue;
            const CommSchedule &part = *schedules[p];
            const std::span<const Flow> flows = part.run(c.run);
            out.flows_.insert(out.flows_.end(), flows.begin(), flows.end());
            c.left -= step;
            if (c.left == 0 && ++c.run < part.runCount())
                c.left = part.runs_[c.run].repeat;
        }
        out.sealRound(step);
    }
    return out;
}

int
CommSchedule::roundCount() const
{
    int count = 0;
    for (const Run &run : runs_)
        count += static_cast<int>(run.repeat);
    return count;
}

std::span<const Flow>
CommSchedule::round(int r) const
{
    int i = 0;
    while (r >= static_cast<int>(runs_[i].repeat))
        r -= static_cast<int>(runs_[i++].repeat);
    return run(i);
}

std::size_t
CommSchedule::flowCount() const
{
    std::size_t count = 0;
    for (int i = 0; i < runCount(); ++i)
        count += run(i).size() * repeat(i);
    return count;
}

double
CommSchedule::linkBytes() const
{
    // Accumulated once per executed round, in round order, so the sum
    // is bit-identical to walking the expanded schedule.
    double total = 0.0;
    for (int i = 0; i < runCount(); ++i) {
        const std::span<const Flow> flows = run(i);
        for (std::uint32_t k = 0; k < repeat(i); ++k)
            for (const Flow &flow : flows)
                total += flow.bytes * flow.route.hops();
    }
    return total;
}

MulticastTree
buildMulticastTree(const Router &router, DieId root,
                   const std::vector<DieId> &leaves, RoutePolicy policy)
{
    MulticastTree tree;
    tree.root = root;
    tree.leaves = leaves;
    // Collect every path link into a flat vector, then sort+unique: no
    // tree-node allocation per link, same ascending order the former
    // std::set produced.
    std::vector<LinkId> links;
    for (DieId leaf : leaves) {
        if (leaf == root)
            continue;
        const RouteRef route = router.safeRouteRef(root, leaf, policy);
        if (!route.valid()) {
            tree.complete = false;
            continue;
        }
        tree.depth = std::max(tree.depth, route.hops());
        links.insert(links.end(), route.links().begin(),
                     route.links().end());
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    tree.links = std::move(links);
    return tree;
}

CollectiveScheduler::CollectiveScheduler(const Router &router,
                                         RoutePolicy policy)
    : router_(router), policy_(policy)
{
}

CommSchedule
CollectiveScheduler::schedule(const CollectiveTask &task) const
{
    switch (task.kind) {
      case CollectiveKind::AllReduce:
        return ringAllReduce(task.group, task.bytes, task.tag);
      case CollectiveKind::AllGather:
        return ringAllGather(task.group, task.bytes, task.tag);
      case CollectiveKind::ReduceScatter:
        return ringReduceScatter(task.group, task.bytes, task.tag);
      case CollectiveKind::Broadcast:
        return broadcast(task.group, task.bytes, task.tag);
      case CollectiveKind::P2P:
        if (task.group.size() != 2)
            panic("P2P task needs exactly 2 members, got %zu",
                  task.group.size());
        return p2p(task.group[0], task.group[1], task.bytes, task.tag);
    }
    panic("CollectiveScheduler::schedule: unknown kind");
}

CommSchedule
CollectiveScheduler::ringPasses(const std::vector<DieId> &group,
                                double shard_bytes, int tag,
                                int passes) const
{
    CommSchedule sched;
    const int n = static_cast<int>(group.size());
    if (n <= 1 || shard_bytes <= 0.0)
        return sched;

    // Every round moves a shard over the same n ring hops, so the
    // whole lowering is one run of n flows.
    sched.reserve(static_cast<std::size_t>(n), 1);
    for (int i = 0; i < n; ++i) {
        Flow flow;
        flow.src = group[i];
        flow.dst = group[(i + 1) % n];
        flow.bytes = shard_bytes;
        flow.route = router_.safeRouteRef(flow.src, flow.dst, policy_);
        if (!flow.route.valid())
            sched.feasible = false;
        flow.tag = tag;
        sched.addFlow(std::move(flow));
    }
    sched.sealRound(static_cast<std::uint32_t>(passes * (n - 1)));
    const double pass_payload = shard_bytes * n * (n - 1);
    for (int pass = 0; pass < passes; ++pass)
        sched.payload_bytes += pass_payload;
    return sched;
}

CommSchedule
CollectiveScheduler::ringAllGather(const std::vector<DieId> &group,
                                   double shard_bytes, int tag) const
{
    return ringPasses(group, shard_bytes, tag, 1);
}

CommSchedule
CollectiveScheduler::ringReduceScatter(const std::vector<DieId> &group,
                                       double tensor_bytes, int tag) const
{
    const int n = static_cast<int>(group.size());
    if (n <= 1 || tensor_bytes <= 0.0)
        return CommSchedule{};
    // Same flow pattern as all-gather with tensor/N shards.
    return ringPasses(group, tensor_bytes / n, tag, 1);
}

CommSchedule
CollectiveScheduler::ringAllReduce(const std::vector<DieId> &group,
                                   double tensor_bytes, int tag) const
{
    const int n = static_cast<int>(group.size());
    if (n <= 1 || tensor_bytes <= 0.0)
        return CommSchedule{};
    // Reduce-scatter then all-gather: two passes over the same hops.
    return ringPasses(group, tensor_bytes / n, tag, 2);
}

CommSchedule
CollectiveScheduler::treeAllReduce(const std::vector<DieId> &group,
                                   double tensor_bytes, int tag) const
{
    CommSchedule sched;
    const int n = static_cast<int>(group.size());
    if (n <= 1 || tensor_bytes <= 0.0)
        return sched;

    auto emit_round = [&](int step, bool reduce_phase) {
        for (int i = 0; i < n; ++i) {
            // Reduce phase: nodes at odd multiples of `step` send to the
            // even multiple below; broadcast mirrors the transfers.
            if (i % (2 * step) != step)
                continue;
            const int peer = i - step;
            Flow flow;
            flow.src = reduce_phase ? group[i] : group[peer];
            flow.dst = reduce_phase ? group[peer] : group[i];
            flow.bytes = tensor_bytes;
            flow.route = router_.safeRouteRef(flow.src, flow.dst, policy_);
            if (!flow.route.valid())
                sched.feasible = false;
            flow.tag = tag;
            sched.addFlow(std::move(flow));
            sched.payload_bytes += tensor_bytes;
        }
        if (sched.openFlowCount() > 0)
            sched.sealRound();
    };

    for (int step = 1; step < n; step *= 2)
        emit_round(step, /*reduce_phase=*/true);
    int top = 1;
    while (top * 2 < n)
        top *= 2;
    for (int step = top; step >= 1; step /= 2)
        emit_round(step, /*reduce_phase=*/false);
    return sched;
}

CommSchedule
CollectiveScheduler::bestAllReduce(const std::vector<DieId> &group,
                                   double tensor_bytes,
                                   double link_bandwidth,
                                   double hop_latency_s, int tag) const
{
    const int n = static_cast<int>(group.size());
    if (n <= 1)
        return CommSchedule{};
    const double ring_time = collectiveLowerBoundTime(
        CollectiveKind::AllReduce, n, tensor_bytes, link_bandwidth,
        hop_latency_s);
    const double log2n = std::ceil(std::log2(static_cast<double>(n)));
    const double tree_time =
        2.0 * log2n * (tensor_bytes / link_bandwidth + hop_latency_s);
    return tree_time < ring_time ? treeAllReduce(group, tensor_bytes, tag)
                                 : ringAllReduce(group, tensor_bytes, tag);
}

CommSchedule
CollectiveScheduler::broadcast(const std::vector<DieId> &group, double bytes,
                               int tag) const
{
    CommSchedule sched;
    if (group.size() <= 1 || bytes <= 0.0)
        return sched;

    const DieId root = group[0];
    std::vector<DieId> leaves(group.begin() + 1, group.end());
    const MulticastTree tree =
        buildMulticastTree(router_, root, leaves, policy_);
    sched.feasible = tree.complete;

    sched.reserve(tree.links.size(), 1);
    for (LinkId link : tree.links) {
        const hw::Link &l = router_.topology().link(link);
        Flow flow;
        flow.src = l.src;
        flow.dst = l.dst;
        flow.bytes = bytes;
        flow.route = router_.linkRoute(link);
        flow.tag = tag;
        sched.addFlow(std::move(flow));
    }
    sched.sealRound();
    sched.payload_bytes = bytes * static_cast<double>(leaves.size());
    return sched;
}

CommSchedule
CollectiveScheduler::p2p(DieId src, DieId dst, double bytes, int tag) const
{
    CommSchedule sched;
    if (src == dst || bytes <= 0.0)
        return sched;
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.bytes = bytes;
    flow.route = router_.safeRouteRef(src, dst, policy_);
    if (!flow.route.valid())
        sched.feasible = false;
    flow.tag = tag;
    sched.addFlow(std::move(flow));
    sched.sealRound();
    sched.payload_bytes = bytes;
    return sched;
}

double
collectiveLowerBoundTime(CollectiveKind kind, int group_size, double bytes,
                         double link_bandwidth, double hop_latency_s)
{
    if (group_size <= 1 || bytes <= 0.0)
        return 0.0;
    const double n = static_cast<double>(group_size);
    switch (kind) {
      case CollectiveKind::AllReduce:
        return 2.0 * (n - 1.0) / n * bytes / link_bandwidth +
               2.0 * (n - 1.0) * hop_latency_s;
      case CollectiveKind::AllGather:
      case CollectiveKind::ReduceScatter:
        return (n - 1.0) * bytes / link_bandwidth +
               (n - 1.0) * hop_latency_s;
      case CollectiveKind::Broadcast:
        return bytes / link_bandwidth + hop_latency_s;
      case CollectiveKind::P2P:
        return bytes / link_bandwidth + hop_latency_s;
    }
    return 0.0;
}

}  // namespace temp::net
