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
    std::size_t total_rounds = 0;
    for (const CommSchedule *s : schedules) {
        total_flows += s->flowCount();
        total_rounds = std::max(
            total_rounds, static_cast<std::size_t>(s->roundCount()));
        out.payload_bytes += s->payload_bytes;
        out.feasible = out.feasible && s->feasible;
    }
    out.reserve(total_flows, total_rounds);
    for (std::size_t r = 0; r < total_rounds; ++r) {
        for (const CommSchedule *s : schedules) {
            if (static_cast<int>(r) >= s->roundCount())
                continue;
            const std::span<const Flow> round =
                s->round(static_cast<int>(r));
            out.flows_.insert(out.flows_.end(), round.begin(),
                              round.end());
        }
        out.sealRound();
    }
    return out;
}

double
CommSchedule::linkBytes() const
{
    double total = 0.0;
    for (const Flow &flow : flows_)
        total += flow.bytes * flow.route.hops();
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

    const int rounds = passes * (n - 1);
    sched.reserve(static_cast<std::size_t>(n) * rounds, rounds);
    // Every round reuses the same n ring hops; resolve the pooled
    // routes once instead of once per round.
    std::vector<RouteRef> hop_routes;
    hop_routes.reserve(n);
    for (int i = 0; i < n; ++i) {
        RouteRef route =
            router_.safeRouteRef(group[i], group[(i + 1) % n], policy_);
        if (!route.valid())
            sched.feasible = false;
        hop_routes.push_back(std::move(route));
    }

    for (int round = 0; round < rounds; ++round) {
        for (int i = 0; i < n; ++i) {
            Flow flow;
            flow.src = group[i];
            flow.dst = group[(i + 1) % n];
            flow.bytes = shard_bytes;
            flow.route = hop_routes[i];
            flow.tag = tag;
            sched.addFlow(std::move(flow));
        }
        sched.sealRound();
    }
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
