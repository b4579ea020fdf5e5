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
    std::vector<PartCursor> parts;
    parts.reserve(schedules.size());
    std::size_t total_flows = 0;
    std::size_t total_runs = 0;
    for (const CommSchedule *s : schedules) {
        total_flows += s->flows_.size();
        total_runs += s->runs_.size();
        out.payload_bytes += s->payload_bytes;
        out.feasible = out.feasible && s->feasible;
        const Run *runs = s->runs_.data();
        parts.push_back({s->flows_.data(), runs, runs + s->runs_.size(), 0,
                         0});
    }
    out.reserve(total_flows, total_runs);
    mergeParts(parts, out);
    return out;
}

CommSchedule
CommSchedule::combineParts(std::span<const std::uint32_t> part_ends) const
{
    CommSchedule out;
    out.payload_bytes = payload_bytes;
    out.feasible = feasible;
    std::vector<PartCursor> parts;
    parts.reserve(part_ends.size());
    std::uint32_t run_begin = 0;
    for (const std::uint32_t run_end : part_ends) {
        parts.push_back({flows_.data(), runs_.data() + run_begin,
                         runs_.data() + run_end,
                         runBegin(static_cast<int>(run_begin)), 0});
        run_begin = run_end;
    }
    out.reserve(flows_.size(), runs_.size());
    mergeParts(parts, out);
    return out;
}

void
CommSchedule::mergeParts(std::span<PartCursor> parts, CommSchedule &out)
{
    // Every step emits one output run covering the active parts'
    // current runs (in part order, as the per-round overlay did), as
    // long as the shortest of them still repeats.
    for (PartCursor &part : parts)
        if (part.run != part.end)
            part.left = part.run->repeat;
    for (;;) {
        std::uint32_t step = 0;
        for (const PartCursor &part : parts)
            if (part.left > 0 && (step == 0 || part.left < step))
                step = part.left;
        if (step == 0)
            break;
        for (PartCursor &part : parts) {
            if (part.left == 0)
                continue;
            out.flows_.insert(out.flows_.end(), part.flows + part.begin,
                              part.flows + part.run->flow_end);
            part.left -= step;
            if (part.left == 0) {
                part.begin = part.run->flow_end;
                if (++part.run != part.end)
                    part.left = part.run->repeat;
            }
        }
        out.sealRound(step);
    }
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
    for (int i = 0; i < runCount(); ++i)
        total = addRunLinkBytes(total, run(i), repeat(i));
    return total;
}

double
CommSchedule::addRunLinkBytes(double total, std::span<const Flow> run,
                              std::uint32_t repeat)
{
    for (std::uint32_t k = 0; k < repeat; ++k)
        for (const Flow &flow : run)
            total += flow.bytes * flow.route.hops();
    return total;
}

MulticastTree
buildMulticastTree(const Router &router, DieId root,
                   const std::vector<DieId> &leaves, RoutePolicy policy)
{
    MulticastTree tree;
    buildMulticastTree(router, root, leaves, policy, tree);
    return tree;
}

void
buildMulticastTree(const Router &router, DieId root,
                   std::span<const DieId> leaves, RoutePolicy policy,
                   MulticastTree &out)
{
    out.root = root;
    out.leaves.assign(leaves.begin(), leaves.end());
    out.links.clear();
    out.depth = 0;
    out.complete = true;
    // Collect every path link into a flat vector, then sort+unique: no
    // tree-node allocation per link, same ascending order the former
    // std::set produced.
    for (DieId leaf : leaves) {
        if (leaf == root)
            continue;
        const RouteRef route = router.safeRouteRef(root, leaf, policy);
        if (!route.valid()) {
            out.complete = false;
            continue;
        }
        out.depth = std::max(out.depth, route.hops());
        out.links.insert(out.links.end(), route.links().begin(),
                         route.links().end());
    }
    std::sort(out.links.begin(), out.links.end());
    out.links.erase(std::unique(out.links.begin(), out.links.end()),
                    out.links.end());
}

CollectiveScheduler::CollectiveScheduler(const Router &router,
                                         RoutePolicy policy)
    : router_(router), policy_(policy)
{
}

CommSchedule
CollectiveScheduler::schedule(const CollectiveTask &task) const
{
    CommSchedule sched;
    sched.reserve(task.size(), 1);
    lowerInto(task, sched);
    return sched;
}

CommSchedule
CollectiveScheduler::lowerPhase(std::span<const CollectiveTask> tasks) const
{
    // Rings, p2p and broadcasts store one run each, of at most a
    // group's worth of flows (a broadcast tree may need a few more).
    std::size_t flows = 0;
    for (const CollectiveTask &task : tasks)
        flows += task.size();
    CommSchedule arena;
    arena.reserve(flows, tasks.size());
    if (tasks.size() == 1) {
        lowerInto(tasks.front(), arena);
        return arena;
    }
    std::vector<std::uint32_t> part_ends;
    part_ends.reserve(tasks.size());
    for (const CollectiveTask &task : tasks) {
        lowerInto(task, arena);
        part_ends.push_back(static_cast<std::uint32_t>(arena.runCount()));
    }
    return arena.combineParts(part_ends);
}

void
CollectiveScheduler::lowerInto(const CollectiveTask &task,
                               CommSchedule &out) const
{
    if (task.group == nullptr)
        panic("CollectiveScheduler: task without a group");
    const std::span<const DieId> group = task.group->dies;
    const int n = static_cast<int>(group.size());
    switch (task.kind) {
      case CollectiveKind::AllReduce:
        // Reduce-scatter then all-gather: two passes over the same hops.
        if (n > 1)
            appendRing(group, task.bytes / n, task.tag, 2, out);
        return;
      case CollectiveKind::AllGather:
        appendRing(group, task.bytes, task.tag, 1, out);
        return;
      case CollectiveKind::ReduceScatter:
        // Same flow pattern as all-gather with tensor/N shards.
        if (n > 1)
            appendRing(group, task.bytes / n, task.tag, 1, out);
        return;
      case CollectiveKind::Broadcast:
        appendBroadcast(group, task.bytes, task.tag, out);
        return;
      case CollectiveKind::P2P:
        if (n != 2)
            panic("P2P task needs exactly 2 members, got %d", n);
        appendP2p(group[0], group[1], task.bytes, task.tag, out);
        return;
    }
    panic("CollectiveScheduler: unknown collective kind");
}

void
CollectiveScheduler::appendRing(std::span<const DieId> group,
                                double shard_bytes, int tag, int passes,
                                CommSchedule &out) const
{
    const int n = static_cast<int>(group.size());
    if (n <= 1 || shard_bytes <= 0.0)
        return;

    // Every round moves a shard over the same n ring hops, so the
    // whole lowering is one run of n flows.
    for (int i = 0; i < n; ++i) {
        Flow flow;
        flow.src = group[i];
        flow.dst = group[(i + 1) % n];
        flow.bytes = shard_bytes;
        flow.route = router_.safeRouteRef(flow.src, flow.dst, policy_);
        if (!flow.route.valid())
            out.feasible = false;
        flow.tag = tag;
        out.addFlow(flow);
    }
    out.sealRound(static_cast<std::uint32_t>(passes * (n - 1)));
    const double pass_payload = shard_bytes * n * (n - 1);
    double payload = 0.0;
    for (int pass = 0; pass < passes; ++pass)
        payload += pass_payload;
    out.payload_bytes += payload;
}

void
CollectiveScheduler::appendTree(std::span<const DieId> group,
                                double tensor_bytes, int tag,
                                CommSchedule &out) const
{
    const int n = static_cast<int>(group.size());
    if (n <= 1 || tensor_bytes <= 0.0)
        return;

    double payload = 0.0;
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
                out.feasible = false;
            flow.tag = tag;
            out.addFlow(flow);
            payload += tensor_bytes;
        }
        if (out.openFlowCount() > 0)
            out.sealRound();
    };

    for (int step = 1; step < n; step *= 2)
        emit_round(step, /*reduce_phase=*/true);
    int top = 1;
    while (top * 2 < n)
        top *= 2;
    for (int step = top; step >= 1; step /= 2)
        emit_round(step, /*reduce_phase=*/false);
    out.payload_bytes += payload;
}

void
CollectiveScheduler::appendBroadcast(std::span<const DieId> group,
                                     double bytes, int tag,
                                     CommSchedule &out) const
{
    if (group.size() <= 1 || bytes <= 0.0)
        return;

    const std::span<const DieId> leaves = group.subspan(1);
    thread_local MulticastTree tree;
    buildMulticastTree(router_, group[0], leaves, policy_, tree);
    if (!tree.complete)
        out.feasible = false;

    for (LinkId link : tree.links) {
        const hw::Link &l = router_.topology().link(link);
        Flow flow;
        flow.src = l.src;
        flow.dst = l.dst;
        flow.bytes = bytes;
        flow.route = router_.linkRoute(link);
        flow.tag = tag;
        out.addFlow(flow);
    }
    out.sealRound();
    out.payload_bytes += bytes * static_cast<double>(leaves.size());
}

void
CollectiveScheduler::appendP2p(DieId src, DieId dst, double bytes, int tag,
                               CommSchedule &out) const
{
    if (src == dst || bytes <= 0.0)
        return;
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.bytes = bytes;
    flow.route = router_.safeRouteRef(src, dst, policy_);
    if (!flow.route.valid())
        out.feasible = false;
    flow.tag = tag;
    out.addFlow(flow);
    out.sealRound();
    out.payload_bytes += bytes;
}

CommSchedule
CollectiveScheduler::ringAllGather(const std::vector<DieId> &group,
                                   double shard_bytes, int tag) const
{
    CommSchedule sched;
    appendRing(group, shard_bytes, tag, 1, sched);
    return sched;
}

CommSchedule
CollectiveScheduler::ringReduceScatter(const std::vector<DieId> &group,
                                       double tensor_bytes, int tag) const
{
    CommSchedule sched;
    if (group.size() > 1)
        appendRing(group, tensor_bytes / static_cast<double>(group.size()),
                   tag, 1, sched);
    return sched;
}

CommSchedule
CollectiveScheduler::ringAllReduce(const std::vector<DieId> &group,
                                   double tensor_bytes, int tag) const
{
    CommSchedule sched;
    if (group.size() > 1)
        appendRing(group, tensor_bytes / static_cast<double>(group.size()),
                   tag, 2, sched);
    return sched;
}

CommSchedule
CollectiveScheduler::treeAllReduce(const std::vector<DieId> &group,
                                   double tensor_bytes, int tag) const
{
    CommSchedule sched;
    appendTree(group, tensor_bytes, tag, sched);
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
    appendBroadcast(group, bytes, tag, sched);
    return sched;
}

CommSchedule
CollectiveScheduler::p2p(DieId src, DieId dst, double bytes, int tag) const
{
    CommSchedule sched;
    appendP2p(src, dst, bytes, tag, sched);
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
