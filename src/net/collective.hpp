/**
 * @file
 * Collective communication algorithms on the wafer fabric.
 *
 * Collectives are lowered to *schedules*: ordered rounds of concurrent
 * flows. The contention model evaluates schedules; the traffic-conscious
 * optimizer rewrites the routes inside them.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp::net {

/// The collective operations the parallelism layer emits.
enum class CollectiveKind
{
    AllReduce,      ///< ring reduce-scatter + all-gather
    AllGather,      ///< ring all-gather
    ReduceScatter,  ///< ring reduce-scatter
    Broadcast,      ///< multicast tree from group[0]
    P2P,            ///< single point-to-point transfer group[0]->group[1]
};

/// Returns a printable name for a collective kind.
const char *collectiveKindName(CollectiveKind kind);

/**
 * One collective operation over an ordered group of dies.
 *
 * Byte semantics follow NCCL conventions:
 *  - AllReduce / ReduceScatter: bytes = full tensor size held per member;
 *  - AllGather / Broadcast: bytes = shard contributed by each member
 *    (Broadcast: the full payload sent by the root);
 *  - P2P: bytes = transfer size.
 */
struct CollectiveTask
{
    CollectiveKind kind = CollectiveKind::AllReduce;
    std::vector<DieId> group;
    double bytes = 0.0;
    int tag = 0;
};

/**
 * Structure-of-arrays view of a schedule's flow arena: parallel per-flow
 * `bytes`/`hops` columns plus all route links concatenated behind a
 * `link_begin` offset column (flow f's links are
 * links[link_begin[f] .. link_begin[f+1])). Contention evaluation walks
 * these contiguous arrays instead of chasing each flow's Route
 * pointer; see src/net/README.md for the layout and dispatch rules.
 */
struct FlowSoa
{
    std::vector<double> bytes;              ///< per flow
    std::vector<std::int32_t> hops;         ///< per flow (route length)
    std::vector<std::uint32_t> link_begin;  ///< per flow + end sentinel
    std::vector<LinkId> links;              ///< concatenated route links

    /// Heap footprint (cache byte-budget accounting).
    std::size_t byteSize() const
    {
        return bytes.capacity() * sizeof(double) +
               hops.capacity() * sizeof(std::int32_t) +
               link_begin.capacity() * sizeof(std::uint32_t) +
               links.capacity() * sizeof(LinkId);
    }
};

/**
 * Ordered rounds of concurrent flows realising one or more collectives.
 *
 * The unit of storage is the *run*: one distinct round of flows plus the
 * number of times it executes back to back. A ring pass of N members is
 * N-1 identical rounds, so it is stored as one run of N flows repeated
 * N-1 times instead of N(N-1) flows. Flows live in one contiguous arena;
 * runs are offset spans into it. `roundCount()` and `round(r)` keep the
 * meaning of *executed* rounds (a run of repeat k counts k times); hot
 * paths walk `runCount()` / `run(i)` / `repeat(i)` and process each
 * stored round once. See src/net/README.md, "Run-length rounds".
 *
 * A *finalized* schedule additionally carries a FlowSoa view of the
 * arena, the layout the contention model's deposit loop prefers. Any
 * arena mutation invalidates the view; schedules evaluated after
 * building (combined phases, optimizer output) finalize once.
 */
class CommSchedule
{
  public:
    /// Payload bytes delivered (for energy accounting).
    double payload_bytes = 0.0;
    /// False when some transfer had no usable route (fabric partitioned
    /// by faults); the schedule's cost is then infinite.
    bool feasible = true;

    CommSchedule() = default;
    // Copies drop the SoA view instead of duplicating it: the only
    // copied schedules are cache entries about to be rewritten by the
    // traffic optimizer, which re-finalizes after its rebuild.
    CommSchedule(const CommSchedule &other)
        : payload_bytes(other.payload_bytes), feasible(other.feasible),
          flows_(other.flows_), runs_(other.runs_)
    {
    }
    CommSchedule &operator=(const CommSchedule &other)
    {
        if (this != &other) {
            payload_bytes = other.payload_bytes;
            feasible = other.feasible;
            flows_ = other.flows_;
            runs_ = other.runs_;
            soa_ = FlowSoa{};
            soa_valid_ = false;
        }
        return *this;
    }
    CommSchedule(CommSchedule &&) = default;
    CommSchedule &operator=(CommSchedule &&) = default;

    // --- building -----------------------------------------------------
    /// Appends a flow to the round under construction.
    void addFlow(Flow flow)
    {
        soa_valid_ = false;
        flows_.push_back(std::move(flow));
    }

    /// Seals the round under construction (flows added since the last
    /// seal) as one run executing `repeat` (>= 1) times back to back;
    /// an empty round is legal but usually skipped by callers.
    void sealRound(std::uint32_t repeat = 1)
    {
        runs_.push_back({static_cast<std::uint32_t>(flows_.size()), repeat});
    }

    /// Number of flows added since the last sealed round.
    std::size_t openFlowCount() const
    {
        return flows_.size() - (runs_.empty() ? 0 : runs_.back().flow_end);
    }

    /// Reserves arena capacity (stored flows and runs known upfront).
    void reserve(std::size_t flow_count, std::size_t run_count)
    {
        flows_.reserve(flow_count);
        runs_.reserve(run_count);
    }

    /**
     * Builds (or rebuilds) the SoA view of the stored flows.
     * Idempotent; call once after the arena stops mutating. The AoS
     * arena stays authoritative — the view is a derived, redundant
     * layout, and evaluation of a non-finalized schedule simply walks
     * the arena.
     */
    void finalize();

    // --- access: executed rounds ----------------------------------------
    /// Executed rounds (each run counts `repeat` times).
    int roundCount() const;
    bool empty() const { return runs_.empty(); }

    /// Flows of executed round r (the stored run that round r repeats).
    std::span<const Flow> round(int r) const;

    /// Flows over all executed rounds.
    std::size_t flowCount() const;

    // --- access: stored runs (hot paths) --------------------------------
    int runCount() const { return static_cast<int>(runs_.size()); }
    /// Flows of stored run i.
    std::span<const Flow> run(int i) const
    {
        return {flows_.data() + runBegin(i), runEnd(i) - runBegin(i)};
    }
    /// Back-to-back executions of run i.
    std::uint32_t repeat(int i) const { return runs_[i].repeat; }

    /// Flow-index bounds of run i in the arena (and the SoA columns).
    std::uint32_t runBegin(int i) const
    {
        return i > 0 ? runs_[i - 1].flow_end : 0;
    }
    std::uint32_t runEnd(int i) const { return runs_[i].flow_end; }

    /// True when the SoA view matches the arena.
    bool soaReady() const { return soa_valid_; }
    /// The SoA view (meaningful only when soaReady()).
    const FlowSoa &soa() const { return soa_; }

    /// Heap bytes held by the arena, the run table and the SoA view
    /// (cache byte estimates).
    std::size_t byteEstimate() const
    {
        return flows_.size() * sizeof(Flow) + runs_.size() * sizeof(Run) +
               (soa_valid_ ? soa_.byteSize() : 0);
    }

    /// The stored flow arena (every run once, in run order).
    const std::vector<Flow> &flows() const { return flows_; }

    /// Merges another schedule round-by-round (concurrent execution).
    void overlay(const CommSchedule &other);

    /**
     * Round-by-round merge of many schedules in one pass, run by run:
     * each output run ends where the shortest remaining run among the
     * still-active parts ends, so the executed rounds equal the
     * per-round overlay while every distinct round is stored once.
     */
    static CommSchedule combine(
        std::span<const CommSchedule *const> schedules);

    /// Total bytes*hops deposited on the fabric over executed rounds.
    double linkBytes() const;

  private:
    struct Run
    {
        std::uint32_t flow_end;  ///< run i = flows_[end(i-1) .. flow_end)
        std::uint32_t repeat;    ///< back-to-back executions
    };

    std::vector<Flow> flows_;
    std::vector<Run> runs_;
    FlowSoa soa_;             ///< derived view, see finalize()
    bool soa_valid_ = false;  ///< soa_ matches flows_
};

/// A multicast tree: the union of routes from a root to many leaves.
struct MulticastTree
{
    DieId root = -1;
    std::vector<DieId> leaves;
    /// Each tree link appears exactly once (duplicates merged).
    std::vector<LinkId> links;
    int depth = 0;  ///< longest root-to-leaf hop count
    /// False when faults leave some leaf unreachable.
    bool complete = true;
};

/**
 * Builds a multicast tree as the deduplicated union of router paths from
 * the root to every leaf (Fig. 11's "redundant path merging" target).
 */
MulticastTree buildMulticastTree(const Router &router, DieId root,
                                 const std::vector<DieId> &leaves,
                                 RoutePolicy policy = RoutePolicy::XY);

/**
 * Lowers collective tasks into flow schedules using ring algorithms over
 * the group order given in the task (the caller is responsible for
 * choosing a topology-friendly order; see tatp::ChainMapper).
 */
class CollectiveScheduler
{
  public:
    explicit CollectiveScheduler(const Router &router,
                                 RoutePolicy policy = RoutePolicy::XY);

    /// Lowers one task according to its kind.
    CommSchedule schedule(const CollectiveTask &task) const;

    /// Ring all-gather: N-1 rounds, each member forwards a shard.
    CommSchedule ringAllGather(const std::vector<DieId> &group,
                               double shard_bytes, int tag = 0) const;

    /// Ring reduce-scatter: N-1 rounds of tensor/N-sized exchanges.
    CommSchedule ringReduceScatter(const std::vector<DieId> &group,
                                   double tensor_bytes, int tag = 0) const;

    /// Ring all-reduce = reduce-scatter then all-gather.
    CommSchedule ringAllReduce(const std::vector<DieId> &group,
                               double tensor_bytes, int tag = 0) const;

    /**
     * Binomial-tree all-reduce (reduce up, broadcast down): 2*ceil(log2
     * N) rounds carrying the full tensor per hop. Latency-optimal for
     * small payloads where the ring's 2(N-1) rounds dominate; the ring
     * wins on bandwidth for large payloads.
     */
    CommSchedule treeAllReduce(const std::vector<DieId> &group,
                               double tensor_bytes, int tag = 0) const;

    /**
     * Picks tree vs ring all-reduce by the analytic crossover for the
     * given fabric parameters (the adaptive algorithm selection NCCL
     * and the paper's collective substrate [38] perform).
     */
    CommSchedule bestAllReduce(const std::vector<DieId> &group,
                               double tensor_bytes, double link_bandwidth,
                               double hop_latency_s, int tag = 0) const;

    /// Store-and-forward broadcast along a multicast tree (one round,
    /// one flow per tree link).
    CommSchedule broadcast(const std::vector<DieId> &group, double bytes,
                           int tag = 0) const;

    /// A single point-to-point transfer.
    CommSchedule p2p(DieId src, DieId dst, double bytes, int tag = 0) const;

    const Router &router() const { return router_; }

  private:
    /// `passes` back-to-back ring passes of (N-1) rounds each, every
    /// member forwarding a shard to its ring successor per round.
    CommSchedule ringPasses(const std::vector<DieId> &group,
                            double shard_bytes, int tag, int passes) const;

    const Router &router_;
    RoutePolicy policy_;
};

/**
 * Analytic lower bound for a collective on an ideal fabric (used by
 * sanity tests and the cost model's feature extraction): ring algorithms
 * move 2(N-1)/N (all-reduce) or (N-1)/N (gather/scatter) of the tensor
 * over the slowest link.
 */
double collectiveLowerBoundTime(CollectiveKind kind, int group_size,
                                double bytes, double link_bandwidth,
                                double hop_latency_s);

}  // namespace temp::net
