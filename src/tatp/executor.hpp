/**
 * @file
 * TATP stream execution timing and flow generation.
 *
 * Transfers on the wafer are store-and-forward at message granularity
 * (each die's DMA receives a sub-tensor, then forwards it), so a
 * transfer spanning h physical hops costs h x (bytes/bw + latency) —
 * which is exactly why non-contiguous chains and naive-ring wrap
 * transfers produce the paper's O(N)-hop tail latency (Fig. 5a), and
 * why the bidirectional 1-hop relay eliminates it.
 */
#pragma once

#include "hw/config.hpp"
#include "net/collective.hpp"
#include "parallel/partitioner.hpp"
#include "tatp/chain_mapper.hpp"
#include "tatp/orchestrator.hpp"

namespace temp::tatp {

/// Timing of one TATP pass (forward or backward) on one group.
struct TatpTiming
{
    double time_s = 0.0;          ///< end-to-end pass time
    double comp_time_s = 0.0;     ///< pure compute (all rounds)
    double comm_time_s = 0.0;     ///< per-round comm x rounds
    double exposed_comm_s = 0.0;  ///< comm not hidden behind compute
    double round_time_s = 0.0;    ///< max(comp, comm) per round
    /// Extra time caused by multi-hop chain steps vs. a contiguous chain.
    double tail_latency_s = 0.0;
    /// Payload bytes x hops deposited on the fabric (energy accounting).
    double link_bytes = 0.0;
    /// comp_time / time: 1.0 means full communication hiding.
    double overlap_efficiency = 0.0;
};

/**
 * The layout-only half of a TATP stream: what a layout's TATP groups
 * become on the fabric, independent of the operator streaming over
 * them. The cost model memoizes one per (group set, degree, fault
 * epoch) and fills in only the per-operator bytes.
 */
struct StreamPlan
{
    /// One physical chain per TATP group, in layout order.
    std::vector<ChainInfo> chains;
    /// Index of the chain that gates the bulk-synchronous stream (the
    /// first one with the largest max_hop).
    std::size_t worst = 0;
    /**
     * Round 0 of the bidirectional relay, routed (bytes left at 0).
     * It carries every chain-neighbour pair in both directions; later
     * rounds use subsets of these pairs, so round 0 alone decides
     * feasibility and is the densest round under contention.
     */
    std::vector<net::Flow> round0;
    /// False when some neighbour pair has no usable route.
    bool feasible = true;
    /// Keeps round0's routes alive across a fault swap while the plan
    /// is cached.
    std::shared_ptr<const net::RouteEpoch> routes;

    /// Heap footprint estimate (cache byte budgets).
    long byteEstimate() const;
};

/// Times TATP streams and lowers them to flows for contention analysis.
class TatpExecutor
{
  public:
    explicit TatpExecutor(hw::D2dConfig d2d);

    /**
     * Times one bidirectional streaming pass.
     *
     * @param flops_per_round Per-die FLOPs per round.
     * @param bytes_per_round One sub-tensor's size.
     * @param rounds Stream degree N.
     * @param chain Physical chain quality (hop counts).
     * @param flops_per_s Effective per-die compute throughput.
     */
    TatpTiming timePass(double flops_per_round, double bytes_per_round,
                        int rounds, const ChainInfo &chain,
                        double flops_per_s) const;

    /**
     * Times one naive unidirectional ring pass (the TSPP strawman): the
     * wrap transfer spans ring.wrap_hops hops and every round waits for
     * the slowest transfer.
     */
    TatpTiming timeNaiveRingPass(double flops_per_round,
                                 double bytes_per_round, int rounds,
                                 const RingInfo &ring,
                                 double flops_per_s) const;

    /**
     * Lowers a stream onto concrete flows (per round, per group) for
     * the traffic-conscious optimizer's global contention analysis.
     *
     * @param stream Partitioner-produced stream descriptor.
     * @param groups One ordered chain per TATP group.
     * @param router Route builder for the (possibly faulty) mesh.
     * @param backward Doubles the per-round volume (dO and W^T streams).
     */
    net::CommSchedule streamFlows(const parallel::TatpStream &stream,
                                  const std::vector<ChainInfo> &groups,
                                  const net::Router &router,
                                  bool backward) const;

    /**
     * Builds the stream plan of a set of ordered chains: the gating
     * chain and round 0's routed neighbour pairs, flows in the same
     * order streamFlows() emits them.
     *
     * @param chains One ordered chain per TATP group.
     * @param degree Stream degree N (every chain must have N slots).
     */
    StreamPlan planStream(std::vector<ChainInfo> chains, int degree,
                          const net::Router &router) const;

    /// Store-and-forward time for one sub-tensor over h hops.
    double hopTransferTime(double bytes, int hops) const;

    /// Per-round software/DMA synchronisation overhead: issuing the
    /// round's transfer descriptors and synchronising the compute
    /// wavefront. This is what makes very high stream degrees (tiny
    /// rounds) lose throughput — the Fig. 9 decline beyond N ~ 16.
    static constexpr double kRoundOverheadS = 1.0e-6;

    const hw::D2dConfig &d2d() const { return d2d_; }

  private:
    hw::D2dConfig d2d_;
};

}  // namespace temp::tatp
