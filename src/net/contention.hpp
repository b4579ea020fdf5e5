/**
 * @file
 * Link-level flow contention model.
 *
 * A communication *phase* is a set of flows that are in flight
 * concurrently. Every flow deposits its byte volume on each link of its
 * route; a link with aggregated load L and bandwidth B is busy for L/B.
 * The phase completes when the most-loaded link drains, and each flow
 * additionally pays per-hop propagation latency. This is exactly the
 * granularity at which the paper reasons about contention (most congested
 * link `mcl`, link loads, Fig. 11).
 *
 * The model is on the innermost loop of every cost query, so it avoids
 * indirection: per-link bandwidth is a precomputed flat vector
 * (re-snapshotted when the wafer's faults change), not a callback per
 * link; phase
 * evaluation deposits into a thread-local epoch-stamped scratch (no
 * per-phase zeroing or allocation) and finds the bottleneck with the
 * vectorized drain scan from common/kernels.hpp; and schedules that
 * carry a finalized SoA view (see CommSchedule::finalize) are walked
 * through contiguous arrays instead of per-flow route pointers.
 */
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "hw/config.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"
#include "hw/wafer.hpp"
#include "net/route.hpp"

namespace temp::net {

class CommSchedule;
struct FlowSoa;

/// One point-to-point transfer taking part in a phase.
struct Flow
{
    DieId src = -1;
    DieId dst = -1;
    double bytes = 0.0;
    /// Handle to the router's stored route (invalid ref = no usable
    /// route).
    RouteRef route;
    /// Opaque tag identifying the parallel group / collective that owns
    /// this flow (used by the optimizer for redundant-path merging).
    int tag = 0;
};
static_assert(std::is_trivially_copyable_v<Flow>,
              "flows are copied freely on the cost path");

/**
 * Per-link accumulated byte loads.
 *
 * Tracks the set of links that ever carried load so the stats queries
 * (maxLoadLink / maxLoad / totalLoad / activeLinkCount) scan O(active)
 * entries instead of the full linkCount() — the optimizer calls
 * maxLoadLink once per iteration while only a group's worth of links is
 * loaded. Results are identical to the former dense scans (totalLoad
 * sums in ascending link order; untouched links contribute exact +0.0).
 */
class LinkLoadMap
{
  public:
    explicit LinkLoadMap(int link_count)
        : loads_(link_count, 0.0), marked_(link_count, 0)
    {
    }

    /// Empties the map for reuse over `link_count` links, zeroing only
    /// the touched ones: a reused map allocates nothing once grown.
    void reset(int link_count);

    /// Adds a flow's bytes to every link on its route.
    void add(const Route &route, double bytes);
    void add(const RouteRef &route, double bytes) { add(*route, bytes); }

    /// Removes a flow's bytes from every link on its route.
    void remove(const Route &route, double bytes);
    void remove(const RouteRef &route, double bytes)
    {
        remove(*route, bytes);
    }

    /// Current load on a link.
    double load(LinkId link) const { return loads_[link]; }

    /// The most-loaded link (`mcl` in the paper's Fig. 11 algorithm).
    LinkId maxLoadLink() const;

    /// The load of the most-loaded link.
    double maxLoad() const;

    /// Sum of loads across all links.
    double totalLoad() const;

    /// Number of links carrying non-zero load.
    int activeLinkCount() const;

    int linkCount() const { return static_cast<int>(loads_.size()); }

    /// Number of links that ever carried load (the stats-scan bound;
    /// a removed-to-zero link stays counted).
    int touchedLinkCount() const
    {
        return static_cast<int>(touched_.size());
    }

  private:
    std::vector<double> loads_;
    std::vector<std::uint8_t> marked_;  ///< 1 once a link carried load
    std::vector<LinkId> touched_;       ///< marked links, insertion order
};

/// Result of evaluating one communication phase.
struct PhaseTiming
{
    double time_s = 0.0;            ///< phase completion time
    double serial_time_s = 0.0;     ///< bandwidth term only (no latency)
    LinkId bottleneck_link = -1;    ///< most congested link
    double bottleneck_bytes = 0.0;  ///< load on that link
    double total_bytes = 0.0;       ///< payload bytes summed over flows
    double link_bytes = 0.0;        ///< bytes x hops (fabric occupancy)
    int max_hops = 0;               ///< longest route in the phase
    /// Fraction of aggregate fabric bandwidth actually used during the
    /// phase ("BW utilization" in Fig. 4b).
    double bandwidth_utilization = 0.0;
};

/**
 * Evaluates communication phases against a concrete fabric.
 *
 * Bandwidth may differ per link (failed links carry zero; switch fabrics
 * use NIC bandwidth). The per-link bandwidths are snapshotted into a
 * flat vector at construction; a wafer-bound model is re-snapshotted
 * by its owner's fault listener (resnapshot()) when the wafer's faults
 * change.
 */
class ContentionModel
{
  public:
    /// Uniform-bandwidth fabric (healthy wafer mesh).
    ContentionModel(const hw::Topology &topo, double link_bandwidth,
                    double hop_latency_s);

    /// Wafer-bound fabric: per-link bandwidth snapshots
    /// wafer.linkBandwidth() once, here and on every resnapshot().
    ContentionModel(const hw::Wafer &wafer, double hop_latency_s);

    /**
     * Re-reads the bound wafer's per-link bandwidth (no-op for a
     * uniform fabric). The owner's fault listener calls it, under the
     * wafer's listener lock; like setFaults() itself, it must not run
     * concurrently with evaluation.
     */
    void resnapshot();

    /// Evaluates a phase of concurrent flows.
    PhaseTiming evaluate(std::span<const Flow> flows) const;
    PhaseTiming evaluate(const std::vector<Flow> &flows) const
    {
        return evaluate(std::span<const Flow>(flows));
    }

    /// Evaluates the phase as if every flow carried `bytes`.
    PhaseTiming evaluate(std::span<const Flow> flows, double bytes) const;

    /// Evaluates a schedule's rounds as dependent phases: each stored
    /// run once, folded in once per executed round. Takes the
    /// contiguous SoA deposit path when the schedule is finalized, the
    /// per-flow route-pointer path otherwise; both are bit-identical.
    PhaseTiming evaluateSequence(const CommSchedule &schedule) const;

    /// Evaluates a sequence of dependent phases (e.g. collective rounds).
    PhaseTiming evaluateSequence(
        const std::vector<std::vector<Flow>> &phases) const;

    /// Time for a single flow in isolation (no contention).
    double flowTime(const Flow &flow) const;

    double hopLatency() const { return hop_latency_s_; }

    const hw::Topology &topology() const { return topo_; }

    /// Bandwidth of one link under this model.
    double linkBandwidth(LinkId link) const { return link_bandwidth_[link]; }

    /// Sum of all link bandwidths (the fabric's aggregate capacity).
    double fabricCapacity() const { return fabric_capacity_; }

  private:
    /// Evaluates one run of a finalized schedule through its SoA view.
    PhaseTiming evaluateSoaRound(const FlowSoa &soa, std::uint32_t begin,
                                 std::uint32_t end) const;

    const hw::Topology &topo_;
    const hw::Wafer *wafer_ = nullptr;  ///< bound wafer (may be null)
    std::vector<double> link_bandwidth_;
    double fabric_capacity_ = 0.0;
    double hop_latency_s_;
};

}  // namespace temp::net
