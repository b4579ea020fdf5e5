/**
 * @file
 * Traffic-conscious communication optimizer (Sec. VI-B, Fig. 11).
 *
 * Implements the paper's five-phase workflow over a schedule of flow
 * rounds:
 *  (1) communication pattern analysis & path initialisation — flows
 *      arrive with contention-agnostic routes (XY);
 *  (2) bottleneck identification & load recording — find the most
 *      congested link (mcl) and its load;
 *  (3) congested path identification & iterative optimisation — collect
 *      the flows crossing the mcl;
 *  (4) path merging & routing optimisation — merge duplicate payloads
 *      into multicast trees and reroute remaining flows over idle links
 *      (YX / one-bend detours);
 *  (5) global update & termination check — stop when the bottleneck
 *      stops improving or MAX_ITER is reached.
 *
 * The cost model runs it once per stored run of a lowered phase, in a
 * per-thread scratch buffer (optimizePhase), and times the result in
 * the same pass; nothing rebuilds an optimized schedule on that path.
 * Phase 3 finds the flows crossing the bottleneck by one bit test of
 * each stored route's link mask (a route scan for a bottleneck beyond
 * net::Route::kMaskLinks), and the per-thread load map, bottleneck
 * list, merge buckets and multicast tree are reused across calls.
 * Work that provably changes nothing is skipped: a first iteration
 * whose bottleneck carries one flow ends the loop (nothing to merge, no
 * lower-peaking candidate).
 * Stats cost nothing extra: final_max_load is the loop's last
 * bottleneck reading, and only optimize() folds stats across runs.
 */
#pragma once

#include <span>
#include <vector>

#include "net/collective.hpp"
#include "net/contention.hpp"
#include "net/route.hpp"

namespace temp::tcme {

/// Outcome statistics of one optimisation run.
struct OptimizationStats
{
    double initial_max_load = 0.0;  ///< bottleneck bytes before
    double final_max_load = 0.0;    ///< bottleneck bytes after
    int iterations = 0;
    int reroutes = 0;   ///< flows moved to alternative routes
    int merges = 0;     ///< duplicate flows folded into multicast trees
    int phases = 0;     ///< rounds processed

    /// Bottleneck-load improvement factor (>= 1).
    double improvement() const
    {
        return final_max_load > 0.0 ? initial_max_load / final_max_load
                                    : 1.0;
    }
};

/// The Fig. 11(d) optimizer.
class TrafficOptimizer
{
  public:
    /// Tuning knobs; defaults follow the paper's algorithm sketch.
    struct Config
    {
        int max_iters = 16;
        bool enable_merging = true;
        bool enable_rerouting = true;
    };

    /// Constructs with default configuration.
    explicit TrafficOptimizer(const net::Router &router);

    TrafficOptimizer(const net::Router &router, Config config);

    /**
     * Optimises every round of a schedule, rebuilding its arena
     * (rounds execute back-to-back, so each is an independent
     * contention domain). Each stored run is optimized once; stats
     * count it once per executed round. For callers that read the
     * stats or keep the schedule (perfbench's probe, the tests); the
     * cost model optimizes run by run with optimizePhase instead.
     */
    OptimizationStats optimize(net::CommSchedule &schedule) const;

    /// Optimises one phase (set of concurrent flows) in place: a pure
    /// function of the flows, thread-safe, allocation-free once the
    /// per-thread buffers have grown.
    OptimizationStats optimizePhase(std::vector<net::Flow> &flows) const;

  private:
    /// Replaces duplicate-payload flows among the bottleneck flows
    /// `hot` (ascending indices into `flows`) with multicast trees;
    /// returns the number of merges performed. A merge drops the
    /// merged flows, keeping the others in order, and appends the
    /// tree branches.
    int mergeDuplicates(std::vector<net::Flow> &flows,
                        net::LinkLoadMap &loads,
                        std::span<const std::size_t> hot) const;

    /// Reroutes the bottleneck flows `hot` (ascending indices, sorted
    /// here largest first) onto less-loaded candidate routes; returns
    /// the number of flows moved.
    int rerouteCongested(std::vector<net::Flow> &flows,
                         net::LinkLoadMap &loads,
                         std::vector<std::size_t> &hot) const;

    const net::Router &router_;
    Config config_;
};

}  // namespace temp::tcme
