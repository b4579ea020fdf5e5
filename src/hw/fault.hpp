/**
 * @file
 * Fault models for wafer-scale deployments (Sec. VIII-F).
 *
 * Two fault classes are modelled:
 *  - link faults: a D2D link is unusable and traffic must route around it;
 *  - core faults: a fraction of a die's compute cores are disabled,
 *    derating that die's throughput but leaving it reachable.
 */
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "hw/topology.hpp"

namespace temp::hw {

/**
 * An incremental change to a FaultMap — the currency of scenario fault
 * storms. Applying a delta touches only the listed links/dies, so
 * back-to-back storm events stay O(changes) instead of O(fabric).
 */
struct FaultDelta
{
    /// Directed links to mark failed.
    std::vector<LinkId> fail_links;
    /// Directed links to mark healthy again.
    std::vector<LinkId> restore_links;
    /// (die, fraction) pairs to overwrite (absolute, not increments).
    std::vector<std::pair<DieId, double>> core_fractions;

    bool empty() const
    {
        return fail_links.empty() && restore_links.empty() &&
               core_fractions.empty();
    }
};

/// The fault state of one wafer.
class FaultMap
{
  public:
    FaultMap() = default;

    /// Creates an all-healthy map for a fabric of the given size.
    FaultMap(int die_count, int link_count);

    /// Marks the directed link (and typically its reverse) as failed.
    void failLink(LinkId link) { failed_links_.insert(link); }

    /// Marks the directed link healthy again (a repaired lane).
    void restoreLink(LinkId link) { failed_links_.erase(link); }

    /// True if the link is unusable.
    bool linkFailed(LinkId link) const
    {
        return failed_links_.count(link) > 0;
    }

    /// Applies an incremental change: fails, restores, then overwrites
    /// core fractions, in that order.
    void applyDelta(const FaultDelta &delta);

    /**
     * The delta transforming `from` into `to`: applyDelta(deltaBetween(
     * from, to)) on a copy of `from` yields a map content-equal to
     * `to` (fingerprints match).
     */
    static FaultDelta deltaBetween(const FaultMap &from,
                                   const FaultMap &to);

    /// Sets the fraction of failed compute cores on a die, in [0,1].
    void setCoreFaultFraction(DieId die, double fraction);

    /// Fraction of failed compute cores on a die.
    double coreFaultFraction(DieId die) const;

    /// Multiplier on the die's peak compute (1 - core fault fraction).
    double computeDerate(DieId die) const
    {
        return 1.0 - coreFaultFraction(die);
    }

    /// Number of failed directed links.
    int failedLinkCount() const
    {
        return static_cast<int>(failed_links_.size());
    }

    /// Dies tracked by the core-fault vector (its size).
    int dieCount() const
    {
        return static_cast<int>(core_fault_fraction_.size());
    }

    /// The failed directed links, sorted ascending — the deterministic
    /// order the wire format and canonical request keys rely on.
    std::vector<LinkId> failedLinks() const;

    /// Per-die core fault fractions (index = DieId).
    const std::vector<double> &coreFaultFractions() const
    {
        return core_fault_fraction_;
    }

    /// True if no faults are present.
    bool healthy() const;

    /**
     * Content fingerprint (FNV-1a over the sorted failed links and the
     * core-fraction bit patterns, trailing zeros excluded). Two maps
     * with equal fault content fingerprint equally regardless of how
     * they were built (bulk draw vs. accumulated deltas) — the scenario
     * engine keys its degraded solve contexts on this.
     */
    std::uint64_t contentFingerprint() const;

    /**
     * Generates random symmetric link faults: each undirected mesh link
     * fails independently with probability rate (both directions fail
     * together, as a physical lane fault takes out the channel).
     */
    static FaultMap randomLinkFaults(const Topology &topo, double rate,
                                     Rng &rng);

    /**
     * Generates random core faults: every die loses an i.i.d. fraction of
     * cores with mean rate (clamped to [0, 0.9] so dies stay usable).
     */
    static FaultMap randomCoreFaults(const Topology &topo, double rate,
                                     Rng &rng);

  private:
    std::unordered_set<LinkId> failed_links_;
    std::vector<double> core_fault_fraction_;
};

}  // namespace temp::hw
