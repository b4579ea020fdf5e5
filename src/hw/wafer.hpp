/**
 * @file
 * The Wafer object: configuration + topology + fault state, the physical
 * substrate every higher layer (routing, mapping, cost model) queries.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "hw/config.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"

namespace temp::hw {

/**
 * A single wafer-scale chip instance.
 *
 * Owns the mesh topology built from the configuration and applies the
 * fault map to expose *effective* per-die compute and per-link
 * availability/bandwidth.
 */
class Wafer
{
  public:
    explicit Wafer(WaferConfig config, FaultMap faults = FaultMap());

    const WaferConfig &config() const { return config_; }
    const MeshTopology &topology() const { return *topology_; }
    const FaultMap &faults() const { return faults_; }

    int dieCount() const { return topology_->dieCount(); }

    /// Effective peak FLOPs of a die after core-fault derating.
    double effectiveFlops(DieId die) const
    {
        return config_.die.peak_flops * faults_.computeDerate(die);
    }

    /// True if the directed link can carry traffic.
    bool linkUsable(LinkId link) const { return !faults_.linkFailed(link); }

    /// Peak bandwidth of a usable link; zero for a failed link.
    double linkBandwidth(LinkId link) const
    {
        return linkUsable(link) ? config_.d2d.bandwidth_bytes_per_s : 0.0;
    }

    /**
     * Replaces the fault state (fault-injection sweeps). The one
     * fault-invalidation rule: before this returns, every registered
     * fault listener has run, and each owner has cleared everything it
     * derived from the old fault state (memos, lowered schedules, route
     * storage, bandwidth snapshots). No evaluation may run over this
     * wafer during the call: callers quiesce evaluation first.
     */
    void setFaults(FaultMap faults)
    {
        faults_ = std::move(faults);
        // Under the registry lock, so removeFaultListener() synchronizes
        // with in-flight callbacks: once remove() returns, the listener
        // can never fire again, which is what lets an owner's
        // destructor race a concurrent setFaults() safely. Consequence:
        // listeners must not register/unregister listeners or call
        // setFaults() from inside the callback (they clear their own
        // caches, nothing more).
        std::lock_guard<std::mutex> lock(listeners_->mutex);
        for (const auto &[id, listener] : listeners_->entries)
            listener();
    }

    /**
     * Registers a callback invoked on every setFaults(). Callers whose
     * lifetime is shorter than the wafer's (per-call simulators,
     * degraded-solve cost models) MUST removeFaultListener() the
     * returned id before they die. Const: observation does not change
     * the wafer's physical state, and the registrants hold const
     * references.
     */
    std::uint64_t addFaultListener(std::function<void()> listener) const
    {
        std::lock_guard<std::mutex> lock(listeners_->mutex);
        const std::uint64_t id = listeners_->next_id++;
        listeners_->entries.emplace_back(id, std::move(listener));
        return id;
    }

    void removeFaultListener(std::uint64_t id) const
    {
        std::lock_guard<std::mutex> lock(listeners_->mutex);
        std::erase_if(listeners_->entries,
                      [id](const auto &entry) { return entry.first == id; });
    }

    /**
     * The dies the framework can actually use: the largest connected
     * component of the usable-link graph, excluding dies whose compute
     * is fully dead. Fault-tolerant re-optimisation (Sec. VIII-F) maps
     * work onto this set and leaves stranded dies idle.
     */
    std::vector<DieId> usableDies() const;

    /// Size of usableDies().
    int usableDieCount() const
    {
        return static_cast<int>(usableDies().size());
    }

    /**
     * True if a hypothetical direct link between the two dies would meet
     * the signal-integrity length limit (50 mm, Sec. III-B / Fig. 7b).
     * Adjacent dies pass; anything longer (diagonals, wrap links) fails.
     */
    bool directLinkFeasible(DieId src, DieId dst) const;

    /// The signal-integrity distance limit in millimetres.
    static constexpr double kMaxInterconnectMm = 50.0;

    /// Die footprint from Fig. 3 (24.99 mm x 33.25 mm).
    static constexpr double kDieWidthMm = 24.99;
    static constexpr double kDieHeightMm = 33.25;

  private:
    /// Heap-allocated so the wafer stays movable despite the mutex.
    struct FaultListeners
    {
        std::mutex mutex;
        std::uint64_t next_id = 1;
        std::vector<std::pair<std::uint64_t, std::function<void()>>>
            entries;
    };

    WaferConfig config_;
    std::unique_ptr<MeshTopology> topology_;
    FaultMap faults_;
    std::unique_ptr<FaultListeners> listeners_ =
        std::make_unique<FaultListeners>();
};

}  // namespace temp::hw
