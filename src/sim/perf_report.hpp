/**
 * @file
 * Training-step performance report: the record every evaluation figure
 * of the paper is plotted from (latency breakdown, memory, power,
 * bandwidth utilisation, throughput).
 */
#pragma once

#include <string>

#include "cost/power_model.hpp"
#include "mem/memory_ledger.hpp"

namespace temp::sim {

/// Result of simulating one training step of a model on a wafer system.
struct PerfReport
{
    bool feasible = true;  ///< false when faults partition required routes
    bool oom = false;      ///< peak per-die memory exceeded HBM capacity

    /// @{ Latency breakdown (seconds per training step).
    double step_time = 0.0;
    double comp_time = 0.0;        ///< pure compute
    double collective_time = 0.0;  ///< blocking collectives
    double stream_comm_time = 0.0; ///< TATP stream transfers (overlapped)
    double exposed_comm = 0.0;     ///< all communication not hidden
    double reshard_time = 0.0;     ///< inter-op spec transitions (Eq. 3)
    double bubble_time = 0.0;      ///< pipeline bubbles (multi-wafer)
    double grad_sync_time = 0.0;   ///< exposed gradient-sync share
    /// Full (unoverlapped) gradient-sync collective time and fabric
    /// occupancy; needed to compose gradient accumulation correctly
    /// (sync happens once per step, not per microbatch).
    double grad_sync_collective_time = 0.0;
    double grad_sync_link_bytes = 0.0;
    /// Gradient-accumulation factor chosen to fit activations in HBM.
    int grad_accum = 1;
    /// True when activation checkpointing (full recompute) was needed
    /// to fit; adds ~1/3 extra compute during backward.
    bool recompute = false;
    double tail_latency = 0.0;     ///< multi-hop stream penalties
    /// @}

    /// @{ Memory (worst die).
    double peak_mem_bytes = 0.0;
    mem::MemoryFootprint peak_footprint;
    /// @}

    /// @{ Power/energy.
    cost::EnergyBreakdown energy;
    double avg_power_w = 0.0;
    double power_efficiency = 0.0;  ///< useful FLOPs per joule
    /// @}

    double bw_utilization = 0.0;       ///< during comm phases
    double total_flops = 0.0;          ///< useful FLOPs per step
    double throughput_tokens_per_s = 0.0;

    std::string strategy_desc;  ///< human-readable strategy summary

    /// Relative throughput vs. a reference report (>1 means faster).
    double speedupOver(const PerfReport &reference) const
    {
        if (step_time <= 0.0 || reference.step_time <= 0.0)
            return 0.0;
        return reference.step_time / step_time;
    }
};

}  // namespace temp::sim
