/**
 * @file
 * Multi-wafer training simulation (Sec. VIII-E, Fig. 19).
 *
 * Pipeline parallelism distributes layers across pipeline stages; the
 * stage fabric is either a whole wafer, several wafers joined by
 * inter-wafer links (pp < wafer count), or a fraction of a wafer
 * (pp > wafer count). The classic 1F1B bubble model applies:
 *   bubble fraction = (pp - 1) / (m + pp - 1)
 * with m microbatches, plus inter-stage activation transfers.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "sim/trainer_sim.hpp"

namespace temp::sim {

/// Simulates PP-over-wafers training of large models.
class MultiWaferSimulator
{
  public:
    MultiWaferSimulator(hw::MultiWaferConfig config,
                        tcme::MappingPolicy policy,
                        parallel::TrainingOptions options =
                            parallel::TrainingOptions());

    /**
     * Simulates one training step.
     *
     * @param graph Whole-model graph.
     * @param intra_spec Parallelism within one pipeline stage.
     * @param pp Pipeline-stage count; layers must divide by it, and it
     *        must be compatible with the wafer count (multiple or
     *        divisor).
     * @param microbatches Gradient-accumulation microbatches.
     */
    PerfReport simulate(const model::ComputeGraph &graph,
                        const parallel::ParallelSpec &intra_spec, int pp,
                        int microbatches) const;

    /**
     * The die grid available to one pipeline stage. pp <= wafers: the
     * stage spans wafers/pp wafers side by side (inter-wafer links are
     * Dojo-class, Sec. VIII-E); pp > wafers: the wafer is column-split
     * into pp/wafers stage slices.
     */
    hw::WaferConfig stageFabric(int pp) const;

    const hw::MultiWaferConfig &config() const { return config_; }

  private:
    /// One pipeline stage's wafer + simulator. Cached per pp so sweeps
    /// over (pp, m, spec) reuse the stage simulator — and with it its
    /// cost model's layout and cell memos — instead of rebuilding both
    /// per call.
    struct StageContext
    {
        StageContext(const hw::WaferConfig &cfg, tcme::MappingPolicy policy,
                     parallel::TrainingOptions options)
            : wafer(cfg), sim(wafer, policy, options)
        {
        }

        hw::Wafer wafer;
        TrainingSimulator sim;
    };

    /// Returns (building on first use) the stage context for pp.
    StageContext &stageContext(int pp) const;

    hw::MultiWaferConfig config_;
    tcme::MappingPolicy policy_;
    parallel::TrainingOptions options_;
    mutable std::mutex mutex_;
    mutable std::map<int, std::unique_ptr<StageContext>> stages_;
};

}  // namespace temp::sim
