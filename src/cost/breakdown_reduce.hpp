/**
 * @file
 * Batched reduction over OpCostBreakdown cells: the per-layer sums the
 * step simulator folds over every op.
 *
 * Bit-exactness: each output accumulator keeps the exact per-cell
 * addition order of the former field-by-field loop; the SIMD variant
 * vectorizes *across independent accumulators* (one lane per field),
 * never reassociating any single accumulation chain. See
 * common/kernels.hpp for the contract.
 */
#pragma once

#include <span>

#include "cost/cost_model.hpp"

namespace temp::cost {

/// Field sums over a batch of breakdown cells, in cell order per field.
struct BreakdownSums
{
    double wall = 0.0;        ///< sum of fwd_time + bwd_time
    double comp = 0.0;        ///< sum of comp_time
    double collective = 0.0;  ///< sum of collective_time
    double stream = 0.0;      ///< sum of stream_comm_time
    double exposed = 0.0;     ///< sum of exposed_comm
    double tail = 0.0;        ///< sum of tail_latency
    double flops = 0.0;       ///< sum of flops
    double dram = 0.0;        ///< sum of dram_bytes
    double d2d = 0.0;         ///< sum of d2d_link_bytes
    /// Link-byte-weighted bandwidth utilisation terms, accumulated only
    /// for cells with both bw_utilization > 0 and d2d_link_bytes > 0.
    double util_acc = 0.0;     ///< sum of bw_utilization * d2d_link_bytes
    double util_weight = 0.0;  ///< sum of d2d_link_bytes
};

BreakdownSums reduceBreakdownsScalar(std::span<const OpCostBreakdown> cells);
BreakdownSums reduceBreakdownsSimd(std::span<const OpCostBreakdown> cells);
/// Runtime-dispatched reduction (kernels::simdActive()).
BreakdownSums reduceBreakdowns(std::span<const OpCostBreakdown> cells);

}  // namespace temp::cost
