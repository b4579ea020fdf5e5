#include "cost/breakdown_reduce.hpp"

#include "common/kernels.hpp"

namespace temp::cost {

TEMP_NO_AUTOVEC BreakdownSums
reduceBreakdownsScalar(std::span<const OpCostBreakdown> cells)
{
    BreakdownSums s;
    for (const OpCostBreakdown &c : cells) {
        s.wall += c.fwd_time + c.bwd_time;
        s.comp += c.comp_time;
        s.collective += c.collective_time;
        s.stream += c.stream_comm_time;
        s.exposed += c.exposed_comm;
        s.tail += c.tail_latency;
        s.flops += c.flops;
        s.dram += c.dram_bytes;
        s.d2d += c.d2d_link_bytes;
        if (c.bw_utilization > 0.0 && c.d2d_link_bytes > 0.0) {
            s.util_acc += c.bw_utilization * c.d2d_link_bytes;
            s.util_weight += c.d2d_link_bytes;
        }
    }
    return s;
}

BreakdownSums
reduceBreakdownsSimd(std::span<const OpCostBreakdown> cells)
{
    // The field sums are 11 independent accumulation chains, each
    // adding cells in order — reassociating any one of them across
    // cells would change bits, so the vector win here is *within* a
    // cell: branchless selects (the util blend is +0.0, the identity on
    // these non-negative accumulations) and adjacent-field grouping the
    // compiler can SLP-pack, with -ffp-contract=off keeping the util
    // product out of an FMA.
    BreakdownSums s;
    for (const OpCostBreakdown &c : cells) {
        const bool use_util =
            c.bw_utilization > 0.0 && c.d2d_link_bytes > 0.0;
        s.wall += c.fwd_time + c.bwd_time;
        s.comp += c.comp_time;
        s.collective += c.collective_time;
        s.stream += c.stream_comm_time;
        s.exposed += c.exposed_comm;
        s.tail += c.tail_latency;
        s.flops += c.flops;
        s.dram += c.dram_bytes;
        s.d2d += c.d2d_link_bytes;
        s.util_acc +=
            use_util ? c.bw_utilization * c.d2d_link_bytes : 0.0;
        s.util_weight += use_util ? c.d2d_link_bytes : 0.0;
    }
    return s;
}

BreakdownSums
reduceBreakdowns(std::span<const OpCostBreakdown> cells)
{
    return kernels::simdActive() ? reduceBreakdownsSimd(cells)
                                 : reduceBreakdownsScalar(cells);
}

}  // namespace temp::cost
