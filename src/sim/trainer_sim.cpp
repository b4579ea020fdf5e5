#include "sim/trainer_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hpp"
#include "cost/breakdown_reduce.hpp"

namespace temp::sim {

using parallel::ParallelSpec;

TrainingSimulator::TrainingSimulator(const hw::Wafer &wafer,
                                     tcme::MappingPolicy policy,
                                     parallel::TrainingOptions options)
    : wafer_(wafer), cost_model_(wafer, policy, options)
{
}

PerfReport
TrainingSimulator::simulate(const model::ComputeGraph &graph,
                            const ParallelSpec &spec) const
{
    return simulate(graph,
                    std::vector<ParallelSpec>(graph.opCount(), spec));
}

PerfReport
TrainingSimulator::simulate(const model::ComputeGraph &graph,
                            const std::vector<ParallelSpec> &per_op_specs)
    const
{
    if (static_cast<int>(per_op_specs.size()) != graph.opCount())
        fatal("TrainingSimulator: %zu specs for %d ops",
              per_op_specs.size(), graph.opCount());

    const model::ModelConfig &cfg = graph.config();
    const double full_tokens =
        static_cast<double>(cfg.batch) * cfg.seq;

    // Largest batch-splitting degree bounds the accumulation factor
    // (every DP/FSDP replica needs at least one sample per microbatch).
    int max_bsplit = 1;
    for (const ParallelSpec &spec : per_op_specs)
        max_bsplit = std::max(max_bsplit, spec.dp * spec.fsdp);
    const int max_accum = std::max(1, cfg.batch / max_bsplit);

    PerfReport micro = simulateMicro(graph, per_op_specs);
    if (!micro.feasible)
        return micro;
    PerfReport full = composeAccum(micro, 1, full_tokens);
    if (!full.oom || max_accum == 1)
        return full;

    // Activations shrink ~1/accum; static state does not. Jump straight
    // to the smallest power-of-two factor that can fit, then verify.
    const double capacity = wafer_.config().hbm.capacity_bytes;
    const double static_bytes =
        full.peak_mem_bytes -
        full.peak_footprint[mem::MemClass::Activations];
    int accum = 1;
    if (static_bytes < capacity) {
        const double act = full.peak_footprint[mem::MemClass::Activations];
        const double needed = act / (capacity - static_bytes);
        while (accum < max_accum &&
               static_cast<double>(accum) < needed &&
               cfg.batch % (accum * 2) == 0) {
            accum *= 2;
        }
    } else {
        accum = max_accum;  // cannot fit regardless; report honestly
    }
    if (accum == 1)
        return full;

    const model::ComputeGraph micro_graph = model::ComputeGraph::transformer(
        cfg.withSeqBatch(cfg.seq, cfg.batch / accum));
    PerfReport micro2 = simulateMicro(micro_graph, per_op_specs);
    if (!micro2.feasible)
        return micro2;
    PerfReport full2 = composeAccum(micro2, accum, full_tokens);
    if (!full2.oom)
        return full2;

    // Last resort: activation checkpointing at maximum accumulation.
    const int final_accum = std::max(accum, max_accum);
    const model::ComputeGraph ckpt_graph = model::ComputeGraph::transformer(
        cfg.withSeqBatch(cfg.seq, cfg.batch / final_accum));
    PerfReport micro3 =
        simulateMicro(ckpt_graph, per_op_specs, /*recompute=*/true);
    if (!micro3.feasible)
        return micro3;
    PerfReport full3 = composeAccum(micro3, final_accum, full_tokens);
    // Keep whichever picture is honest: if checkpointing fits, use it.
    return full3.oom && full3.step_time > full2.step_time ? full2 : full3;
}

PerfReport
TrainingSimulator::composeAccum(const PerfReport &micro, int accum,
                                double full_tokens) const
{
    PerfReport full = micro;
    const double a = accum;
    full.grad_accum = accum;
    full.step_time =
        (micro.step_time - micro.grad_sync_time) * a + micro.grad_sync_time;
    full.comp_time = micro.comp_time * a;
    full.collective_time =
        (micro.collective_time - micro.grad_sync_collective_time) * a +
        micro.grad_sync_collective_time;
    full.stream_comm_time = micro.stream_comm_time * a;
    full.exposed_comm =
        (micro.exposed_comm - micro.grad_sync_time) * a +
        micro.grad_sync_time;
    full.tail_latency = micro.tail_latency * a;
    full.reshard_time = micro.reshard_time * a;
    full.total_flops = micro.total_flops * a;

    // Gradient-sync fabric traffic happens once per step, the rest per
    // microbatch.
    const double sync_j = micro.grad_sync_link_bytes *
                          wafer_.config().d2d.joulesPerByte();
    full.energy.compute_j = micro.energy.compute_j * a;
    full.energy.dram_j = micro.energy.dram_j * a;
    full.energy.d2d_j = (micro.energy.d2d_j - sync_j) * a + sync_j;
    full.energy.static_j = cost_model_.powerModel().staticPowerPerDie() *
                           wafer_.dieCount() * full.step_time;
    full.avg_power_w = cost_model_.powerModel().averagePower(
        full.energy, full.step_time);
    full.power_efficiency = cost_model_.powerModel().powerEfficiency(
        full.total_flops, full.energy);

    full.throughput_tokens_per_s =
        full.step_time > 0.0 ? full_tokens / full.step_time : 0.0;
    // Memory (peak per die) is the microbatch picture; re-evaluate OOM.
    full.oom = full.peak_mem_bytes > wafer_.config().hbm.capacity_bytes;
    return full;
}

PerfReport
TrainingSimulator::simulateMicro(const model::ComputeGraph &graph,
                                 const std::vector<ParallelSpec>
                                     &per_op_specs,
                                 bool recompute) const
{
    PerfReport report;
    report.recompute = recompute;

    // ---- One representative layer -------------------------------------
    double layer_reshard = 0.0;
    mem::MemoryFootprint static_mem;  // weights/grads/optimizer/buffers
    double act_per_layer = 0.0;       // activations stored per layer
    // The layer's step tasks, merged into a per-thread buffer: tasks
    // are flat values, so the merge copies no die list and, once the
    // buffer has grown, allocates nothing.
    thread_local std::vector<net::CollectiveTask> step_tasks;
    step_tasks.clear();

    // Each (op, spec) cell comes from the cost model's cell memo, which
    // the DP matrix fills too, so a cell is costed once per fault state
    // however many plans and matrix fills reuse it. Breakdowns
    // are collected and reduced in one batched pass after the loop
    // (cost::reduceBreakdowns); the loop keeps only the work that needs
    // the plan: feasibility early-outs, footprints, step-task
    // collection and resharding.
    const std::uint64_t graph_fp = model::graphFingerprint(graph);
    thread_local std::vector<cost::OpCostBreakdown> cells;
    cells.clear();
    double first_activation_bytes = 0.0;
    const int usable_dies = wafer_.usableDieCount();

    for (int i = 0; i < graph.opCount(); ++i) {
        const model::Operator &op = graph.op(i);
        const ParallelSpec &spec = per_op_specs[i];
        if (!spec.valid() || spec.totalDegree() > usable_dies) {
            report.feasible = false;
            return report;
        }
        std::shared_ptr<const cost::OpCell> cell =
            cost_model_.findCell(graph_fp, i, spec);
        if (cell == nullptr)
            cell = cost_model_.addCell(graph, graph_fp, i, spec);
        const cost::OpCostBreakdown &c = cell->breakdown;
        if (!c.feasible) {
            report.feasible = false;
            return report;
        }

        cells.push_back(c);
        if (i == 0)
            first_activation_bytes = cell->activation_bytes;

        const mem::MemoryFootprint &fp = cell->footprint;
        static_mem[mem::MemClass::Weights] += fp[mem::MemClass::Weights];
        static_mem[mem::MemClass::Gradients] +=
            fp[mem::MemClass::Gradients];
        static_mem[mem::MemClass::OptimizerState] +=
            fp[mem::MemClass::OptimizerState];
        // Gather/stream buffers are per-op transient; the peak is the
        // largest single op's buffer (double-buffered prefetch at most).
        static_mem[mem::MemClass::CommBuffers] =
            std::max(static_mem[mem::MemClass::CommBuffers],
                     fp[mem::MemClass::CommBuffers]);
        act_per_layer += fp[mem::MemClass::Activations];

        step_tasks.insert(step_tasks.end(), cell->step_tasks.begin(),
                          cell->step_tasks.end());

        // Inter-op resharding (Eq. 3).
        if (i + 1 < graph.opCount() && !(per_op_specs[i + 1] == spec)) {
            layer_reshard +=
                cost_model_.interOpTime(op, spec, per_op_specs[i + 1]);
        }
    }

    // The layer's fwd+bwd wall, compute, blocking collectives, stream,
    // op-level exposed communication, tail, FLOPs, DRAM and D2D bytes.
    cost::BreakdownSums layer = cost::reduceBreakdowns(cells);

    if (recompute) {
        // Activation checkpointing: store only the layer-boundary
        // activation (the first op's input tensor) and re-run the
        // forward pass during backward.
        act_per_layer = first_activation_bytes;
        const double extra = layer.comp / 3.0;  // one extra forward
        layer.wall += extra;
        layer.comp += extra;
        layer.flops += layer.flops / 3.0;
    }

    // Merged gradient synchronisation: all the layer's grad-sync
    // collectives execute as one bucketed phase, partially overlapped
    // with backward compute.
    double step_link_bytes = 0.0;
    const net::PhaseTiming step_timing =
        cost_model_.timeCollectiveTasks(step_tasks, &step_link_bytes);
    if (std::isinf(step_timing.time_s)) {
        report.feasible = false;
        return report;
    }
    const double step_exposed =
        step_timing.time_s *
        (1.0 - cost::WaferCostModel::kGradSyncOverlap);
    if (step_timing.total_bytes > 0.0 && step_link_bytes > 0.0) {
        layer.util_acc +=
            step_timing.bandwidth_utilization * step_link_bytes;
        layer.util_weight += step_link_bytes;
    }

    // ---- Scale the layer to the model (Eq. 4) --------------------------
    const double layers = graph.layerCount();
    report.step_time =
        (layer.wall + layer_reshard + step_exposed) * layers;
    report.comp_time = layer.comp * layers;
    report.collective_time = (layer.collective + step_timing.time_s) * layers;
    report.stream_comm_time = layer.stream * layers;
    report.exposed_comm = (layer.exposed + step_exposed) * layers;
    report.tail_latency = layer.tail * layers;
    report.reshard_time = layer_reshard * layers;
    report.grad_sync_time = step_exposed * layers;
    report.grad_sync_collective_time = step_timing.time_s * layers;
    report.grad_sync_link_bytes = step_link_bytes * layers;
    report.total_flops = layer.flops * layers;

    // ---- Memory ---------------------------------------------------------
    const double capacity = wafer_.config().hbm.capacity_bytes;
    mem::MemoryFootprint peak = static_mem.scaled(layers);
    // Gather/stream buffers are transient: only one layer's worth is
    // ever live (FSDP re-gathers layer by layer; TATP streams in-place).
    peak[mem::MemClass::CommBuffers] =
        static_mem[mem::MemClass::CommBuffers];
    peak[mem::MemClass::Activations] = act_per_layer * layers;
    report.peak_footprint = peak;
    report.peak_mem_bytes = peak.total();
    report.oom = report.peak_mem_bytes > capacity;

    // ---- Energy and derived metrics --------------------------------------
    report.energy = cost_model_.powerModel().stepEnergy(
        report.total_flops, layer.dram * layers,
        (layer.d2d + step_link_bytes) * layers, report.step_time,
        wafer_.dieCount());
    report.avg_power_w = cost_model_.powerModel().averagePower(
        report.energy, report.step_time);
    report.power_efficiency = cost_model_.powerModel().powerEfficiency(
        report.total_flops, report.energy);
    report.bw_utilization =
        layer.util_weight > 0.0 ? layer.util_acc / layer.util_weight : 0.0;

    const double tokens = static_cast<double>(graph.config().batch) *
                          graph.config().seq;
    report.throughput_tokens_per_s =
        report.step_time > 0.0 ? tokens / report.step_time : 0.0;
    report.strategy_desc = per_op_specs.front().str();
    return report;
}

}  // namespace temp::sim
