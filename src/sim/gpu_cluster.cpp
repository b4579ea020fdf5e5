#include "sim/gpu_cluster.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "hw/topology.hpp"
#include "mem/hbm_model.hpp"
#include "net/collective.hpp"
#include "parallel/layout.hpp"

namespace temp::sim {

using parallel::ParallelSpec;

GpuClusterSimulator::GpuClusterSimulator(hw::GpuClusterConfig config,
                                         parallel::TrainingOptions options)
    : config_(config), options_(options), partitioner_(options)
{
}

double
GpuClusterSimulator::collectiveTime(const net::CollectiveTask &task) const
{
    // Megatron deployment convention: TP groups live inside one
    // NVSwitch node; any group larger than a node (or any replica-axis
    // group, which interleaves across nodes) rides the inter-node tier.
    const bool intra_node =
        task.tag == parallel::axisTag(parallel::Axis::TP) &&
        static_cast<int>(task.size()) <= config_.gpus_per_node;
    const double bw = intra_node
                          ? config_.nic_bandwidth_bytes_per_s
                          : config_.inter_node_bandwidth_bytes_per_s;
    return net::collectiveLowerBoundTime(
        task.kind, static_cast<int>(task.size()), task.bytes, bw,
        config_.nic_latency_s);
}

PerfReport
GpuClusterSimulator::simulate(const model::ComputeGraph &graph,
                              const ParallelSpec &spec) const
{
    PerfReport report;
    if (!spec.valid() || spec.totalDegree() > config_.gpu_count) {
        report.feasible = false;
        return report;
    }

    // Group structure is topology-independent on a switch; reuse the
    // mesh layout machinery purely for group bookkeeping.
    int rows = 1;
    for (int r = static_cast<int>(std::sqrt(config_.gpu_count)); r >= 1;
         --r) {
        if (config_.gpu_count % r == 0) {
            rows = r;
            break;
        }
    }
    const hw::MeshTopology fake_mesh(rows, config_.gpu_count / rows);
    const parallel::GroupLayout layout(fake_mesh, spec);

    // A100-style compute/memory roofline.
    hw::DieConfig gpu_die;
    gpu_die.peak_flops = config_.peak_flops;
    gpu_die.flops_per_watt = config_.flops_per_watt;
    hw::HbmConfig gpu_hbm;
    gpu_hbm.capacity_bytes = config_.mem_capacity_bytes;
    gpu_hbm.bandwidth_bytes_per_s = config_.mem_bandwidth_bytes_per_s;
    const cost::ComputeModel compute(gpu_die, gpu_hbm);

    double layer_time = 0.0;
    double step_sync = 0.0;
    mem::MemoryFootprint static_mem;
    double act_per_layer = 0.0;

    for (const model::Operator &op : graph.ops()) {
        const parallel::OpExecution exec = partitioner_.analyze(op, layout);

        const double comp_fwd = compute.opTime(
            exec.fwd_flops_per_die, exec.dram_bytes_fwd, op.isGemm());
        const double comp_bwd = compute.opTime(
            exec.bwd_flops_per_die, exec.dram_bytes_bwd, op.isGemm());
        report.comp_time += comp_fwd + comp_bwd;

        double coll = 0.0;
        // Concurrent groups on a non-blocking switch do not contend; one
        // group's time is the phase time.
        auto first_group_time =
            [&](const std::vector<net::CollectiveTask> &tasks) {
                double worst = 0.0;
                for (const net::CollectiveTask &t : tasks)
                    worst = std::max(worst, collectiveTime(t));
                return worst;
            };
        coll += first_group_time(exec.fwd_collectives);
        coll += first_group_time(exec.bwd_collectives);
        const double overlap = first_group_time(exec.overlap_collectives);
        step_sync += first_group_time(exec.step_collectives);
        report.collective_time += coll;

        double stream_time = 0.0;
        if (exec.tatp.active) {
            // All switch hops are single-hop; the stream works but at
            // NIC bandwidth.
            const int g = exec.tatp.degree;
            const double comm_round =
                exec.tatp.bytes_per_round /
                    config_.nic_bandwidth_bytes_per_s +
                config_.nic_latency_s;
            const double comp_round = comp_fwd / g;
            const double bwd_round =
                std::max(comp_bwd / g,
                         2.0 * exec.tatp.bytes_per_round /
                                 config_.nic_bandwidth_bytes_per_s +
                             config_.nic_latency_s);
            stream_time = g * (std::max(comp_round, comm_round) +
                               bwd_round) -
                          (comp_fwd + comp_bwd);
            report.stream_comm_time +=
                g * (comm_round + bwd_round - comp_bwd / g);
        }

        layer_time += comp_fwd + comp_bwd + coll +
                      std::max(0.0, overlap - comp_fwd) +
                      std::max(0.0, stream_time);
        report.exposed_comm += coll + std::max(0.0, overlap - comp_fwd);

        report.total_flops +=
            (exec.fwd_flops_per_die + exec.bwd_flops_per_die) *
            layout.usedDies();

        const mem::MemoryFootprint fp = exec.footprint();
        for (mem::MemClass cls :
             {mem::MemClass::Weights, mem::MemClass::Gradients,
              mem::MemClass::OptimizerState})
            static_mem[cls] += fp[cls];
        static_mem[mem::MemClass::CommBuffers] =
            std::max(static_mem[mem::MemClass::CommBuffers],
                     fp[mem::MemClass::CommBuffers]);
        act_per_layer += fp[mem::MemClass::Activations];
    }

    const double layers = graph.layerCount();
    const double step_exposed = 0.5 * step_sync;  // bucketed overlap
    report.step_time = (layer_time + step_exposed) * layers;
    report.comp_time *= layers;
    report.collective_time = (report.collective_time + step_sync) * layers;
    report.exposed_comm = (report.exposed_comm + step_exposed) * layers;
    report.grad_sync_time = step_exposed * layers;
    report.total_flops *= layers;

    mem::MemoryFootprint peak = static_mem.scaled(layers);
    peak[mem::MemClass::CommBuffers] =
        static_mem[mem::MemClass::CommBuffers];
    peak[mem::MemClass::Activations] = act_per_layer * layers;
    report.peak_footprint = peak;
    report.peak_mem_bytes = peak.total();
    report.oom = report.peak_mem_bytes > config_.mem_capacity_bytes;

    const double tokens = static_cast<double>(graph.config().batch) *
                          graph.config().seq;
    report.throughput_tokens_per_s =
        report.step_time > 0.0 ? tokens / report.step_time : 0.0;
    report.strategy_desc = "GPU:" + spec.str();
    return report;
}

}  // namespace temp::sim
