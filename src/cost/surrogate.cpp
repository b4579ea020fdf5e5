#include "cost/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "parallel/layout.hpp"

namespace temp::cost {

const char *
costTargetName(CostTargetKind kind)
{
    switch (kind) {
      case CostTargetKind::Computation: return "computation";
      case CostTargetKind::Communication: return "communication";
      case CostTargetKind::Overlap: return "overlap";
    }
    return "?";
}

CostDatasetGenerator::CostDatasetGenerator(const hw::Wafer &wafer)
    : wafer_(wafer),
      compute_(wafer.config().die, wafer.config().hbm),
      router_(wafer.topology()),
      scheduler_(router_),
      contention_(wafer.topology(),
                  wafer.config().d2d.bandwidth_bytes_per_s,
                  wafer.config().d2d.latency_s),
      chain_mapper_(wafer.topology()),
      tatp_executor_(wafer.config().d2d)
{
}

CostSample
CostDatasetGenerator::computationSample(Rng &rng) const
{
    // Random operator shapes over the Sec. VIII-G sweep ranges: batch,
    // sequence, hidden, plus GEMM/vector kind (GEMM, GEMV, softmax,
    // SiLU in the paper).
    const double b = std::pow(2.0, rng.uniformInt(0, 7));
    const double m = std::pow(2.0, rng.uniformInt(7, 14));
    const double n = std::pow(2.0, rng.uniformInt(9, 14));
    const bool is_gemm = rng.bernoulli(0.5);
    const double k = is_gemm ? std::pow(2.0, rng.uniformInt(9, 14)) : n;

    const double flops = is_gemm ? 2.0 * b * m * n * k : 6.0 * b * m * n;
    const double bytes = (b * m * n + (is_gemm ? n * k + b * m * k : 0.0)) *
                         kBytesFp16;

    CostSample sample;
    sample.features = {std::log2(b),  std::log2(m),
                       std::log2(n),  std::log2(k),
                       is_gemm ? 1.0 : 0.0, std::log2(flops),
                       std::log2(bytes)};
    sample.latency_s = compute_.opTime(flops, bytes, is_gemm);
    return sample;
}

CostSample
CostDatasetGenerator::communicationSample(Rng &rng) const
{
    // Random collective over a contiguous group (All-Reduce,
    // Reduce-Scatter, All-Gather, P2P — the Sec. VIII-G operator set).
    const int kind_idx = rng.uniformInt(0, 3);
    const net::CollectiveKind kinds[] = {
        net::CollectiveKind::AllReduce, net::CollectiveKind::ReduceScatter,
        net::CollectiveKind::AllGather, net::CollectiveKind::P2P};
    const net::CollectiveKind kind = kinds[kind_idx];

    const int max_group = wafer_.dieCount();
    int group_size =
        kind == net::CollectiveKind::P2P
            ? 2
            : std::min(max_group, 1 << rng.uniformInt(1, 5));
    const double bytes = std::pow(2.0, rng.uniformReal(18.0, 30.0));

    const auto snake =
        parallel::GroupLayout::snakeOrder(wafer_.topology());
    const int start = rng.uniformInt(0, max_group - group_size);
    const std::span<const hw::DieId> group(snake.data() + start,
                                           group_size);

    net::CollectiveTask task;
    task.kind = kind;
    task.group = wafer_.topology().dieGroups().intern(group);
    task.bytes = bytes;
    const net::CommSchedule sched = scheduler_.schedule(task);
    const double latency = contention_.evaluateSequence(sched).time_s;

    CostSample sample;
    const double n = group_size;
    // Ring-collective structure features: volume factor, round count,
    // per-kind one-hots, and interactions.
    const double volume_factor =
        kind == net::CollectiveKind::AllReduce ? 2.0 * (n - 1.0) / n
        : kind == net::CollectiveKind::P2P     ? 1.0
                                               : (n - 1.0) / n;
    sample.features = {
        static_cast<double>(kind_idx),
        n,
        std::log2(n),
        std::log2(bytes),
        std::log2(bytes * volume_factor),
        std::log2(n) * std::log2(bytes),
        kind == net::CollectiveKind::AllReduce ? 1.0 : 0.0,
        kind == net::CollectiveKind::P2P ? 1.0 : 0.0,
    };
    sample.latency_s = std::max(latency, 1e-9);
    return sample;
}

CostSample
CostDatasetGenerator::overlapSample(Rng &rng) const
{
    // GEMM overlapped with the TATP stream (the paper's overlap case).
    const int degree = 1 << rng.uniformInt(1, 5);
    const double b = std::pow(2.0, rng.uniformInt(0, 6));
    const double m = std::pow(2.0, rng.uniformInt(8, 13));
    const double n = std::pow(2.0, rng.uniformInt(10, 14));
    const double k = std::pow(2.0, rng.uniformInt(10, 14));

    const double total_flops = 2.0 * b * m * n * k;
    const double flops_per_round =
        total_flops / (static_cast<double>(degree) * degree);
    const double stream_bytes = n * k * kBytesFp16 / degree;

    parallel::ParallelSpec spec;
    spec.tatp = degree;
    parallel::GroupLayout layout(wafer_.topology(), spec);
    const tatp::ChainInfo chain =
        chain_mapper_.analyzeChain(layout.groups(parallel::Axis::TATP)[0]);

    const double rate = wafer_.config().die.peak_flops *
                        compute_.gemmEfficiency(flops_per_round);
    const tatp::TatpTiming timing = tatp_executor_.timePass(
        flops_per_round, stream_bytes, degree, chain, rate);

    CostSample sample;
    sample.features = {static_cast<double>(degree), std::log2(b),
                       std::log2(m), std::log2(n), std::log2(k),
                       std::log2(stream_bytes),
                       std::log2(flops_per_round)};
    sample.latency_s = std::max(timing.time_s, 1e-9);
    return sample;
}

std::vector<CostSample>
CostDatasetGenerator::generate(CostTargetKind kind, int count, Rng &rng)
    const
{
    std::vector<CostSample> samples;
    samples.reserve(count);
    for (int i = 0; i < count; ++i) {
        switch (kind) {
          case CostTargetKind::Computation:
            samples.push_back(computationSample(rng));
            break;
          case CostTargetKind::Communication:
            samples.push_back(communicationSample(rng));
            break;
          case CostTargetKind::Overlap:
            samples.push_back(overlapSample(rng));
            break;
        }
    }
    return samples;
}

DnnCostModel::DnnCostModel(std::uint64_t seed) : rng_(seed) {}

std::vector<double>
DnnCostModel::normalize(const std::vector<double> &features) const
{
    std::vector<double> out(features.size());
    for (std::size_t i = 0; i < features.size(); ++i)
        out[i] = (features[i] - mean_[i]) / std_[i];
    return out;
}

void
DnnCostModel::fit(const std::vector<CostSample> &samples)
{
    if (samples.empty())
        fatal("DnnCostModel::fit: empty dataset");
    const std::size_t dims = samples[0].features.size();

    mean_.assign(dims, 0.0);
    std_.assign(dims, 0.0);
    for (const CostSample &s : samples)
        for (std::size_t i = 0; i < dims; ++i)
            mean_[i] += s.features[i];
    for (double &v : mean_)
        v /= static_cast<double>(samples.size());
    for (const CostSample &s : samples)
        for (std::size_t i = 0; i < dims; ++i)
            std_[i] += (s.features[i] - mean_[i]) *
                       (s.features[i] - mean_[i]);
    for (double &v : std_)
        v = std::max(1e-9, std::sqrt(v / samples.size()));

    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (const CostSample &s : samples) {
        inputs.push_back(normalize(s.features));
        targets.push_back(std::log(std::max(s.latency_s, 1e-12)));
    }

    mlp_ = std::make_unique<Mlp>(
        std::vector<int>{static_cast<int>(dims), 32, 32, 1}, rng_);
    mlp_->train(inputs, targets, epochs, 5e-3);
}

double
DnnCostModel::predict(const std::vector<double> &features) const
{
    if (!mlp_)
        panic("DnnCostModel::predict before fit");
    return std::exp(mlp_->predictScalar(normalize(features)));
}

void
LinearCostModel::fit(const std::vector<CostSample> &samples)
{
    if (samples.empty())
        fatal("LinearCostModel::fit: empty dataset");
    // Multivariate regression in log space (latencies span orders of
    // magnitude; a raw-space linear fit is useless). This matches the
    // respectable-but-limited baseline of Sec. VIII-G.
    const std::size_t dims = samples[0].features.size();
    Matrix x(samples.size(), dims + 1);
    std::vector<double> y(samples.size());
    for (std::size_t r = 0; r < samples.size(); ++r) {
        x.at(r, 0) = 1.0;
        for (std::size_t c = 0; c < dims; ++c)
            x.at(r, c + 1) = samples[r].features[c];
        y[r] = std::log(std::max(samples[r].latency_s, 1e-12));
    }
    weights_ = leastSquares(x, y, 1e-9);
}

double
LinearCostModel::predict(const std::vector<double> &features) const
{
    if (weights_.empty())
        panic("LinearCostModel::predict before fit");
    double acc = weights_[0];
    for (std::size_t i = 0; i < features.size(); ++i)
        acc += weights_[i + 1] * features[i];
    return std::exp(acc);
}

FidelityReport
evaluatePredictor(const CostPredictor &predictor,
                  const std::vector<CostSample> &samples)
{
    std::vector<double> predicted, measured;
    for (const CostSample &s : samples) {
        predicted.push_back(predictor.predict(s.features));
        measured.push_back(s.latency_s);
    }
    FidelityReport report;
    report.correlation = pearsonCorrelation(predicted, measured);
    report.mape = meanAbsPercentError(predicted, measured);
    return report;
}

}  // namespace temp::cost
