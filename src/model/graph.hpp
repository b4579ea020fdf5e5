/**
 * @file
 * Transformer compute graphs (Fig. 12a).
 *
 * A graph holds the operators of one transformer layer plus the chain and
 * residual edges between them; the layer repeats `layerCount()` times.
 * Keeping a single representative layer keeps simulation and search cost
 * independent of model depth (all layers are identical).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/model_zoo.hpp"
#include "model/operator.hpp"

namespace temp::model {

/// A dependency edge between two operators.
struct Edge
{
    int from = 0;
    int to = 0;
    /// True for skip connections (residual adds close these).
    bool residual = false;
};

/// One transformer layer's operator chain plus its repeat count.
class ComputeGraph
{
  public:
    ComputeGraph() = default;

    const std::vector<Operator> &ops() const { return ops_; }
    const std::vector<Edge> &edges() const { return edges_; }
    const ModelConfig &config() const { return config_; }

    /// Number of identical layers the graph stands for.
    int layerCount() const { return layer_count_; }

    /// Number of operators in the representative layer.
    int opCount() const { return static_cast<int>(ops_.size()); }

    const Operator &op(int id) const { return ops_[id]; }

    /// Forward FLOPs of one layer.
    double layerForwardFlops() const;

    /// Forward+backward FLOPs of one layer.
    double layerTrainingFlops() const;

    /// Forward+backward FLOPs of the whole model (all layers).
    double totalTrainingFlops() const
    {
        return layerTrainingFlops() * layer_count_;
    }

    /// Parameter bytes in one layer (FP16).
    double layerWeightBytes() const;

    /**
     * Indices at which the chain can be cut without crossing a residual
     * edge (the graph-partition step of the DLS algorithm). A cut point p
     * means the chain may be split between ops p-1 and p.
     */
    std::vector<int> residualFreeCutPoints() const;

    /**
     * Builds the supported transformer block (Fig. 12a): LayerNorm, QKV,
     * Q*K^T, softmax, Score*V, projection, residual, LayerNorm, FC1,
     * GeLU, FC2, residual.
     */
    static ComputeGraph transformer(const ModelConfig &config);

  private:
    std::vector<Operator> ops_;
    std::vector<Edge> edges_;
    ModelConfig config_;
    int layer_count_ = 1;
};

/// Content fingerprint of a graph for memo keys (FNV-1a over the model
/// configuration and graph shape), so memos key on what a graph is,
/// not where it lives.
std::uint64_t graphFingerprint(const ComputeGraph &graph);

}  // namespace temp::model
