#include "model/graph.hpp"

#include "common/hash.hpp"

namespace temp::model {


double
ComputeGraph::layerForwardFlops() const
{
    double total = 0.0;
    for (const Operator &op : ops_)
        total += op.forwardFlops();
    return total;
}

double
ComputeGraph::layerTrainingFlops() const
{
    double total = 0.0;
    for (const Operator &op : ops_)
        total += op.trainingFlops();
    return total;
}

double
ComputeGraph::layerWeightBytes() const
{
    double total = 0.0;
    for (const Operator &op : ops_)
        total += op.weightBytes();
    return total;
}

std::vector<int>
ComputeGraph::residualFreeCutPoints() const
{
    std::vector<int> cuts;
    for (int p = 1; p < opCount(); ++p) {
        bool crossed = false;
        for (const Edge &edge : edges_) {
            if (!edge.residual)
                continue;
            if (edge.from < p && edge.to >= p)
                crossed = true;
        }
        if (!crossed)
            cuts.push_back(p);
    }
    return cuts;
}

ComputeGraph
ComputeGraph::transformer(const ModelConfig &config)
{
    ComputeGraph graph;
    graph.config_ = config;
    graph.layer_count_ = config.layers;

    const double bsz = config.batch;
    const double seq = config.seq;
    const double h = config.hidden;
    const double heads = config.heads;
    const double hd = config.headDim();
    const double ffn = config.intermediate();

    int next_id = 0;
    auto add = [&](OpType type, const char *name, double b, double m,
                   double n, double k, bool has_weight, TpRole role,
                   bool closes_residual = false) {
        Operator op;
        op.id = next_id++;
        op.type = type;
        op.name = name;
        op.b = b;
        op.m = m;
        op.n = n;
        op.k = k;
        op.has_weight = has_weight;
        op.tp_role = role;
        op.closes_residual = closes_residual;
        graph.ops_.push_back(op);
        if (op.id > 0)
            graph.edges_.push_back(Edge{op.id - 1, op.id, false});
        return op.id;
    };

    // Multi-head attention block (ops 1-7 in Fig. 12a).
    const int ln1 = add(OpType::LayerNorm, "ln1", bsz, seq, h, h, false,
                        TpRole::SequenceRegion);
    add(OpType::Gemm, "qkv", bsz, seq, h, 3.0 * h, true,
        TpRole::ColumnParallel);
    add(OpType::AttentionScore, "qk^T", bsz * heads, seq, hd, seq, false,
        TpRole::HeadParallel);
    add(OpType::Softmax, "softmax", bsz * heads, seq, seq, seq, false,
        TpRole::HeadParallel);
    add(OpType::AttentionContext, "score*v", bsz * heads, seq, seq, hd,
        false, TpRole::HeadParallel);
    add(OpType::Gemm, "proj", bsz, seq, h, h, true, TpRole::RowParallel);
    const int res1 = add(OpType::Residual, "residual1", bsz, seq, h, h,
                         false, TpRole::SequenceRegion, true);
    graph.edges_.push_back(Edge{ln1, res1, true});

    // FFN block (ops 8-12).
    const int ln2 = add(OpType::LayerNorm, "ln2", bsz, seq, h, h, false,
                        TpRole::SequenceRegion);
    add(OpType::Gemm, "fc1", bsz, seq, h, ffn, true, TpRole::ColumnParallel);
    add(OpType::GeLU, "gelu", bsz, seq, ffn, ffn, false,
        TpRole::HeadParallel);
    add(OpType::Gemm, "fc2", bsz, seq, ffn, h, true, TpRole::RowParallel);
    const int res2 = add(OpType::Residual, "residual2", bsz, seq, h, h,
                         false, TpRole::SequenceRegion, true);
    graph.edges_.push_back(Edge{ln2, res2, true});

    return graph;
}

std::uint64_t
graphFingerprint(const ComputeGraph &graph)
{
    const ModelConfig &cfg = graph.config();
    std::uint64_t hash = common::fnv1aBytes(cfg.name.data(), cfg.name.size());
    for (const int value : {cfg.heads, cfg.batch, cfg.hidden, cfg.layers,
                            cfg.seq, cfg.ffn_mult, cfg.vocab, graph.opCount(),
                            graph.layerCount()})
        hash = common::fnv1aValue(hash, static_cast<std::uint64_t>(value));
    return hash;
}

}  // namespace temp::model
