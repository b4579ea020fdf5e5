/**
 * @file
 * Unit tests for the unified parallelism representation: specs, group
 * layouts on the mesh, and the partitioner's compute/memory/comm
 * derivations.
 */
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "hw/topology.hpp"
#include "model/graph.hpp"
#include "model/model_zoo.hpp"
#include "parallel/layout.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/spec.hpp"

namespace temp::parallel {
namespace {

using hw::DieId;
using hw::MeshTopology;

ParallelSpec
spec(int dp, int tp, int sp, int tatp, int fsdp = 1, int cp = 1)
{
    ParallelSpec s;
    s.dp = dp;
    s.tp = tp;
    s.sp = sp;
    s.tatp = tatp;
    s.fsdp = fsdp;
    s.cp = cp;
    return s;
}

const model::Operator &
findOp(const model::ComputeGraph &graph, const std::string &name)
{
    for (const model::Operator &op : graph.ops())
        if (op.name == name)
            return op;
    ADD_FAILURE() << "op not found: " << name;
    static model::Operator dummy;
    return dummy;
}

TEST(Spec, DegreeAccessorsRoundTrip)
{
    ParallelSpec s;
    for (int a = 0; a < static_cast<int>(Axis::Count); ++a) {
        s.setDegree(static_cast<Axis>(a), a + 2);
        EXPECT_EQ(s.degree(static_cast<Axis>(a)), a + 2);
    }
}

TEST(Spec, TotalDegreeExcludesPP)
{
    ParallelSpec s = spec(2, 4, 1, 2);
    s.pp = 4;
    EXPECT_EQ(s.totalDegree(), 16);
}

TEST(Spec, ValidityRules)
{
    EXPECT_TRUE(spec(2, 4, 4, 2).valid());
    EXPECT_TRUE(ParallelSpec::serial().valid());
    // dp and fsdp cannot be combined.
    EXPECT_FALSE(spec(2, 1, 1, 1, 2).valid());
    // SP is an independent axis (paper's (DP,TP,SP,TATP) tuples).
    EXPECT_TRUE(spec(1, 2, 4, 1).valid());
    ParallelSpec bad;
    bad.tp = 0;
    EXPECT_FALSE(bad.valid());
}

TEST(Spec, StringFormat)
{
    EXPECT_EQ(spec(2, 4, 1, 8).str(), "(dp=2,tp=4,sp=1,tatp=8)");
    ParallelSpec s = spec(1, 1, 1, 4, 2);
    EXPECT_NE(s.str().find("fsdp=2"), std::string::npos);
}

TEST(Layout, SnakeOrderVisitsAdjacentDies)
{
    MeshTopology mesh(4, 8);
    const auto snake = GroupLayout::snakeOrder(mesh);
    ASSERT_EQ(snake.size(), 32u);
    for (std::size_t i = 0; i + 1 < snake.size(); ++i)
        EXPECT_EQ(mesh.hopDistance(snake[i], snake[i + 1]), 1)
            << "snake break at index " << i;
    // All dies visited exactly once.
    std::set<DieId> unique(snake.begin(), snake.end());
    EXPECT_EQ(unique.size(), 32u);
}

TEST(Layout, InnermostAxisGroupsAreContiguousChains)
{
    MeshTopology mesh(4, 8);
    GroupLayout layout(mesh, spec(2, 2, 1, 8));
    const auto &tatp_groups = layout.groups(Axis::TATP);
    ASSERT_EQ(tatp_groups.size(), 4u);
    for (const auto &group : tatp_groups) {
        ASSERT_EQ(group.size(), 8u);
        for (std::size_t i = 0; i + 1 < group.size(); ++i)
            EXPECT_EQ(mesh.hopDistance(group[i], group[i + 1]), 1);
    }
}

TEST(Layout, GroupsPartitionActiveDies)
{
    MeshTopology mesh(4, 8);
    GroupLayout layout(mesh, spec(4, 2, 1, 4));
    for (Axis axis : {Axis::DP, Axis::TP, Axis::TATP}) {
        std::set<DieId> seen;
        for (const auto &group : layout.groups(axis))
            for (DieId die : group)
                EXPECT_TRUE(seen.insert(die).second)
                    << "die repeated in " << axisName(axis);
        EXPECT_EQ(seen.size(), 32u);
    }
}

TEST(Layout, DegreeOneAxisHasNoGroups)
{
    MeshTopology mesh(4, 8);
    GroupLayout layout(mesh, spec(4, 8, 1, 1));
    EXPECT_TRUE(layout.groups(Axis::TATP).empty());
    EXPECT_TRUE(layout.groups(Axis::CP).empty());
}

TEST(Layout, PartialOccupancyUsesSnakePrefix)
{
    MeshTopology mesh(4, 8);
    GroupLayout layout(mesh, spec(1, 2, 1, 4));
    EXPECT_EQ(layout.usedDies(), 8);
    const auto snake = GroupLayout::snakeOrder(mesh);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(layout.activeDies()[i], snake[i]);
}

TEST(Layout, GroupOfFindsOwningGroup)
{
    MeshTopology mesh(4, 8);
    GroupLayout layout(mesh, spec(2, 2, 1, 8));
    for (DieId die : layout.activeDies()) {
        const auto &group = layout.groupOf(Axis::TATP, die);
        EXPECT_NE(std::find(group.begin(), group.end(), die), group.end());
    }
}

TEST(Layout, GroupCountsMatchDegrees)
{
    MeshTopology mesh(4, 8);
    GroupLayout layout(mesh, spec(2, 4, 1, 4));
    EXPECT_EQ(layout.groups(Axis::DP).size(), 16u);   // 32/2
    EXPECT_EQ(layout.groups(Axis::TP).size(), 8u);    // 32/4
    EXPECT_EQ(layout.groups(Axis::TATP).size(), 8u);  // 32/4
}

class PartitionerTest : public ::testing::Test
{
  protected:
    PartitionerTest()
        : mesh_(4, 8),
          graph_(model::ComputeGraph::transformer(
              model::modelByName("GPT-3 6.7B")))
    {
    }

    OpExecution
    analyze(const std::string &op_name, const ParallelSpec &s)
    {
        GroupLayout layout(mesh_, s);
        Partitioner part;
        return part.analyze(findOp(graph_, op_name), layout);
    }

    MeshTopology mesh_;
    model::ComputeGraph graph_;
};

TEST_F(PartitionerTest, SerialExecutionKeepsEverythingLocal)
{
    const OpExecution exec = analyze("qkv", ParallelSpec::serial());
    const model::Operator &op = findOp(graph_, "qkv");
    EXPECT_DOUBLE_EQ(exec.fwd_flops_per_die, op.forwardFlops());
    EXPECT_DOUBLE_EQ(exec.weight_bytes, op.weightBytes());
    EXPECT_TRUE(exec.fwd_collectives.empty());
    EXPECT_TRUE(exec.bwd_collectives.empty());
    EXPECT_TRUE(exec.step_collectives.empty());
    EXPECT_FALSE(exec.tatp.active);
}

TEST_F(PartitionerTest, TpShardsWeightsAndReducesRowParallelOutput)
{
    const OpExecution exec = analyze("proj", spec(1, 8, 1, 1));
    const model::Operator &op = findOp(graph_, "proj");
    EXPECT_DOUBLE_EQ(exec.weight_bytes, op.weightBytes() / 8.0);
    EXPECT_DOUBLE_EQ(exec.fwd_flops_per_die, op.forwardFlops() / 8.0);
    // Row-parallel forward all-reduce over the (single active) TP group.
    ASSERT_EQ(exec.fwd_collectives.size(), 1u);
    EXPECT_EQ(exec.fwd_collectives[0].kind, net::CollectiveKind::AllReduce);
    EXPECT_EQ(exec.fwd_collectives[0].size(), 8u);
    EXPECT_DOUBLE_EQ(exec.fwd_collectives[0].bytes, op.outputBytes());
}

TEST_F(PartitionerTest, TpColumnParallelReducesOnlyBackward)
{
    const OpExecution exec = analyze("qkv", spec(1, 8, 1, 1));
    EXPECT_TRUE(exec.fwd_collectives.empty());
    ASSERT_FALSE(exec.bwd_collectives.empty());
    EXPECT_EQ(exec.bwd_collectives[0].kind, net::CollectiveKind::AllReduce);
}

TEST_F(PartitionerTest, SequenceParallelGathersKvForAttention)
{
    // SP splits the sequence; attention must gather K/V with an exposed
    // all-gather (the overhead the paper contrasts TATP against).
    const OpExecution exec = analyze("qk^T", spec(1, 1, 8, 1));
    ASSERT_FALSE(exec.fwd_collectives.empty());
    EXPECT_EQ(exec.fwd_collectives[0].kind, net::CollectiveKind::AllGather);
    EXPECT_TRUE(exec.overlap_collectives.empty());
    // SP replicates weights -> per-step gradient sync on weighted ops.
    const OpExecution fc1 = analyze("fc1", spec(1, 1, 8, 1));
    ASSERT_FALSE(fc1.step_collectives.empty());
    EXPECT_EQ(fc1.step_collectives[0].kind, net::CollectiveKind::AllReduce);
}

TEST_F(PartitionerTest, ContextParallelOverlapsKvExchange)
{
    const OpExecution exec = analyze("qk^T", spec(1, 1, 1, 1, 1, 8));
    EXPECT_TRUE(exec.fwd_collectives.empty());
    ASSERT_FALSE(exec.overlap_collectives.empty());
    EXPECT_EQ(exec.overlap_collectives[0].kind,
              net::CollectiveKind::AllGather);
}

TEST_F(PartitionerTest, TpReplicatesNormComputeButSpSplitsIt)
{
    const OpExecution tp_norm = analyze("ln1", spec(1, 8, 1, 1));
    const OpExecution sp_norm = analyze("ln1", spec(1, 1, 8, 1));
    // TP leaves the norm region replicated (compute and activations).
    EXPECT_NEAR(tp_norm.activation_bytes / sp_norm.activation_bytes, 8.0,
                1e-9);
    EXPECT_NEAR(tp_norm.fwd_flops_per_die / sp_norm.fwd_flops_per_die, 8.0,
                1e-9);
}

TEST_F(PartitionerTest, DpEmitsGradientAllReduce)
{
    const OpExecution exec = analyze("fc1", spec(4, 1, 1, 1));
    EXPECT_TRUE(exec.fwd_collectives.empty());
    ASSERT_EQ(exec.step_collectives.size(), 1u);  // one active DP group
    EXPECT_EQ(exec.step_collectives[0].kind,
              net::CollectiveKind::AllReduce);
    const model::Operator &op = findOp(graph_, "fc1");
    EXPECT_DOUBLE_EQ(exec.step_collectives[0].bytes, op.weightBytes());
    // DP replicates parameters.
    EXPECT_DOUBLE_EQ(exec.weight_bytes, op.weightBytes());
}

TEST_F(PartitionerTest, FsdpShardsAllStateAndGathersWeights)
{
    const OpExecution exec = analyze("fc1", spec(1, 1, 1, 1, 4));
    const model::Operator &op = findOp(graph_, "fc1");
    EXPECT_DOUBLE_EQ(exec.weight_bytes, op.weightBytes() / 4.0);
    EXPECT_DOUBLE_EQ(exec.optimizer_bytes,
                     op.n * op.k * 12.0 / 4.0);
    // All-gather of weight shards in fwd and bwd.
    ASSERT_FALSE(exec.fwd_collectives.empty());
    EXPECT_EQ(exec.fwd_collectives[0].kind, net::CollectiveKind::AllGather);
    ASSERT_FALSE(exec.bwd_collectives.empty());
    // Reduce-scatter of gradients at step end.
    ASSERT_FALSE(exec.step_collectives.empty());
    EXPECT_EQ(exec.step_collectives[0].kind,
              net::CollectiveKind::ReduceScatter);
    // Transient unsharded weight buffer counted.
    EXPECT_GT(exec.comm_buffer_bytes, 0.0);
}

TEST_F(PartitionerTest, TatpStreamsWithoutCollectives)
{
    const OpExecution exec = analyze("fc1", spec(1, 1, 1, 8));
    EXPECT_TRUE(exec.fwd_collectives.empty());
    EXPECT_TRUE(exec.bwd_collectives.empty());
    EXPECT_TRUE(exec.step_collectives.empty());
    ASSERT_TRUE(exec.tatp.active);
    EXPECT_EQ(exec.tatp.degree, 8);
    const model::Operator &op = findOp(graph_, "fc1");
    // Weights sharded by the stream degree.
    EXPECT_DOUBLE_EQ(exec.weight_bytes, op.weightBytes() / 8.0);
    // No tensor replication: activations sharded by the stream degree.
    EXPECT_DOUBLE_EQ(exec.activation_bytes, op.outputBytes() / 8.0);
}

TEST_F(PartitionerTest, SelectiveTransferPicksSmallerTensor)
{
    // Long sequence: activations >> weights, so stream weights.
    const auto long_seq = model::modelByName("Llama2 7B")
                              .withSeqBatch(16384, 32);
    const auto graph = model::ComputeGraph::transformer(long_seq);
    GroupLayout layout(mesh_, spec(1, 1, 1, 8));
    Partitioner part;
    const OpExecution exec = part.analyze(findOp(graph, "fc1"), layout);
    ASSERT_TRUE(exec.tatp.active);
    EXPECT_TRUE(exec.tatp.stream_weights);

    // Tiny sequence: weights >> activations, so stream activations.
    const auto short_seq = model::modelByName("Llama2 7B")
                               .withSeqBatch(128, 1);
    const auto graph2 = model::ComputeGraph::transformer(short_seq);
    const OpExecution exec2 = part.analyze(findOp(graph2, "fc1"), layout);
    ASSERT_TRUE(exec2.tatp.active);
    EXPECT_FALSE(exec2.tatp.stream_weights);
}

TEST_F(PartitionerTest, TatpStreamVolumeMatchesShardSize)
{
    const OpExecution exec = analyze("fc1", spec(1, 1, 1, 8));
    EXPECT_NEAR(exec.tatp.bytes_per_round,
                exec.tatp.group_tensor_bytes / 8.0, 1e-9);
    EXPECT_NEAR(exec.tatp.fwd_flops_per_round * 8.0,
                exec.fwd_flops_per_die, 1e-6);
}

TEST_F(PartitionerTest, HybridSpecCombinesAxes)
{
    const OpExecution exec = analyze("fc1", spec(2, 2, 1, 8));
    const model::Operator &op = findOp(graph_, "fc1");
    EXPECT_DOUBLE_EQ(exec.fwd_flops_per_die, op.forwardFlops() / 32.0);
    EXPECT_DOUBLE_EQ(exec.weight_bytes, op.weightBytes() / 16.0);
    EXPECT_TRUE(exec.tatp.active);
    // DP grad sync still present.
    EXPECT_FALSE(exec.step_collectives.empty());
}

TEST_F(PartitionerTest, FlashAttentionSkipsScoreActivations)
{
    const OpExecution softmax = analyze("softmax", spec(1, 1, 1, 1));
    EXPECT_DOUBLE_EQ(softmax.activation_bytes, 0.0);

    TrainingOptions opts;
    opts.flash_attention = false;
    Partitioner part(opts);
    GroupLayout layout(mesh_, ParallelSpec::serial());
    const OpExecution stored =
        part.analyze(findOp(graph_, "softmax"), layout);
    EXPECT_GT(stored.activation_bytes, 0.0);
}

TEST_F(PartitionerTest, MemoryReplicationShowsUpAcrossDp)
{
    // Fig. 4(a) motivation: replication-relying TP/DP keeps row-parallel
    // outputs and the norm region replicated across the TP group; TATP
    // shards everything.
    const OpExecution megatron = analyze("proj", spec(4, 8, 1, 1));
    const OpExecution tatp = analyze("proj", spec(1, 1, 1, 32));
    EXPECT_GT(megatron.activation_bytes, tatp.activation_bytes);
    EXPECT_GT(megatron.weight_bytes, tatp.weight_bytes);
    const OpExecution mega_norm = analyze("ln1", spec(4, 8, 1, 1));
    const OpExecution tatp_norm = analyze("ln1", spec(1, 1, 1, 32));
    EXPECT_NEAR(mega_norm.activation_bytes / tatp_norm.activation_bytes,
                8.0, 1e-9);
}

TEST_F(PartitionerTest, CollectivePayloadBytesAccounting)
{
    const OpExecution exec = analyze("proj", spec(1, 8, 1, 1));
    // 4 groups x all-reduce of outputBytes over 8 members:
    // 2*(8-1)*bytes each.
    const model::Operator &op = findOp(graph_, "proj");
    // One active group, all-reduce of outputBytes over 8 members.
    const double expected = 2.0 * 7.0 * op.outputBytes();
    EXPECT_NEAR(exec.collectivePayloadBytes(), expected, 1.0);
}

TEST(Reshard, IdenticalSpecsAreFree)
{
    const auto graph =
        model::ComputeGraph::transformer(model::modelByName("GPT-3 6.7B"));
    TrainingOptions opts;
    EXPECT_DOUBLE_EQ(
        reshardBytesPerDie(graph.op(1), spec(2, 4, 1, 4), spec(2, 4, 1, 4),
                           opts),
        0.0);
}

TEST(Reshard, MismatchedSpecsMoveData)
{
    const auto graph =
        model::ComputeGraph::transformer(model::modelByName("GPT-3 6.7B"));
    TrainingOptions opts;
    const double bytes = reshardBytesPerDie(graph.op(1), spec(8, 1, 1, 1),
                                            spec(1, 8, 1, 1), opts);
    EXPECT_GT(bytes, 0.0);
    // Bounded by the producer's full output per die.
    EXPECT_LE(bytes, graph.op(1).outputBytes());
}

TEST(Layout, ConcurrentLayoutBuildsInternTheSameGroups)
{
    // Four threads place the same specs on one mesh at once: every
    // group is interned once, each thread sees the same handles, and
    // the table holds what one serial pass builds (TSan watches how
    // the table publishes new entries).
    const MeshTopology mesh(4, 8);
    const std::vector<ParallelSpec> specs{spec(2, 2, 1, 8), spec(4, 2, 1, 4),
                                          spec(2, 4, 1, 4), spec(8, 4, 1, 1),
                                          spec(1, 2, 1, 16)};
    constexpr int kThreads = 4;
    std::vector<std::vector<const hw::DieGroup *>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 20; ++rep)
                for (const ParallelSpec &s : specs) {
                    const GroupLayout layout(mesh, s);
                    for (Axis axis : defaultAxisOrder())
                        for (const hw::DieGroup *group :
                             layout.handles(axis))
                            if (rep == 0)
                                seen[t].push_back(group);
                }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);

    const MeshTopology serial(4, 8);
    for (const ParallelSpec &s : specs)
        (void)GroupLayout(serial, s);
    EXPECT_EQ(mesh.dieGroups().size(), serial.dieGroups().size());
}

}  // namespace
}  // namespace temp::parallel
