#include "solver/search_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/rng.hpp"
#include "solver/dls_solver.hpp"

namespace temp::solver {

using parallel::ParallelSpec;

namespace {

const double kInf = std::numeric_limits<double>::infinity();

/// Expands a genome (candidate index per op) into per-op specs.
std::vector<ParallelSpec>
specsOf(const RefineContext &ctx, const std::vector<int> &genome)
{
    std::vector<ParallelSpec> specs;
    specs.reserve(genome.size());
    for (int idx : genome)
        specs.push_back(ctx.candidates[idx]);
    return specs;
}

/// Candidate indices worth drawing from: the feasible uniform plans,
/// or every candidate when none is uniformly feasible.
std::vector<int>
drawOrder(const RefineContext &ctx)
{
    std::vector<int> order;
    for (std::size_t s : ctx.uniform_order)
        order.push_back(static_cast<int>(s));
    if (order.empty())
        for (std::size_t s = 0; s < ctx.candidates.size(); ++s)
            order.push_back(static_cast<int>(s));
    return order;
}

/// The warm-start genomes of a context that pass validation (length ==
/// opCount, every gene a valid candidate index). Invalid genomes are
/// dropped silently — a stale seed degrades to a cold search, never an
/// out-of-range candidates[] access.
std::vector<std::vector<int>>
validSeeds(const RefineContext &ctx)
{
    std::vector<std::vector<int>> out;
    if (ctx.seeds == nullptr)
        return out;
    const std::size_t n_ops =
        static_cast<std::size_t>(ctx.graph.opCount());
    const int n_cand = static_cast<int>(ctx.candidates.size());
    for (const std::vector<int> &genome : *ctx.seeds) {
        if (genome.size() != n_ops)
            continue;
        const bool in_range =
            std::all_of(genome.begin(), genome.end(), [&](int g) {
                return g >= 0 && g < n_cand;
            });
        if (in_range)
            out.push_back(genome);
    }
    return out;
}

/// FNV-1a over a genome's gene values — the beam's tabu key. Collisions
/// are deterministic (same build, same hashes), so a collision at worst
/// deterministically skips one proposal; it never breaks bit-exactness
/// across runs.
std::uint64_t
genomeHash(const std::vector<int> &genome)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (int g : genome) {
        h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(g));
        h *= 1099511628211ULL;
    }
    return h;
}

/// What every run shares: the context, the incumbent (the DP plan
/// until something strictly fitter turns up) and the work counters
/// outcome() reports.
class RunBase : public RefineRun
{
  public:
    RunBase(const RefineContext &ctx, eval::StepEvaluator &steps)
        : ctx_(ctx), steps_(steps), best_(ctx.dp_assignment),
          best_fitness_(ctx.dp_fitness)
    {
    }

    RefineOutcome outcome() const override
    {
        return {best_, best_fitness_, fitness_queries_, steps_done_};
    }

  protected:
    /// Scores one genome through the step memo (one budget quantum).
    double score(const std::vector<int> &genome)
    {
        ++fitness_queries_;
        return stepFitness(
            steps_.evaluate(ctx_.graph, specsOf(ctx_, genome), ctx_.gauge));
    }

    /// Scores genomes as one deterministic parallel batch (one atomic
    /// charge against the context's budget gauge).
    std::vector<double> scoreBatch(
        const std::vector<std::vector<int>> &genomes)
    {
        std::vector<std::vector<ParallelSpec>> assignments;
        assignments.reserve(genomes.size());
        for (const std::vector<int> &genome : genomes)
            assignments.push_back(specsOf(ctx_, genome));
        const std::vector<sim::PerfReport> reports =
            steps_.evaluateBatch(ctx_.graph, assignments, ctx_.gauge);
        fitness_queries_ += static_cast<long>(genomes.size());
        std::vector<double> scores(reports.size());
        for (std::size_t i = 0; i < reports.size(); ++i)
            scores[i] = stepFitness(reports[i]);
        return scores;
    }

    /// Takes @p genome as the incumbent when it is strictly fitter.
    void offer(const std::vector<int> &genome, double fitness)
    {
        if (fitness < best_fitness_) {
            best_ = genome;
            best_fitness_ = fitness;
        }
    }

    const RefineContext &ctx_;
    eval::StepEvaluator &steps_;
    std::vector<int> best_;
    double best_fitness_;
    long fitness_queries_ = 0;
    int steps_done_ = 0;
};

/// DP-only, but warm seeds still count: a scenario re-solve under
/// engine=none keeps the pre-fault plan whenever it beats the fresh DP
/// plan on the degraded wafer. The seed batch is the run's only
/// quantum; the run itself is born complete.
class NoRefineRun : public RunBase
{
  public:
    NoRefineRun(const RefineContext &ctx, eval::StepEvaluator &steps)
        : RunBase(ctx, steps)
    {
        const std::vector<std::vector<int>> seeds = validSeeds(ctx);
        if (seeds.empty())
            return;
        const std::vector<double> scores = scoreBatch(seeds);
        for (std::size_t i = 0; i < seeds.size(); ++i)
            offer(seeds[i], scores[i]);
    }

    bool done() const override { return true; }
    void step() override {}
};

/// One in-flight GA run: the seed pool is scored at construction, then
/// one generation per slice.
class GeneticRun : public RunBase
{
  public:
    GeneticRun(const RefineContext &ctx, eval::StepEvaluator &steps,
               int population, int generations, double mutation_rate,
               std::uint64_t seed)
        : RunBase(ctx, steps), rng_(seed), generations_(generations),
          mutation_rate_(mutation_rate)
    {
        const std::vector<int> order = drawOrder(ctx);

        // Ranking for the weight-less role ignores the OOM penalty:
        // norms/attention do not own parameter state, so a spec whose
        // *uniform* plan OOMs (e.g. pure DP on a huge model) is still an
        // excellent choice for them once the weighted ops shard state.
        std::vector<int> order_o = order;
        std::sort(order_o.begin(), order_o.end(), [&](int a, int b) {
            return ctx.uniform_reports[a].step_time <
                   ctx.uniform_reports[b].step_time;
        });

        // Seeds: the DP plan, the best uniform plans, and *structured*
        // two-spec plans (one spec for weight-bearing GEMMs, one for the
        // weight-less rest). The structured family encodes the key
        // design insight: parameter state forces high sharding on the
        // weighted ops only, while norms/attention prefer cheap
        // batch-style splits that keep gradient accumulation free.
        const int n_ops = ctx.graph.opCount();
        std::vector<std::vector<int>> seeds;
        seeds.push_back(best_);
        const int top = std::min<int>(6, static_cast<int>(order.size()));
        for (int k = 0; k < top; ++k)
            seeds.push_back(std::vector<int>(n_ops, order[k]));
        for (int wi = 0; wi < top; ++wi) {
            for (int oi = 0; oi < top; ++oi) {
                std::vector<int> genome(n_ops);
                for (int i = 0; i < n_ops; ++i)
                    genome[i] = ctx.graph.op(i).has_weight ? order[wi]
                                                           : order_o[oi];
                seeds.push_back(std::move(genome));
            }
        }
        // Warm-start genomes (e.g. the pre-fault assignment a scenario
        // re-solve carries over) join the pool ahead of the mutated-DP
        // fill: they compete in the same generation-0 batch, and because
        // they are appended before any rng draw the stochastic stream —
        // and with it every cold run — is byte-for-byte unchanged.
        for (std::vector<int> &genome : validSeeds(ctx))
            seeds.push_back(std::move(genome));
        while (static_cast<int>(seeds.size()) < 2 * population) {
            std::vector<int> genome = best_;
            for (int &g : genome)
                if (rng_.bernoulli(0.3))
                    g = order[rng_.index(
                        std::min<std::size_t>(8, order.size()))];
            seeds.push_back(std::move(genome));
        }

        // Score every seed as ONE deterministic parallel batch (the
        // whole generation-0 pool simulates concurrently, recurring
        // genomes hit the memo), then keep the fittest as the
        // population.
        const std::vector<double> seed_scores = scoreBatch(seeds);
        std::vector<std::pair<double, std::size_t>> ranked;
        for (std::size_t i = 0; i < seeds.size(); ++i)
            ranked.emplace_back(seed_scores[i], i);
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (int i = 0;
             i < population && i < static_cast<int>(ranked.size()); ++i) {
            population_.push_back(seeds[ranked[i].second]);
            scores_.push_back(ranked[i].first);
        }
    }

    bool done() const override { return steps_done_ >= generations_; }

    void step() override
    {
        const int n_ops = ctx_.graph.opCount();

        // Tournament selection of two parents.
        auto pick = [&]() -> const std::vector<int> & {
            const std::size_t a = rng_.index(population_.size());
            const std::size_t b = rng_.index(population_.size());
            return scores_[a] < scores_[b] ? population_[a]
                                           : population_[b];
        };
        const std::vector<int> &pa = pick();
        const std::vector<int> &pb = pick();
        // One-point crossover at a residual boundary when possible.
        std::vector<int> child = pa;
        const int cut = ctx_.boundaries[rng_.index(ctx_.boundaries.size())];
        for (int i = cut; i < n_ops; ++i)
            child[i] = pb[i];
        // Mutation: re-draw individual op strategies.
        for (int &g : child)
            if (rng_.bernoulli(mutation_rate_))
                g = static_cast<int>(rng_.index(ctx_.candidates.size()));

        // Children arrive one per generation and recur often late in
        // the run; the step memo serves repeats without a simulation.
        const double fitness = score(child);
        // Elitist replacement of the worst member.
        std::size_t worst = 0;
        for (std::size_t i = 1; i < population_.size(); ++i)
            if (scores_[i] > scores_[worst])
                worst = i;
        if (fitness < scores_[worst]) {
            population_[worst] = std::move(child);
            scores_[worst] = fitness;
        }
        const std::size_t arg_best = static_cast<std::size_t>(
            std::min_element(scores_.begin(), scores_.end()) -
            scores_.begin());
        offer(population_[arg_best], scores_[arg_best]);
        ++steps_done_;
    }

  private:
    Rng rng_;
    int generations_;
    double mutation_rate_;
    std::vector<std::vector<int>> population_;
    std::vector<double> scores_;
};

/// One in-flight beam run: the deduplicated seed pool is scored at
/// construction, then one proposal round per slice. The tabu set is
/// exactly "what this run has already scored", so no plan is ever
/// simulated twice within a run.
class BeamTabuRun : public RunBase
{
  public:
    BeamTabuRun(const RefineContext &ctx, eval::StepEvaluator &steps,
                int rounds, std::uint64_t seed)
        : RunBase(ctx, steps), rng_(seed), rounds_(rounds)
    {
        const std::size_t n_ops =
            static_cast<std::size_t>(ctx.graph.opCount());

        // Seed pool: the DP plan, the best uniform plans, and any warm
        // seeds — deduplicated through the tabu set, then scored as ONE
        // deterministic batch (the run's seed quantum).
        std::vector<std::vector<int>> pool;
        auto add = [&](std::vector<int> genome) {
            if (tabu_.insert(genomeHash(genome)).second)
                pool.push_back(std::move(genome));
        };
        add(ctx.dp_assignment);
        for (std::size_t i = 0;
             i < ctx.uniform_order.size() &&
             i < static_cast<std::size_t>(BeamTabuRefiner::kWidth);
             ++i)
            add(std::vector<int>(
                n_ops, static_cast<int>(ctx.uniform_order[i])));
        for (const std::vector<int> &genome : validSeeds(ctx))
            add(genome);

        const std::vector<double> scores = scoreBatch(pool);
        keepBest(std::move(pool), scores);
    }

    bool done() const override { return steps_done_ >= rounds_; }

    void step() override
    {
        const std::vector<int> order = drawOrder(ctx_);
        const int n_ops = ctx_.graph.opCount();

        // Neighbour moves: biased single-op re-draws plus occasional
        // whole-sub-chain flips along the DP cuts.
        auto draw_strategy = [&]() -> int {
            if (rng_.bernoulli(0.5))
                return order[rng_.index(
                    std::min<std::size_t>(8, order.size()))];
            return static_cast<int>(rng_.index(ctx_.candidates.size()));
        };
        auto mutate = [&](std::vector<int> &genome) {
            if (ctx_.boundaries.size() > 2 && rng_.bernoulli(0.25)) {
                const std::size_t b =
                    rng_.index(ctx_.boundaries.size() - 1);
                const int s = draw_strategy();
                for (int i = ctx_.boundaries[b];
                     i < ctx_.boundaries[b + 1]; ++i)
                    genome[i] = s;
                return;
            }
            genome[static_cast<std::size_t>(rng_.index(
                static_cast<std::size_t>(n_ops)))] = draw_strategy();
            if (rng_.bernoulli(0.3))
                genome[static_cast<std::size_t>(rng_.index(
                    static_cast<std::size_t>(n_ops)))] = draw_strategy();
        };

        // Every proposal of the round is drawn before any fitness is
        // known; tabu hits are dropped at draw time (the RNG stream still
        // advances identically — tabu contents are themselves
        // deterministic, so so is the drop pattern).
        std::vector<std::vector<int>> proposals;
        proposals.reserve(beam_.size() *
                          static_cast<std::size_t>(
                              BeamTabuRefiner::kProposals));
        for (const std::vector<int> &member : beam_) {
            for (int p = 0; p < BeamTabuRefiner::kProposals; ++p) {
                std::vector<int> neighbour = member;
                mutate(neighbour);
                if (tabu_.insert(genomeHash(neighbour)).second)
                    proposals.push_back(std::move(neighbour));
            }
        }
        if (!proposals.empty()) {
            const std::vector<double> scores = scoreBatch(proposals);
            // Beam ∪ proposals (the old beam first, so it wins ties and
            // the incumbent keeps its position).
            std::vector<std::vector<int>> merged = beam_;
            std::vector<double> merged_fitness = beam_fitness_;
            for (std::size_t p = 0; p < proposals.size(); ++p) {
                merged.push_back(std::move(proposals[p]));
                merged_fitness.push_back(scores[p]);
            }
            keepBest(std::move(merged), merged_fitness);
        }
        ++steps_done_;
    }

  private:
    /// Keeps the best kWidth plans of @p pool as the beam (stable
    /// order: earlier entries win ties) and offers its front.
    void keepBest(std::vector<std::vector<int>> pool,
                  const std::vector<double> &fitness)
    {
        std::vector<std::size_t> rank(pool.size());
        std::iota(rank.begin(), rank.end(), std::size_t{0});
        std::stable_sort(rank.begin(), rank.end(),
                         [&](std::size_t a, std::size_t b) {
                             return fitness[a] < fitness[b];
                         });
        const std::size_t keep = std::min<std::size_t>(
            static_cast<std::size_t>(BeamTabuRefiner::kWidth),
            rank.size());
        beam_.clear();
        beam_fitness_.clear();
        for (std::size_t i = 0; i < keep; ++i) {
            beam_.push_back(std::move(pool[rank[i]]));
            beam_fitness_.push_back(fitness[rank[i]]);
        }
        if (!beam_.empty())
            offer(beam_.front(), beam_fitness_.front());
    }

    Rng rng_;
    int rounds_;
    std::vector<std::vector<int>> beam_;
    std::vector<double> beam_fitness_;
    std::unordered_set<std::uint64_t> tabu_;
};

}  // namespace

RefineOutcome
SearchEngine::refine(const RefineContext &ctx,
                     eval::StepEvaluator &steps) const
{
    const auto exhausted = [&] {
        return ctx.gauge != nullptr && ctx.gauge->exhausted();
    };
    const std::unique_ptr<RefineRun> run = begin(ctx, steps);
    while (!run->done() && !exhausted())
        run->step();
    RefineOutcome out = run->outcome();
    out.budget_exhausted = !run->done() && exhausted();
    return out;
}

double
stepFitness(const sim::PerfReport &report)
{
    if (!report.feasible)
        return kInf;
    return report.step_time * (report.oom ? 1e3 : 1.0);
}

const char *
searchEngineName(SearchEngineKind kind)
{
    switch (kind) {
    case SearchEngineKind::NoRefine: return "none";
    case SearchEngineKind::Genetic: return "genetic";
    case SearchEngineKind::BeamTabu: return "beamtabu";
    }
    return "unknown";
}

bool
searchEngineFromName(const std::string &name, SearchEngineKind *kind)
{
    if (name == "none" || name == "dp")
        *kind = SearchEngineKind::NoRefine;
    else if (name == "genetic" || name == "ga")
        *kind = SearchEngineKind::Genetic;
    else if (name == "beamtabu" || name == "beam")
        *kind = SearchEngineKind::BeamTabu;
    else
        return false;
    return true;
}

std::unique_ptr<RefineRun>
NoRefineEngine::begin(const RefineContext &ctx,
                      eval::StepEvaluator &steps) const
{
    return std::make_unique<NoRefineRun>(ctx, steps);
}

GeneticRefiner::GeneticRefiner(int population, int generations,
                               double mutation_rate, std::uint64_t seed)
    : population_(population), generations_(generations),
      mutation_rate_(mutation_rate), seed_(seed)
{
}

std::unique_ptr<RefineRun>
GeneticRefiner::begin(const RefineContext &ctx,
                      eval::StepEvaluator &steps) const
{
    return std::make_unique<GeneticRun>(ctx, steps, population_,
                                        generations_, mutation_rate_,
                                        seed_);
}

BeamTabuRefiner::BeamTabuRefiner(int rounds, std::uint64_t seed)
    : rounds_(rounds), seed_(seed)
{
}

std::unique_ptr<RefineRun>
BeamTabuRefiner::begin(const RefineContext &ctx,
                       eval::StepEvaluator &steps) const
{
    return std::make_unique<BeamTabuRun>(ctx, steps, rounds_, seed_);
}

std::unique_ptr<SearchEngine>
makeSearchEngine(const SolverConfig &config)
{
    switch (config.engine) {
    case SearchEngineKind::NoRefine:
        return std::make_unique<NoRefineEngine>();
    case SearchEngineKind::Genetic:
        return std::make_unique<GeneticRefiner>(
            config.ga_population, config.ga_generations,
            config.ga_mutation_rate, config.seed);
    case SearchEngineKind::BeamTabu:
        return std::make_unique<BeamTabuRefiner>(config.ga_generations,
                                                 config.seed);
    }
    return std::make_unique<NoRefineEngine>();
}

}  // namespace temp::solver
