/**
 * @file
 * TempService: the long-lived entry point a server process (or CLI)
 * holds onto instead of hand-constructing TempFramework per request.
 *
 * The service owns a cache of TempFramework instances keyed by the
 * canonicalized (WaferConfig, FrameworkOptions) content, so every
 * request against the same wafer shares one framework — and with it
 * its memo stack. A repeated OptimizeRequest is
 * served entirely from cache: its SolverResult reports zero new
 * matrix_measurements and pure cache_hits. Multi-wafer pods are cached
 * the same way (MultiWaferSimulator keeps per-pp stage contexts).
 *
 * run() executes synchronously on the caller's thread; submit()
 * enqueues onto the service's ThreadPool and returns a future, so a
 * front end can keep many heterogeneous requests in flight against
 * the shared caches (all cached components are thread-safe).
 */
#pragma once

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "api/requests.hpp"
#include "common/bounded_cache.hpp"
#include "persist/snapshot.hpp"

namespace temp::api {

/// Service-level tuning.
struct ServiceOptions
{
    /// Worker threads executing submit()ed requests (0 = hardware
    /// concurrency). With a single-thread pool submit() degrades to
    /// inline execution; futures always resolve.
    int request_threads = 0;
    /**
     * Initial cache budgets. max_frameworks/max_pods bound the
     * service's own maps (LRU over whole frameworks — evicting one
     * drops its entire memo stack, so budget the heaviest layer
     * first); the framework-level budgets here act as defaults only
     * in the sense that a request's FrameworkOptions carries its own
     * CacheBudget into the frameworks it builds. A request whose
     * options set max_frameworks/max_pods re-budgets the service maps
     * on the fly (0 leaves them unchanged).
     */
    common::CacheBudget cache;
};

/// Serves typed TEMP requests over cached frameworks.
class TempService
{
  public:
    explicit TempService(ServiceOptions options = ServiceOptions());

    /// @{ Synchronous execution of one request. The caller's
    /// SolveBudget (e.g. the dispatcher's remaining per-request
    /// deadline plus its cancel token) is merged with the request's own
    /// solver.deadline inside the solver — the tighter cap wins per
    /// dimension. Kinds that solve (Optimize, Fault, Scenario — per
    /// re-solve there) honour it and mirror
    /// SolverResult::budget_exhausted / quanta_used into the Response;
    /// other kinds ignore it.
    Response run(const OptimizeRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const BaselineRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const StrategyRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const FaultRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const MultiWaferRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const CacheStatsRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const ScenarioRequest &request,
                 const solver::SolveBudget &budget = {});
    Response run(const Request &request,
                 const solver::SolveBudget &budget = {});
    /// @}

    /// Asynchronous execution: queues the request on the service pool
    /// and returns the eventual response.
    std::future<Response> submit(Request request);

    /// Service-level counters.
    struct Stats
    {
        long requests = 0;          ///< responses produced (ok or not)
        long frameworks_built = 0;  ///< distinct (wafer, options) seen
        long framework_cache_hits = 0;
        long pods_built = 0;        ///< distinct multi-wafer pods seen
        long pod_cache_hits = 0;
    };
    Stats stats() const;

    /// Persistent-tier counters (warm-start snapshot traffic).
    struct PersistStats
    {
        long loads = 0;          ///< successful warmStart() calls
        long load_failures = 0;  ///< corrupt/mismatched snapshots rejected
        long saves = 0;          ///< successful saveSnapshot() calls
        long blocks_staged = 0;  ///< memo blocks staged by warmStart()
        long frameworks_warmed = 0;  ///< staged blocks consumed by a
                                     ///< matching framework
    };
    PersistStats persistStats() const;

    /**
     * Stages a snapshot's memo blocks for lazy, content-addressed
     * consumption: each block waits under its canonical framework key
     * until frameworkFor() builds (or re-serves) the matching
     * framework, then imports exactly once. Blocks whose key never
     * matches (different wafer, different options) stay staged — a
     * clean cold start, never a wrong answer. A corrupt, truncated or
     * version/fingerprint-mismatched file is rejected whole: returns
     * false, sets @p error, bumps load_failures, stages nothing.
     */
    bool warmStart(const std::string &path, std::string *error = nullptr);

    /**
     * Writes every cached framework's memo layers — plus any staged
     * blocks not yet consumed (so load+save round-trips losslessly
     * even when the matching wafer was never requested) — to @p path
     * atomically (tmp + rename). Returns false and sets @p error on
     * I/O failure.
     */
    bool saveSnapshot(const std::string &path,
                      std::string *error = nullptr);

    /**
     * The cached framework serving (wafer, options), built on first
     * use — for advanced callers needing the underlying simulator or
     * evaluator (benches, the exhaustive baseline). Shares the cache
     * with request execution.
     */
    std::shared_ptr<core::TempFramework> framework(
        const hw::WaferConfig &wafer,
        const core::FrameworkOptions &options);

  private:
    std::shared_ptr<core::TempFramework> frameworkFor(
        const hw::WaferConfig &wafer,
        const core::FrameworkOptions &options, bool *reused);
    std::shared_ptr<sim::MultiWaferSimulator> podFor(
        const hw::MultiWaferConfig &pod,
        const core::FrameworkOptions &options, bool *reused);

    /// Records bookkeeping shared by every run() overload.
    Response finish(Response response, double start_time);

    /// Applies a request's service-level budgets (0 = leave as-is).
    void applyServiceBudget(const common::CacheBudget &budget);

    /// Imports the staged warm-start block matching @p key into @p fw
    /// (exactly once; no-op when none is staged). A caller that finds
    /// the block mid-import by another request waits for it, so every
    /// request on a warmed framework starts from the imported memos.
    void consumePendingBlock(const std::string &key,
                             const core::TempFramework &fw);

    mutable std::mutex mutex_;  ///< guards stats_
    /// Framework/pod caches: bounded LRU (0 = unbounded). Evicting a
    /// framework drops its whole memo stack; in-flight requests keep
    /// theirs alive through the shared_ptr.
    common::BoundedCache<std::string,
                         std::shared_ptr<core::TempFramework>>
        frameworks_;
    common::BoundedCache<std::string,
                         std::shared_ptr<sim::MultiWaferSimulator>>
        pods_;
    Stats stats_;
    /// Guards pending_blocks_, importing_ and persist_stats_. Ordered
    /// after the framework build (taken only briefly; never while
    /// holding mutex_ or a cache shard lock).
    mutable std::mutex persist_mutex_;
    /// Warm-start blocks staged by warmStart(), keyed by canonical
    /// framework key; frameworkFor() consumes a match exactly once.
    std::unordered_map<std::string, persist::MemoBlock> pending_blocks_;
    /// Keys whose block is being imported (outside the lock), and the
    /// signal that one finished.
    std::unordered_set<std::string> importing_;
    std::condition_variable import_done_;
    PersistStats persist_stats_;
    /// Declared last: destroyed first, so queued submit() tasks drain
    /// (and stop touching the members above) before they go away.
    ThreadPool pool_;
};

}  // namespace temp::api
