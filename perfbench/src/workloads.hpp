/**
 * @file
 * The three workload drivers. Each generates its inputs from the seed
 * (generator.hpp), drives the program only through its public entry
 * points (api::TempService::run, and serve::Client / serve::HttpClient
 * against an in-process serve::Server), times the loop for the given
 * number of seconds, and checks every answer (checker.hpp) after the
 * timed window closes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * One round of a timed loop: a run of consecutive operations of the
 * same shape in every round (cold_plan: one cycle of the six models;
 * fault_replay: one timeline starting on each of its models).
 */
struct Round
{
    std::size_t first = 0;    ///< index of its first latency sample
    std::size_t samples = 0;  ///< latency samples it added
    long completed = 0;       ///< operations it completed
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/// Everything one workload run measured.
struct Outcome
{
    std::uint64_t input_digest = 0;

    long attempted = 0;  ///< operations issued (timed loop + checks)
    long failed = 0;     ///< errors, sheds, drops, checker rejections
    std::vector<std::string> rejections;  ///< first few reasons

    std::vector<double> setup_s;       ///< one sample per set-up
    std::vector<double> latencies_ms;  ///< one sample per timed operation
    long completed = 0;                ///< operations finished in the window
    double timed_wall_s = 0.0;
    double timed_cpu_s = 0.0;
    /// The timed loop cut into rounds (empty when it has none).
    std::vector<Round> rounds;
    /// Peak resident memory when the timed window closed (the checks
    /// that follow are not the workload's).
    double peak_rss_mb = 0.0;
    /// report.throughput_tokens_per_s of the plans every run returns.
    std::vector<double> plan_tokens;

    /// Work counters beside the timings (exact or timing-dependent).
    std::vector<std::pair<std::string, long>> counters;
    bool counters_exact = true;

    /// Per-layer metrics this workload measures itself (the probes fill
    /// the rest in traced mode).
    std::map<std::string, double> layer;

    /// Counts one failed operation and keeps its reason.
    void fail(const std::string &reason);
};

/// The timed figures the metrics are taken from.
struct Timed
{
    std::vector<double> latencies_ms;
    long completed = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::size_t rounds = 0;  ///< rounds kept (0: the loop had none)
};

/**
 * The timed figures over the faster half of the outcome's rounds (the
 * whole window when it has none). Rounds have one shape, so a round
 * that took longer than most was slowed by other load on the host; the
 * faster half leaves those out, while a change to the program moves
 * every round alike.
 */
Timed fasterHalf(const Outcome &out);

/// Minimum samples kept by fasterHalf() in a measuring run:
/// latency_p90_ms needs ten beyond it.
constexpr std::size_t kMinSamples = 100;

/// One timed exchange of a serve_mix client, reduced to what the
/// checks need (bodies are not kept, so peak RSS stays the server's).
struct Exchange
{
    int pick = 0;
    double rtt_ms = 0.0;
    /// "" when answered ok; else why the exchange failed (a dropped
    /// connection, a shed, a refusal or an unparseable body).
    std::string failure;
    double wall_ms = 0.0;  ///< the response's wall_time_s
    std::string answer;    ///< digest of the answer fingerprint
};

/// Classifies one serve_mix exchange from its transport outcome, HTTP
/// status (200 for framed RPC) and response body.
Exchange classifyExchange(int pick, double rtt_ms, bool transport_ok,
                          int http_status, const std::string &body);

/// @{ Each loop stops on a round boundary once @p seconds have passed
/// and fasterHalf() keeps at least @p min_samples latency samples.
Outcome runColdPlan(std::uint64_t seed, double seconds,
                    std::size_t min_samples);
Outcome runFaultReplay(std::uint64_t seed, double seconds,
                       std::size_t min_samples);
/// @}
/// serve_mix has no rounds: its clients run side by side for @p seconds.
Outcome runServeMix(std::uint64_t seed, double seconds,
                    const std::string &workdir);

}  // namespace perfbench
