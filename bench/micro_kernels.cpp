/**
 * @file
 * Kernel microbench: the three data-oriented inner loops carved out of
 * the cost stack, each timed against its reference scalar twin.
 *
 * Sections, each emitted as a BENCH_JSON line:
 *
 *  - deposit: per-phase load accumulation over a synthetic flow mix,
 *    the pre-PR machinery (marked flags + a touched list the drain
 *    sorted every phase + a reset walk) vs the fused epoch-stamped
 *    kernel (set-or-add, no sort, no reset pass);
 *  - drain_scan: the contention bottleneck search over epoch-stamped
 *    links (L1-resident, like real fabrics), no-autovec scalar twin vs
 *    the vector path;
 *  - breakdown_reduce: the per-layer field sums over ~4K breakdown
 *    cells, scalar twin vs the lane-per-accumulator vector path.
 *
 * Acceptance bars (non-zero exit on failure, CI runs this binary):
 *
 *  - every SIMD/SoA path is never slower than its scalar twin
 *    (speedup >= 0.9, the 0.1 slack absorbs timer noise);
 *  - on a vector-capable build (TEMP_SIMD on AND the TU compiled with
 *    AVX2/AVX-512), at least 2 of the 3 sections reach >= 1.5x.
 *    Default -O2 builds (SSE2 baseline) only enforce never-slower.
 *
 * Every section also asserts the two paths produce bit-identical
 * results before timing them — a bench that got faster by diverging
 * is a failure, not a win.
 */
#include "bench_util.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "common/kernels.hpp"
#include "cost/breakdown_reduce.hpp"

using namespace temp;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Paired
{
    double a = 1e300;
    double b = 1e300;
};

/// Interleaved best-of-N wall times of `fa()` and `fb()`. Alternating
/// the two paths inside each trial keeps clock-frequency drift on a
/// shared single-core box from landing entirely on whichever path was
/// timed second — drift shifts both bests together, so the ratio holds.
template <typename FnA, typename FnB>
Paired
pairedBestOf(int trials, FnA &&fa, FnB &&fb)
{
    Paired best;
    for (int t = 0; t < trials; ++t) {
        double t0 = now();
        fa();
        best.a = std::min(best.a, now() - t0);
        t0 = now();
        fb();
        best.b = std::min(best.b, now() - t0);
    }
    return best;
}

struct FlowMix
{
    // SoA shape mirroring net::FlowSoa.
    std::vector<double> bytes;
    std::vector<std::uint32_t> link_begin;
    std::vector<std::int32_t> links;
};

/// Synthetic ragged flow mix: route lengths 2..16, ~6% link revisits
/// (waypoint detours), link ids spread over the whole array.
FlowMix
makeFlows(int n_flows, int n_links, std::mt19937_64 &rng)
{
    std::uniform_int_distribution<int> len(2, 16);
    std::uniform_int_distribution<std::int32_t> link(0, n_links - 1);
    std::uniform_real_distribution<double> bytes(1e3, 1e7);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    FlowMix mix;
    mix.link_begin.push_back(0);
    for (int f = 0; f < n_flows; ++f) {
        mix.bytes.push_back(bytes(rng));
        const int n = len(rng);
        for (int k = 0; k < n; ++k) {
            if (static_cast<std::uint32_t>(mix.links.size()) >
                    mix.link_begin.back() &&
                unit(rng) < 0.06)
                mix.links.push_back(mix.links.back());  // revisit
            else
                mix.links.push_back(link(rng));
        }
        mix.link_begin.push_back(
            static_cast<std::uint32_t>(mix.links.size()));
    }
    return mix;
}

}  // namespace

int
main()
{
    bench::banner("Kernel micropath",
                  "fused deposit, drain scan, breakdown reduce");
#if TEMP_SIMD_ENABLED && (defined(__AVX2__) || defined(__AVX512F__))
    const bool vector_build = true;
#else
    const bool vector_build = false;
#endif
    std::printf("TEMP_SIMD=%d, vector-capable build: %s\n",
                TEMP_SIMD_ENABLED, vector_build ? "yes" : "no");

    std::mt19937_64 rng(20260808);
    const int trials = 7;
    bool ok = true;
    double speedups[3] = {0.0, 0.0, 0.0};

    // --- deposit: touched-sort machinery vs fused epoch kernel ---------
    {
        const int n_links = 4096;
        const int n_flows = 4096;
        const int reps = 200;
        const FlowMix mix = makeFlows(n_flows, n_links, rng);

        // Pre-PR phase accumulation: marked flags, a touched list the
        // deterministic drain had to sort every phase, and a reset walk.
        std::vector<double> loads_a(n_links, 0.0);
        std::vector<std::uint8_t> marked(n_links, 0);
        std::vector<std::int32_t> touched;
        touched.reserve(n_links);
        auto old_phase = [&] {
            for (int f = 0; f < n_flows; ++f) {
                const std::uint32_t b = mix.link_begin[f];
                const std::uint32_t e = mix.link_begin[f + 1];
                const double fb = mix.bytes[f];
                for (std::uint32_t k = b; k < e; ++k) {
                    const std::int32_t l = mix.links[k];
                    if (!marked[l]) {
                        marked[l] = 1;
                        touched.push_back(l);
                    }
                    loads_a[l] += fb;
                }
            }
            std::sort(touched.begin(), touched.end());
        };
        auto old_reset = [&] {
            for (const std::int32_t l : touched) {
                loads_a[l] = 0.0;
                marked[l] = 0;
            }
            touched.clear();
        };

        std::vector<double> loads_b(n_links, 0.0);
        std::vector<std::uint32_t> stamp(n_links, 0);
        std::uint32_t epoch = 0;
        auto new_phase = [&] {
            ++epoch;
            for (int f = 0; f < n_flows; ++f) {
                const std::uint32_t b = mix.link_begin[f];
                const std::uint32_t e = mix.link_begin[f + 1];
                kernels::depositLinks(loads_b.data(), stamp.data(), epoch,
                                      mix.links.data() + b,
                                      static_cast<int>(e - b),
                                      mix.bytes[f]);
            }
        };

        // Both machineries must accumulate identical per-phase loads.
        old_phase();
        new_phase();
        bool same = true;
        for (const std::int32_t l : touched)
            same = same && std::memcmp(&loads_a[l], &loads_b[l],
                                       sizeof(double)) == 0 &&
                   stamp[l] == epoch;
        if (!same) {
            std::printf("FAIL: deposit machineries diverged\n");
            ok = false;
        }
        old_reset();

        const Paired t = pairedBestOf(
            trials,
            [&] {
                for (int r = 0; r < reps; ++r) {
                    old_phase();
                    old_reset();
                }
            },
            [&] {
                for (int r = 0; r < reps; ++r)
                    new_phase();
            });
        const double old_s = t.a;
        const double fused_s = t.b;
        const double deposits =
            static_cast<double>(mix.links.size()) * reps;
        speedups[0] = fused_s > 0.0 ? old_s / fused_s : 0.0;
        std::printf("Deposit: touched-sort %.0f Mdep/s, epoch-fused %.0f "
                    "Mdep/s (x%.2f)\n",
                    deposits / old_s / 1e6, deposits / fused_s / 1e6,
                    speedups[0]);
        std::printf("BENCH_JSON {\"bench\":\"micro_kernels\","
                    "\"section\":\"deposit\",\"flows\":%d,\"links\":%d,"
                    "\"touched_sort_deposits_per_s\":%.3e,"
                    "\"epoch_fused_deposits_per_s\":%.3e,"
                    "\"speedup\":%.2f}\n",
                    n_flows, n_links, deposits / old_s,
                    deposits / fused_s, speedups[0]);
    }

    // --- drain scan: scalar twin vs vector path ------------------------
    // Cache-resident link counts (real wafer fabrics have hundreds of
    // links), rotating through enough distinct load patterns that the
    // branch predictor cannot memorize the scalar twin's touched/
    // untouched sequence — every real phase evaluation sees a fresh
    // pattern. A single huge array would instead measure allocation-
    // address luck (4K-aliasing swings 2x run to run).
    {
        const int n_links = 512;
        const int n_sets = 16;
        const int reps = 32000;
        const std::uint32_t epoch = 7;
        std::uniform_real_distribution<double> load(0.0, 1e9);
        std::uniform_real_distribution<double> bw(1e9, 4e9);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::vector<std::vector<double>> loads(n_sets);
        std::vector<std::vector<double>> bandwidth(n_sets);
        std::vector<std::vector<std::uint32_t>> stamps(n_sets);
        for (int s = 0; s < n_sets; ++s) {
            loads[s].resize(n_links);
            bandwidth[s].resize(n_links);
            stamps[s].resize(n_links);
            for (int i = 0; i < n_links; ++i) {
                const bool touched = unit(rng) < 0.6;
                stamps[s][i] = touched ? epoch : epoch - 1;
                loads[s][i] = load(rng);
                bandwidth[s][i] = bw(rng);
            }
        }

        for (int s = 0; s < n_sets; ++s) {
            const kernels::MaxDrain scalar_r =
                kernels::maxDrainArgmaxScalar(loads[s].data(),
                                              stamps[s].data(), epoch,
                                              bandwidth[s].data(),
                                              n_links);
            const kernels::MaxDrain simd_r = kernels::maxDrainArgmaxSimd(
                loads[s].data(), stamps[s].data(), epoch,
                bandwidth[s].data(), n_links);
            // Field-wise: memcmp over the struct would read padding.
            if (std::memcmp(&scalar_r.worst, &simd_r.worst,
                            sizeof(double)) != 0 ||
                scalar_r.link != simd_r.link ||
                std::memcmp(&scalar_r.link_load, &simd_r.link_load,
                            sizeof(double)) != 0 ||
                scalar_r.dead_link != simd_r.dead_link) {
                std::printf("FAIL: drain scan scalar/simd diverged\n");
                ok = false;
            }
        }

        double sink = 0.0;
        const Paired t = pairedBestOf(
            trials,
            [&] {
                for (int r = 0; r < reps; ++r) {
                    const int s = r & (n_sets - 1);
                    sink += kernels::maxDrainArgmaxScalar(
                                loads[s].data(), stamps[s].data(), epoch,
                                bandwidth[s].data(), n_links)
                                .worst;
                }
            },
            [&] {
                for (int r = 0; r < reps; ++r) {
                    const int s = r & (n_sets - 1);
                    sink += kernels::maxDrainArgmaxSimd(
                                loads[s].data(), stamps[s].data(), epoch,
                                bandwidth[s].data(), n_links)
                                .worst;
                }
            });
        const double scalar_s = t.a;
        const double simd_s = t.b;
        const double scanned = static_cast<double>(n_links) * reps;
        speedups[1] = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
        std::printf("Drain scan: scalar %.0f Mlink/s, simd %.0f Mlink/s "
                    "(x%.2f, sink %.3g)\n",
                    scanned / scalar_s / 1e6, scanned / simd_s / 1e6,
                    speedups[1], sink);
        std::printf("BENCH_JSON {\"bench\":\"micro_kernels\","
                    "\"section\":\"drain_scan\",\"links\":%d,"
                    "\"scalar_links_per_s\":%.3e,"
                    "\"simd_links_per_s\":%.3e,\"speedup\":%.2f}\n",
                    n_links, scanned / scalar_s, scanned / simd_s,
                    speedups[1]);
    }

    // --- breakdown reduce: scalar twin vs lane-per-field path ----------
    {
        const int n_cells = 4096;
        const int reps = 2000;
        std::uniform_real_distribution<double> v(0.0, 1.0);
        std::vector<cost::OpCostBreakdown> cells(n_cells);
        for (cost::OpCostBreakdown &c : cells) {
            c.fwd_time = v(rng);
            c.bwd_time = v(rng);
            c.comp_time = v(rng);
            c.collective_time = v(rng);
            c.stream_comm_time = v(rng);
            c.step_comm_time = v(rng);
            c.exposed_comm = v(rng);
            c.tail_latency = v(rng);
            c.flops = v(rng) * 1e12;
            c.dram_bytes = v(rng) * 1e9;
            c.d2d_link_bytes = v(rng) < 0.8 ? v(rng) * 1e9 : 0.0;
            c.bw_utilization = v(rng) < 0.9 ? v(rng) : 0.0;
            c.feasible = v(rng) < 0.95;
        }

        const cost::BreakdownSums scalar_r =
            cost::reduceBreakdownsScalar(cells);
        const cost::BreakdownSums simd_r =
            cost::reduceBreakdownsSimd(cells);
        if (std::memcmp(&scalar_r, &simd_r, sizeof scalar_r) != 0) {
            std::printf("FAIL: breakdown reduce scalar/simd diverged\n");
            ok = false;
        }

        double sink = 0.0;
        const Paired t = pairedBestOf(
            trials,
            [&] {
                for (int r = 0; r < reps; ++r)
                    sink += cost::reduceBreakdownsScalar(cells).wall;
            },
            [&] {
                for (int r = 0; r < reps; ++r)
                    sink += cost::reduceBreakdownsSimd(cells).wall;
            });
        const double scalar_s = t.a;
        const double simd_s = t.b;
        const double reduced = static_cast<double>(n_cells) * reps;
        speedups[2] = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
        std::printf("Breakdown reduce: scalar %.0f Mcell/s, simd %.0f "
                    "Mcell/s (x%.2f, sink %.3g)\n",
                    reduced / scalar_s / 1e6, reduced / simd_s / 1e6,
                    speedups[2], sink);
        std::printf("BENCH_JSON {\"bench\":\"micro_kernels\","
                    "\"section\":\"breakdown_reduce\",\"cells\":%d,"
                    "\"scalar_cells_per_s\":%.3e,"
                    "\"simd_cells_per_s\":%.3e,\"speedup\":%.2f}\n",
                    n_cells, reduced / scalar_s, reduced / simd_s,
                    speedups[2]);
    }

    // --- acceptance bars (CI smoke) -------------------------------------
    const char *names[3] = {"deposit", "drain_scan", "breakdown_reduce"};
    for (int i = 0; i < 3; ++i) {
        if (speedups[i] < 0.9) {
            std::printf("FAIL: %s vector path x%.2f slower than its "
                        "scalar twin\n",
                        names[i], speedups[i]);
            ok = false;
        }
    }
    if (vector_build) {
        int fast = 0;
        for (double s : speedups)
            fast += s >= 1.5 ? 1 : 0;
        if (fast < 2) {
            std::printf("FAIL: only %d of 3 kernels reached 1.5x on a "
                        "vector-capable build (x%.2f, x%.2f, x%.2f)\n",
                        fast, speedups[0], speedups[1], speedups[2]);
            ok = false;
        }
    }
    if (!ok)
        return 1;
    std::printf("micro_kernels acceptance bars passed\n");
    return 0;
}
