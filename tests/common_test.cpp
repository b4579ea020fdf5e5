/**
 * @file
 * Unit tests for the common module: units, stats, linear algebra,
 * RNG, JSON parsing, the thread pool's lazy start.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace temp {
namespace {

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    common::JsonValue v;
    std::string error;
    ASSERT_TRUE(common::parseJson("\"\\u00e9\\u20ac\"", &v, &error))
        << error;
    EXPECT_EQ(v.text, "\xc3\xa9\xe2\x82\xac");  // é€
}

TEST(Json, SurrogatePairsCombineToOneCodePoint)
{
    // "\ud83d\ude00" is U+1F600; it must decode to the 4-byte UTF-8
    // sequence, not two raw 3-byte surrogate encodings (CESU-8).
    common::JsonValue v;
    std::string error;
    ASSERT_TRUE(
        common::parseJson("\"\\ud83d\\ude00\"", &v, &error))
        << error;
    EXPECT_EQ(v.text, "\xf0\x9f\x98\x80");
}

TEST(Json, UnpairedSurrogatesAreRejected)
{
    common::JsonValue v;
    std::string error;
    // Lone high surrogate (end of string).
    EXPECT_FALSE(common::parseJson("\"\\ud83d\"", &v, &error));
    // High surrogate followed by a non-surrogate escape.
    EXPECT_FALSE(
        common::parseJson("\"\\ud83d\\u0041\"", &v, &error));
    // High surrogate followed by a plain character.
    EXPECT_FALSE(common::parseJson("\"\\ud83dx\"", &v, &error));
    // Lone low surrogate.
    EXPECT_FALSE(common::parseJson("\"\\ude00\"", &v, &error));
}

TEST(Units, BandwidthConversions)
{
    EXPECT_DOUBLE_EQ(tbPerSec(4.0), 4e12);
    EXPECT_DOUBLE_EQ(gbPerSec(600.0), 600e9);
    EXPECT_DOUBLE_EQ(tflops(1800.0), 1.8e15);
}

TEST(Units, EnergyConversion)
{
    // 5 pJ/bit == 40 pJ/byte.
    EXPECT_NEAR(pjPerBitToJoulePerByte(5.0), 40e-12, 1e-18);
}

TEST(Units, MemorySizes)
{
    EXPECT_DOUBLE_EQ(gigabytes(72.0), 72e9);
    EXPECT_DOUBLE_EQ(megabytes(80.0), 80e6);
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(Stats, PearsonAntiCorrelation)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonUncorrelatedConstant)
{
    std::vector<double> xs{1, 2, 3};
    std::vector<double> ys{5, 5, 5};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(xs, ys), 0.0);
}

TEST(Stats, MapeBasic)
{
    std::vector<double> pred{110, 90};
    std::vector<double> ref{100, 100};
    EXPECT_NEAR(meanAbsPercentError(pred, ref), 10.0, 1e-12);
}

TEST(Stats, MapeSkipsZeroReference)
{
    std::vector<double> pred{110, 42};
    std::vector<double> ref{100, 0};
    EXPECT_NEAR(meanAbsPercentError(pred, ref), 10.0, 1e-12);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Matrix, MultiplyIdentity)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1.0;
    a.at(1, 1) = 1.0;
    Matrix b(2, 2);
    b.at(0, 0) = 3.0;
    b.at(0, 1) = 4.0;
    b.at(1, 0) = 5.0;
    b.at(1, 1) = 6.0;
    Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 5.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 6.0);
}

TEST(Matrix, Transpose)
{
    Matrix a(2, 3);
    a.at(0, 2) = 7.0;
    Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t.at(2, 0), 7.0);
}

TEST(LinearSolve, TwoByTwo)
{
    Matrix a(2, 2);
    a.at(0, 0) = 2.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 3.0;
    std::vector<double> b{5.0, 10.0};
    auto x = solveLinearSystem(a, b);
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolve, RequiresPivoting)
{
    // a(0,0) == 0 forces a row swap.
    Matrix a(2, 2);
    a.at(0, 0) = 0.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 0.0;
    std::vector<double> b{2.0, 3.0};
    auto x = solveLinearSystem(a, b);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LeastSquares, RecoversLinearModel)
{
    // y = 3 + 2*x, exactly.
    Matrix x(5, 2);
    std::vector<double> y;
    for (int i = 0; i < 5; ++i) {
        x.at(i, 0) = 1.0;
        x.at(i, 1) = i;
        y.push_back(3.0 + 2.0 * i);
    }
    auto w = leastSquares(x, y);
    EXPECT_NEAR(w[0], 3.0, 1e-6);
    EXPECT_NEAR(w[1], 2.0, 1e-6);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, UniformRealInRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(-2.0, 5.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Table, FormattersProduceExpectedStrings)
{
    EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::fmtX(1.7, 1), "1.7x");
    EXPECT_EQ(TablePrinter::fmtPct(0.384, 1), "38.4%");
}

// ---------------------------------------------------------------------
// ThreadPool: workers start on first use.
// ---------------------------------------------------------------------

TEST(ThreadPoolLazyStart, PoolDestroyedWithoutAnyJobJoinsCleanly)
{
    // Workers spawn on the first parallel job, so a pool that never runs
    // one (a framework built and dropped) owns no thread to join; the
    // width it reports is still the configured one.
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
    }
    // Serial-sized jobs run inline and do not start the workers either.
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolLazyStart, SubmitAsFirstCallStartsTheWorkers)
{
    ThreadPool pool(3);
    std::future<int> first = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(first.get(), 42);

    // The started pool serves later loops and tasks as usual.
    std::vector<std::atomic<int>> hits(64);
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const std::atomic<int> &hit : hits)
        EXPECT_EQ(hit.load(), 1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolLazyStart, ConcurrentFirstJobsStartOnce)
{
    // Two threads race to run the first job: the workers start once and
    // both loops cover every index exactly once.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> a(200), b(200);
    std::thread other(
        [&] { pool.parallelFor(a.size(), [&](std::size_t i) { ++a[i]; }); });
    pool.parallelFor(b.size(), [&](std::size_t i) { ++b[i]; });
    other.join();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].load(), 1);
        EXPECT_EQ(b[i].load(), 1);
    }
}

// ---------------------------------------------------------------------
// ThreadPool: lock-free index claiming.
// ---------------------------------------------------------------------

TEST(ThreadPoolClaiming, EveryIndexRunsExactlyOnce)
{
    // Indices are claimed with one atomic fetch_add each; many short
    // back-to-back jobs also check that a worker never carries a claim
    // from one job into the next.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> runs(100000);
    pool.parallelFor(runs.size(), [&](std::size_t i) { ++runs[i]; });
    for (const std::atomic<int> &count : runs)
        ASSERT_EQ(count.load(), 1);
    for (int job = 0; job < 200; ++job) {
        std::vector<std::atomic<int>> small(3 + job % 7);
        pool.parallelFor(small.size(), [&](std::size_t i) { ++small[i]; });
        for (const std::atomic<int> &count : small)
            ASSERT_EQ(count.load(), 1) << "job " << job;
    }
}

TEST(ThreadPoolClaiming, FirstExceptionPropagatesAndThePoolStaysUsable)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(1000,
                                  [&](std::size_t i) {
                                      ++ran;
                                      if (i % 100 == 7)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // A throwing index does not stop the others from being claimed.
    EXPECT_EQ(ran.load(), 1000);
    std::vector<std::atomic<int>> runs(500);
    pool.parallelFor(runs.size(), [&](std::size_t i) { ++runs[i]; });
    for (const std::atomic<int> &count : runs)
        EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolClaiming, NestedSubmitAndParallelForComplete)
{
    // Submitted tasks run loops on the same pool: the calling worker
    // runs its share, so nesting cannot deadlock.
    ThreadPool pool(4);
    std::vector<std::future<long>> futures;
    for (int t = 0; t < 6; ++t)
        futures.push_back(pool.submit([&pool, t] {
            std::vector<long> out(1000);
            pool.parallelFor(out.size(), [&](std::size_t i) {
                out[i] = static_cast<long>(i) * t;
            });
            long sum = 0;
            for (long v : out)
                sum += v;
            return sum;
        }));
    std::vector<std::atomic<int>> outer(2000);
    pool.parallelFor(outer.size(), [&](std::size_t i) { ++outer[i]; });
    for (int t = 0; t < 6; ++t)
        EXPECT_EQ(futures[static_cast<std::size_t>(t)].get(),
                  499500L * t);
    for (const std::atomic<int> &count : outer)
        EXPECT_EQ(count.load(), 1);
}

}  // namespace
}  // namespace temp
