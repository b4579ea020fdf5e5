/**
 * @file
 * Deterministic allocation gate for the cost path.
 *
 * Replaces the global operator new/delete with counting wrappers and
 * runs one cold OptimizeRequest per model at eval_threads 1, each on a
 * fresh TempService, counting every heap allocation from service
 * construction to teardown. At width 1 the solve is serial and fully
 * deterministic, so the count is exact. The cost path made 66,579
 * (GPT-3 6.7B) and 151,873 (OPT 175B) before die groups were interned,
 * 20,914 and 41,190 while unbounded memos still kept LRU list nodes,
 * and 18,557 and 35,859 since (all measured with this test); the bars
 * below hold that last step with a little headroom, and the pinned
 * step times prove the leaner path answers the same.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "api/service.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace temp::api {
namespace {

struct ColdSolve
{
    long allocations = 0;
    double step_time_s = 0.0;
    bool ok = false;
};

/// One cold optimize at eval_threads 1 on a fresh service, counting
/// the allocations of construction, the solve and teardown.
ColdSolve
coldSolve(const char *model)
{
    OptimizeRequest request;
    request.model = model::modelByName(model);
    request.options.eval_threads = 1;
    ColdSolve out;
    g_allocations = 0;
    g_counting = true;
    {
        TempService service;
        const Response response = service.run(request);
        out.ok = response.ok;
        out.step_time_s = response.solver.step_time_s;
    }
    g_counting = false;
    out.allocations = g_allocations.load();
    std::printf("%s: %ld allocations, step time %.17g s\n", model,
                out.allocations, out.step_time_s);
    return out;
}

TEST(AllocCount, ColdGpt3SolveAllocatesAtMostHalfOfTheCopyingPath)
{
    const ColdSolve solve = coldSolve("GPT-3 6.7B");
    ASSERT_TRUE(solve.ok);
    EXPECT_EQ(solve.step_time_s, 0.27889315815968801);
    EXPECT_LE(solve.allocations, 18800);
}

TEST(AllocCount, ColdOpt175bSolveAllocatesAtMostHalfOfTheCopyingPath)
{
    const ColdSolve solve = coldSolve("OPT 175B");
    ASSERT_TRUE(solve.ok);
    EXPECT_EQ(solve.step_time_s, 12.558925539876896);
    EXPECT_LE(solve.allocations, 37000);
}

}  // namespace
}  // namespace temp::api
