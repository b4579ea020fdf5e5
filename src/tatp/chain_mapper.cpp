#include "tatp/chain_mapper.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace temp::tatp {

ChainMapper::ChainMapper(const hw::MeshTopology &mesh) : mesh_(mesh) {}

ChainInfo
ChainMapper::analyzeChain(const std::vector<hw::DieId> &ordered) const
{
    ChainInfo info;
    info.chain = ordered;
    for (std::size_t i = 0; i + 1 < ordered.size(); ++i) {
        const int hops = mesh_.hopDistance(ordered[i], ordered[i + 1]);
        info.hops.push_back(hops);
        info.max_hop = std::max(info.max_hop, hops);
        info.total_hops += hops;
        if (hops != 1)
            info.contiguous = false;
    }
    return info;
}

RingInfo
ChainMapper::analyzeRing(const std::vector<hw::DieId> &ordered) const
{
    RingInfo info;
    info.chain = analyzeChain(ordered);
    if (ordered.size() >= 2) {
        info.wrap_hops = mesh_.hopDistance(ordered.back(), ordered.front());
        info.physical_ring = info.chain.contiguous && info.wrap_hops == 1;
        info.max_hop = std::max(info.chain.max_hop, info.wrap_hops);
    }
    return info;
}

std::vector<hw::DieId>
ChainMapper::orderAsChain(std::vector<hw::DieId> dies) const
{
    if (dies.size() <= 2)
        return dies;

    // Greedy nearest neighbour starting from the die with the fewest
    // in-set neighbours (an endpoint of the eventual chain).
    auto in_set_degree = [&](hw::DieId die) {
        int deg = 0;
        for (hw::DieId other : dies)
            if (other != die && mesh_.hopDistance(die, other) == 1)
                ++deg;
        return deg;
    };
    std::size_t start = 0;
    for (std::size_t i = 1; i < dies.size(); ++i)
        if (in_set_degree(dies[i]) < in_set_degree(dies[start]))
            start = i;

    std::vector<hw::DieId> chain;
    std::vector<bool> used(dies.size(), false);
    chain.push_back(dies[start]);
    used[start] = true;
    while (chain.size() < dies.size()) {
        const hw::DieId cur = chain.back();
        int best = -1;
        int best_dist = 0;
        for (std::size_t i = 0; i < dies.size(); ++i) {
            if (used[i])
                continue;
            const int dist = mesh_.hopDistance(cur, dies[i]);
            if (best < 0 || dist < best_dist) {
                best = static_cast<int>(i);
                best_dist = dist;
            }
        }
        chain.push_back(dies[best]);
        used[best] = true;
    }

    // 2-opt: reverse segments while that shortens the total hop length.
    // Reversing chain[i..j] keeps every inner edge (hopDistance is
    // symmetric) and swaps only the two boundary edges, so a candidate
    // is scored by their integer delta instead of re-summing the path.
    const std::size_t n = chain.size();
    auto dist = [&](std::size_t a, std::size_t b) {
        return mesh_.hopDistance(chain[a], chain[b]);
    };
    bool improved = true;
    int guard = 0;
    while (improved && guard++ < 64) {
        improved = false;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                int delta = 0;
                if (i > 0)
                    delta += dist(i - 1, j) - dist(i - 1, i);
                if (j + 1 < n)
                    delta += dist(i, j + 1) - dist(j, j + 1);
                if (delta < 0) {
                    std::reverse(chain.begin() + i, chain.begin() + j + 1);
                    improved = true;
                }
            }
        }
    }
    return chain;
}

bool
ChainMapper::physicalRingExists(int rows, int cols)
{
    if (rows < 2 || cols < 2)
        return false;
    return (rows * cols) % 2 == 0;
}

}  // namespace temp::tatp
