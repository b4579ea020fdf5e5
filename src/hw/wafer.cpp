#include "hw/wafer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

namespace temp::hw {

Wafer::Wafer(WaferConfig config, FaultMap faults)
    : config_(config),
      topology_(std::make_unique<MeshTopology>(config.rows, config.cols)),
      faults_(std::move(faults)), usable_dies_(computeUsableDies())
{
}

std::vector<DieId>
Wafer::computeUsableDies() const
{
    // BFS over usable links; keep the largest connected component of
    // dies that still have working compute.
    const int n = dieCount();
    std::vector<int> component(n, -1);
    std::vector<DieId> best;
    int next_component = 0;
    for (DieId start = 0; start < n; ++start) {
        if (component[start] >= 0 ||
            faults_.computeDerate(start) <= 0.0) {
            continue;
        }
        std::vector<DieId> members;
        std::deque<DieId> queue{start};
        component[start] = next_component;
        while (!queue.empty()) {
            const DieId cur = queue.front();
            queue.pop_front();
            members.push_back(cur);
            for (DieId other : topology_->neighbors(cur)) {
                if (component[other] >= 0 ||
                    faults_.computeDerate(other) <= 0.0 ||
                    faults_.linkFailed(topology_->linkId(cur, other))) {
                    continue;
                }
                component[other] = next_component;
                queue.push_back(other);
            }
        }
        if (members.size() > best.size())
            best = std::move(members);
        ++next_component;
    }
    std::sort(best.begin(), best.end());
    return best;
}

bool
Wafer::directLinkFeasible(DieId src, DieId dst) const
{
    // Interposer traces are routed rectilinearly, so the wiring length of
    // a hypothetical direct link is the Manhattan distance between die
    // centres, not the Euclidean one. This is what rules out diagonal
    // links (25.0 + 33.3 = 58.2 mm > 50 mm) as Sec. III-B requires.
    const hw::DieCoord a = topology_->coordOf(src);
    const hw::DieCoord b = topology_->coordOf(dst);
    const double wire_mm = std::abs(a.col - b.col) * kDieWidthMm +
                           std::abs(a.row - b.row) * kDieHeightMm;
    return wire_mm <= kMaxInterconnectMm;
}

}  // namespace temp::hw
