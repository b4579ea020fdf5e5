#include "hw/fault.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace temp::hw {

FaultMap::FaultMap(int die_count, int link_count)
    : core_fault_fraction_(die_count, 0.0)
{
    (void)link_count;
}

void
FaultMap::setCoreFaultFraction(DieId die, double fraction)
{
    if (die < 0)
        panic("FaultMap::setCoreFaultFraction: bad die %d", die);
    if (static_cast<std::size_t>(die) >= core_fault_fraction_.size())
        core_fault_fraction_.resize(die + 1, 0.0);
    core_fault_fraction_[die] = std::clamp(fraction, 0.0, 1.0);
    ++revision_;
}

double
FaultMap::coreFaultFraction(DieId die) const
{
    if (die < 0 || static_cast<std::size_t>(die) >= core_fault_fraction_.size())
        return 0.0;
    return core_fault_fraction_[die];
}

std::vector<LinkId>
FaultMap::failedLinks() const
{
    std::vector<LinkId> links(failed_links_.begin(),
                              failed_links_.end());
    std::sort(links.begin(), links.end());
    return links;
}

void
FaultMap::applyDelta(const FaultDelta &delta)
{
    for (LinkId link : delta.fail_links)
        failLink(link);
    for (LinkId link : delta.restore_links)
        restoreLink(link);
    for (const auto &[die, fraction] : delta.core_fractions)
        setCoreFaultFraction(die, fraction);
}

FaultDelta
FaultMap::deltaBetween(const FaultMap &from, const FaultMap &to)
{
    FaultDelta delta;
    for (LinkId link : to.failedLinks())
        if (!from.linkFailed(link))
            delta.fail_links.push_back(link);
    for (LinkId link : from.failedLinks())
        if (!to.linkFailed(link))
            delta.restore_links.push_back(link);
    const int dies = std::max(from.dieCount(), to.dieCount());
    for (DieId die = 0; die < dies; ++die) {
        const double want = to.coreFaultFraction(die);
        if (from.coreFaultFraction(die) != want)
            delta.core_fractions.emplace_back(die, want);
    }
    return delta;
}

std::uint64_t
FaultMap::contentFingerprint() const
{
    using common::fnv1aValue;
    std::uint64_t hash = common::kFnvOffset;
    for (LinkId link : failedLinks())
        hash = fnv1aValue(hash, static_cast<std::uint64_t>(link));
    // Trailing zero fractions are excluded so a map resized by a probe
    // of a healthy die fingerprints like one never probed.
    std::size_t last = core_fault_fraction_.size();
    while (last > 0 && core_fault_fraction_[last - 1] == 0.0)
        --last;
    for (std::size_t die = 0; die < last; ++die)
        hash = fnv1aValue(hash, core_fault_fraction_[die]);
    // Separate the two sections so N links / 0 fractions never
    // collides with N-1 links / 1 fraction by concatenation.
    hash = fnv1aValue(hash, last);
    return hash;
}

bool
FaultMap::healthy() const
{
    if (!failed_links_.empty())
        return false;
    return std::all_of(core_fault_fraction_.begin(),
                       core_fault_fraction_.end(),
                       [](double f) { return f == 0.0; });
}

FaultMap
FaultMap::randomLinkFaults(const Topology &topo, double rate, Rng &rng)
{
    FaultMap map(topo.dieCount(), topo.linkCount());
    for (LinkId id = 0; id < topo.linkCount(); ++id) {
        const Link &link = topo.link(id);
        // Visit each undirected channel once (src < dst) and fail both
        // directions together.
        if (link.src >= link.dst)
            continue;
        if (rng.bernoulli(rate)) {
            map.failLink(id);
            if (topo.hasLink(link.dst, link.src))
                map.failLink(topo.linkId(link.dst, link.src));
        }
    }
    return map;
}

FaultMap
FaultMap::randomCoreFaults(const Topology &topo, double rate, Rng &rng)
{
    FaultMap map(topo.dieCount(), topo.linkCount());
    if (rate <= 0.0)
        return map;
    for (DieId die = 0; die < topo.dieCount(); ++die) {
        // Mean `rate`, spread 0.5x..1.5x, clamped so the die stays usable.
        const double f = rate * rng.uniformReal(0.5, 1.5);
        map.setCoreFaultFraction(die, std::min(f, 0.9));
    }
    return map;
}

}  // namespace temp::hw
