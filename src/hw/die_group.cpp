#include "hw/die_group.hpp"

#include <algorithm>
#include <mutex>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace temp::hw {

std::uint64_t
dieGroupHash(std::span<const DieId> dies)
{
    std::uint64_t hash = common::kFnvOffset;
    for (DieId die : dies)
        hash = (hash ^ static_cast<std::uint32_t>(die)) * 0x100000001b3ull;
    return hash;
}

bool
DieGroupTable::Equal::operator()(const Probe &a, const DieGroup *b) const
{
    return a.hash == b->hash && std::ranges::equal(a.dies, b->dies);
}

const DieGroup *
DieGroupTable::intern(std::span<const DieId> dies)
{
    const Probe probe{dies, dieGroupHash(dies)};
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        if (auto it = index_.find(probe); it != index_.end())
            return *it;
    }
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (auto it = index_.find(probe); it != index_.end())
        return *it;  // another thread interned it meanwhile
    // Memo keys pack the index with a collective kind into one word.
    if (groups_.size() >= (1u << 29))
        panic("DieGroupTable: more than 2^29 distinct die groups");
    auto group = std::make_unique<DieGroup>();
    group->dies.assign(dies.begin(), dies.end());
    group->hash = probe.hash;
    group->index = static_cast<std::uint32_t>(groups_.size());
    group->table = this;
    const DieGroup *handle = group.get();
    groups_.push_back(std::move(group));
    index_.insert(handle);
    return handle;
}

std::size_t
DieGroupTable::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return groups_.size();
}

}  // namespace temp::hw
