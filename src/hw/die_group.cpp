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
    return addLocked(probe);
}

void
DieGroupTable::internAll(std::span<const std::span<const DieId>> groups,
                         std::span<const DieGroup *> out)
{
    if (out.size() != groups.size())
        panic("DieGroupTable::internAll: %zu groups, %zu handles",
              groups.size(), out.size());
    bool missing = false;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        for (std::size_t i = 0; i < groups.size(); ++i) {
            auto it = index_.find(Probe{groups[i], dieGroupHash(groups[i])});
            out[i] = it != index_.end() ? *it : nullptr;
            missing = missing || out[i] == nullptr;
        }
    }
    if (!missing)
        return;
    std::unique_lock<std::shared_mutex> lock(mutex_);
    for (std::size_t i = 0; i < groups.size(); ++i) {
        if (out[i] != nullptr)
            continue;
        // Another thread, or an earlier group of this call, may have
        // interned it since the shared pass.
        const Probe probe{groups[i], dieGroupHash(groups[i])};
        auto it = index_.find(probe);
        out[i] = it != index_.end() ? *it : addLocked(probe);
    }
}

const DieGroup *
DieGroupTable::addLocked(const Probe &probe)
{
    // Memo keys pack the index with a collective kind into one word.
    if (groups_.size() >= (1u << 29))
        panic("DieGroupTable: more than 2^29 distinct die groups");
    auto group = std::make_unique<DieGroup>();
    group->dies.assign(probe.dies.begin(), probe.dies.end());
    group->hash = probe.hash;
    group->index = static_cast<std::uint32_t>(groups_.size());
    group->table = this;
    const DieGroup *handle = group.get();
    groups_.push_back(std::move(group));
    index_.insert(handle);
    return handle;
}

bool
DieGroupTable::adopt(DieGroupTable &from)
{
    if (&from == this)
        return false;
    std::scoped_lock lock(mutex_, from.mutex_);
    if (!groups_.empty())
        return false;
    groups_.swap(from.groups_);
    index_.swap(from.index_);
    for (const std::unique_ptr<DieGroup> &group : groups_)
        group->table = this;
    return true;
}

std::size_t
DieGroupTable::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return groups_.size();
}

}  // namespace temp::hw
