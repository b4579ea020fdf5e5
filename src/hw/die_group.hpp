/**
 * @file
 * Interned die groups: each distinct ordered die list a topology's
 * collectives name is stored once, and every collective task,
 * stream-plan key and phase-memo key refers to it by a
 * `const DieGroup *`.
 *
 * Die lists depend only on the layout, never on faults, so a table is
 * append-only for the life of its topology: a fault change never
 * clears it, and handles held by cells, phase keys and imported
 * snapshot cells stay valid as long as the topology. Within one table,
 * equal content means equal handle; the hash comes from the content,
 * never from an address, so every hash-derived order stays the same
 * from run to run.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_set>
#include <vector>

namespace temp::hw {

using DieId = int;

class DieGroupTable;

/// One interned, immutable ordered die list.
struct DieGroup
{
    std::vector<DieId> dies;
    /// FNV-1a over the dies: the group's contribution to every memo
    /// key hash.
    std::uint64_t hash = 0;
    /// Dense intern order within the table: an exact one-word
    /// identity for memo keys (unique per content within one table).
    std::uint32_t index = 0;
    /// The table that interned the group.
    const DieGroupTable *table = nullptr;

    std::size_t size() const { return dies.size(); }
};

/// FNV-1a content hash of a die list, one die id per step (the
/// DieGroup::hash of it).
std::uint64_t dieGroupHash(std::span<const DieId> dies);

/**
 * Append-only, thread-safe intern table. Lookups of resident groups
 * take a shared lock and allocate nothing; a new group is published
 * under the exclusive lock, so any thread that obtains its handle sees
 * its contents. Constructing a table allocates nothing.
 */
class DieGroupTable
{
  public:
    DieGroupTable() = default;
    DieGroupTable(const DieGroupTable &) = delete;
    DieGroupTable &operator=(const DieGroupTable &) = delete;

    /// The handle of `dies`, interning it on first sight.
    const DieGroup *intern(std::span<const DieId> dies);

    /**
     * intern() of every group in `groups`, handles stored in `out` in
     * order: one shared lock for the lookups, plus one exclusive lock
     * only when some group is new. New groups are interned in call
     * order (a repeat within the call gets its first handle), so the
     * handles equal those of intern() called group by group.
     */
    void internAll(std::span<const std::span<const DieId>> groups,
                   std::span<const DieGroup *> out);

    /**
     * Moves every group of `from` into this table, which must be
     * empty: each keeps its handle, contents and index, and names this
     * table from then on; `from` is left empty. A table that already
     * holds a group takes nothing and returns false. Handles of `from`
     * held elsewhere then live as long as this table.
     */
    bool adopt(DieGroupTable &from);

    /// Groups interned so far.
    std::size_t size() const;

    /// Whether pred(group) holds for every group interned so far.
    template <typename Pred>
    bool allOf(Pred &&pred) const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        for (const std::unique_ptr<DieGroup> &group : groups_)
            if (!pred(*group))
                return false;
        return true;
    }

  private:
    /// Non-owning probe so a resident lookup copies nothing.
    struct Probe
    {
        std::span<const DieId> dies;
        std::uint64_t hash;
    };

    struct Hash
    {
        using is_transparent = void;
        std::size_t operator()(const DieGroup *group) const
        {
            return static_cast<std::size_t>(group->hash);
        }
        std::size_t operator()(const Probe &probe) const
        {
            return static_cast<std::size_t>(probe.hash);
        }
    };

    struct Equal
    {
        using is_transparent = void;
        bool operator()(const DieGroup *a, const DieGroup *b) const
        {
            return a == b;
        }
        bool operator()(const Probe &a, const DieGroup *b) const;
        bool operator()(const DieGroup *a, const Probe &b) const
        {
            return (*this)(b, a);
        }
    };

    /// Stores a new group. Caller holds mutex_ exclusively.
    const DieGroup *addLocked(const Probe &probe);

    mutable std::shared_mutex mutex_;  ///< guards both members below
    /// Owns every group; handles point into the nodes, which never
    /// move.
    std::vector<std::unique_ptr<DieGroup>> groups_;
    std::unordered_set<const DieGroup *, Hash, Equal> index_;
};

}  // namespace temp::hw
