/**
 * @file
 * Spatial layout of parallel groups on the wafer mesh (Fig. 10 steps
 * 2 and 4).
 *
 * Dies are enumerated in boustrophedon ("snake") order so that
 * consecutive indices are physically adjacent. Parallelism axes are then
 * laid out as a mixed-radix number over snake positions: the innermost
 * axis varies fastest, so its groups occupy contiguous snake segments —
 * i.e. contiguous physical chains, exactly what TATP needs (Sec. V).
 * Outer axes form strided (scattered) groups, which is what makes their
 * collectives contend — the effect TCME optimises.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "hw/topology.hpp"
#include "parallel/spec.hpp"

namespace temp::parallel {

/// Default inner-to-outer axis order (TATP innermost).
std::vector<Axis> defaultAxisOrder();

/**
 * Assignment of a ParallelSpec's groups to physical dies.
 *
 * The spec's total degree may be smaller than the wafer (surplus dies
 * stay idle); it must never exceed it. Groups are interned in the
 * fabric's dieGroups() table, so a layout holds one handle per group
 * and its collectives copy no die list.
 */
class GroupLayout
{
  public:
    /**
     * @param mesh The wafer's mesh topology.
     * @param spec Parallel degrees to lay out.
     * @param inner_to_outer Axis order; defaults to defaultAxisOrder().
     */
    GroupLayout(const hw::MeshTopology &mesh, const ParallelSpec &spec,
                std::vector<Axis> inner_to_outer = defaultAxisOrder());

    /**
     * Layout over an explicit die enumeration of `fabric` (e.g. the
     * snake order filtered to a fault-free connected component). The
     * first spec.totalDegree() entries carry work.
     */
    GroupLayout(const hw::Topology &fabric,
                const std::vector<hw::DieId> &die_order,
                const ParallelSpec &spec,
                std::vector<Axis> inner_to_outer = defaultAxisOrder());

    /// Dies in snake order (size = spec.totalDegree()).
    const std::vector<hw::DieId> &activeDies() const { return active_; }

    /// Number of dies carrying work.
    int usedDies() const { return static_cast<int>(active_.size()); }

    /**
     * The interned groups of one axis. Each group is ordered by the
     * axis coordinate; group count = totalDegree / degree(axis). For a
     * degree-1 axis this is empty (no communication groups).
     */
    std::span<const hw::DieGroup *const> handles(Axis axis) const
    {
        const auto a = static_cast<std::size_t>(axis);
        return std::span<const hw::DieGroup *const>(groups_).subspan(
            axis_begin_[a], axis_begin_[a + 1] - axis_begin_[a]);
    }

    /// handles(axis), each group viewed as its die-id vector.
    auto groups(Axis axis) const
    {
        return handles(axis) |
               std::views::transform(
                   [](const hw::DieGroup *group)
                       -> const std::vector<hw::DieId> & {
                       return group->dies;
                   });
    }

    /// The group of `axis` containing a given die.
    const std::vector<hw::DieId> &groupOf(Axis axis, hw::DieId die) const;

    /// The spec this layout realises.
    const ParallelSpec &spec() const { return spec_; }

    /// The axis order used (inner to outer).
    const std::vector<Axis> &axisOrder() const { return order_; }

    /**
     * Boustrophedon enumeration of an R x C mesh: row 0 left-to-right,
     * row 1 right-to-left, ... Consecutive entries are always adjacent.
     */
    static std::vector<hw::DieId> snakeOrder(const hw::MeshTopology &mesh);

    /// Estimated heap bytes held by this layout (feeds the layout
    /// cache's byte budget; object size excluded, the cache adds it;
    /// the groups belong to the fabric's table).
    long byteEstimate() const;

  private:
    ParallelSpec spec_;
    std::vector<Axis> order_;
    std::vector<hw::DieId> active_;
    /// Every axis's groups, axis by axis: axis a owns
    /// groups_[axis_begin_[a] .. axis_begin_[a + 1]).
    std::vector<const hw::DieGroup *> groups_;
    std::array<std::uint32_t, static_cast<std::size_t>(Axis::Count) + 1>
        axis_begin_{};
};

}  // namespace temp::parallel
