#include "parallel/layout.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace temp::parallel {

std::vector<Axis>
defaultAxisOrder()
{
    return {Axis::TATP, Axis::TP, Axis::SP, Axis::CP, Axis::FSDP, Axis::DP};
}

std::vector<hw::DieId>
GroupLayout::snakeOrder(const hw::MeshTopology &mesh)
{
    std::vector<hw::DieId> order;
    order.reserve(mesh.dieCount());
    for (int r = 0; r < mesh.rows(); ++r) {
        if (r % 2 == 0) {
            for (int c = 0; c < mesh.cols(); ++c)
                order.push_back(mesh.dieAt(r, c));
        } else {
            for (int c = mesh.cols() - 1; c >= 0; --c)
                order.push_back(mesh.dieAt(r, c));
        }
    }
    return order;
}

GroupLayout::GroupLayout(const hw::MeshTopology &mesh,
                         const ParallelSpec &spec,
                         std::vector<Axis> inner_to_outer)
    : GroupLayout(mesh, snakeOrder(mesh), spec, std::move(inner_to_outer))
{
}

GroupLayout::GroupLayout(const hw::Topology &fabric,
                         const std::vector<hw::DieId> &die_order,
                         const ParallelSpec &spec,
                         std::vector<Axis> inner_to_outer)
    : spec_(spec), order_(std::move(inner_to_outer))
{
    if (!spec.valid())
        fatal("GroupLayout: invalid spec %s", spec.str().c_str());
    const int total = spec.totalDegree();
    if (total > static_cast<int>(die_order.size()))
        fatal("GroupLayout: spec %s needs %d dies, fabric has %zu",
              spec.str().c_str(), total, die_order.size());
    if (order_.size() != static_cast<std::size_t>(Axis::Count))
        fatal("GroupLayout: axis order must list all %d axes",
              static_cast<int>(Axis::Count));

    active_.assign(die_order.begin(), die_order.begin() + total);

    // Strides of each axis in the mixed-radix snake index.
    std::array<int, static_cast<std::size_t>(Axis::Count)> stride{};
    int running = 1;
    std::size_t group_total = 0;
    std::size_t grouped_axes = 0;
    for (Axis axis : order_) {
        const int degree = spec.degree(axis);
        stride[static_cast<std::size_t>(axis)] = running;
        running *= degree;
        if (degree > 1) {
            group_total += static_cast<std::size_t>(total / degree);
            ++grouped_axes;
        }
    }

    // Every group's dies, flat in group order (each grouped axis's
    // groups cover the active dies once), then interned in one call.
    std::vector<hw::DieId> members;
    members.reserve(grouped_axes * static_cast<std::size_t>(total));
    std::vector<std::span<const hw::DieId>> groups;
    groups.reserve(group_total);
    for (std::size_t ai = 0; ai < static_cast<std::size_t>(Axis::Count);
         ++ai) {
        axis_begin_[ai] = static_cast<std::uint32_t>(groups.size());
        const int degree = spec.degree(static_cast<Axis>(ai));
        if (degree <= 1)
            continue;
        const int s = stride[ai];
        // Enumerate groups: iterate all snake indices whose axis
        // coordinate is zero; the group walks the axis coordinate.
        for (int base = 0; base < total; ++base) {
            if ((base / s) % degree != 0)
                continue;
            const std::size_t first = members.size();
            for (int x = 0; x < degree; ++x)
                members.push_back(active_[base + x * s]);
            // No reallocation: `members` was reserved to its final size.
            groups.emplace_back(members.data() + first,
                                static_cast<std::size_t>(degree));
        }
    }
    axis_begin_.back() = static_cast<std::uint32_t>(groups.size());
    groups_.resize(groups.size());
    fabric.dieGroups().internAll(groups, groups_);
}

const std::vector<hw::DieId> &
GroupLayout::groupOf(Axis axis, hw::DieId die) const
{
    for (const std::vector<hw::DieId> &group : groups(axis))
        if (std::find(group.begin(), group.end(), die) != group.end())
            return group;
    panic("GroupLayout::groupOf: die %d not in a %s group", die,
          axisName(axis));
}

long
GroupLayout::byteEstimate() const
{
    return static_cast<long>(order_.capacity() * sizeof(Axis) +
                             active_.capacity() * sizeof(hw::DieId) +
                             groups_.capacity() * sizeof(hw::DieGroup *));
}

}  // namespace temp::parallel
