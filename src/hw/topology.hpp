/**
 * @file
 * Interconnect topologies: the wafer's 2D mesh of dies and the
 * switch-based all-to-all fabric of a GPU cluster.
 *
 * Dies are addressed by a dense integer DieId; directed links by a dense
 * LinkId. The net layer builds routes as LinkId sequences and accumulates
 * per-link loads, so dense ids keep the hot paths allocation-free.
 */
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "hw/die_group.hpp"

namespace temp::hw {

using LinkId = int;

/// Grid position of a die on the wafer.
struct DieCoord
{
    int row = 0;
    int col = 0;

    bool operator==(const DieCoord &other) const = default;
};

/// A directed point-to-point link between two dies (or die and switch).
struct Link
{
    DieId src = -1;
    DieId dst = -1;
};

/**
 * Abstract interconnect topology.
 *
 * Concrete implementations enumerate the directed links at construction
 * time so that LinkIds are dense and stable.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /// Number of dies (endpoints) in the fabric.
    virtual int dieCount() const = 0;

    /// Number of directed links.
    int linkCount() const { return static_cast<int>(links_.size()); }

    /// The endpoints of a link.
    const Link &link(LinkId id) const { return links_[id]; }

    /// Dies directly reachable from the given die.
    const std::vector<DieId> &neighbors(DieId die) const
    {
        return neighbors_[die];
    }

    /// True if a directed link src->dst exists.
    bool hasLink(DieId src, DieId dst) const;

    /// The id of the directed link src->dst; panics if absent.
    LinkId linkId(DieId src, DieId dst) const;

    /// Minimum number of link traversals between two dies.
    virtual int hopDistance(DieId src, DieId dst) const = 0;

    /// Human-readable name of the die (for traces and reports).
    virtual std::string dieName(DieId die) const;

    /**
     * The intern table of this fabric's die groups (see
     * hw/die_group.hpp). Lives as long as the topology; interning is
     * thread-safe and does not change the fabric, hence const.
     */
    DieGroupTable &dieGroups() const { return die_groups_; }

  protected:
    /// Registers a directed link during construction; returns its id.
    LinkId addLink(DieId src, DieId dst);

    std::vector<Link> links_;
    std::vector<std::vector<DieId>> neighbors_;
    std::unordered_map<long long, LinkId> link_index_;
    mutable DieGroupTable die_groups_;

    static long long pairKey(DieId src, DieId dst)
    {
        return (static_cast<long long>(src) << 32) |
               static_cast<unsigned int>(dst);
    }
};

/**
 * 2D mesh of rows x cols dies; dies are connected to their N/S/E/W
 * neighbours only (Sec. II-B / Fig. 3). An optional torus mode exists
 * purely for what-if studies — the paper argues wrap links are infeasible
 * at wafer scale (Sec. III-B).
 */
class MeshTopology : public Topology
{
  public:
    MeshTopology(int rows, int cols, bool torus = false);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    bool isTorus() const { return torus_; }

    int dieCount() const override { return rows_ * cols_; }

    /// Grid coordinate of a die id.
    DieCoord coordOf(DieId die) const;

    /// Die id at a grid coordinate (must be in range).
    DieId dieAt(int row, int col) const;

    /// True if the coordinate lies on the wafer.
    bool inBounds(int row, int col) const
    {
        return row >= 0 && row < rows_ && col >= 0 && col < cols_;
    }

    int hopDistance(DieId src, DieId dst) const override;

    std::string dieName(DieId die) const override;

    /**
     * Physical centre-to-centre distance between two dies in millimetres,
     * given the die footprint (used by signal-integrity feasibility
     * checks for hypothetical long links).
     */
    double physicalDistanceMm(DieId src, DieId dst, double die_width_mm,
                              double die_height_mm) const;

  private:
    int rows_;
    int cols_;
    bool torus_;
};

/**
 * Switch-based all-to-all fabric (GPU cluster). Each GPU owns an uplink
 * and a downlink to a central switch; a route between two GPUs uses the
 * source uplink and destination downlink, which is where NIC contention
 * materialises.
 */
class SwitchTopology : public Topology
{
  public:
    explicit SwitchTopology(int endpoint_count);

    int dieCount() const override { return endpoints_; }

    int hopDistance(DieId src, DieId dst) const override
    {
        return src == dst ? 0 : 2;
    }

    /// Uplink (endpoint -> switch) id for an endpoint.
    LinkId uplink(DieId die) const { return 2 * die; }

    /// Downlink (switch -> endpoint) id for an endpoint.
    LinkId downlink(DieId die) const { return 2 * die + 1; }

    std::string dieName(DieId die) const override;

  private:
    int endpoints_;
};

}  // namespace temp::hw
