/**
 * @file
 * Routes and routing policies on the wafer mesh.
 *
 * The mesh offers little path diversity (Challenge 2, Sec. III-B); the
 * router exposes exactly the choices the traffic-conscious optimizer can
 * exploit: dimension-ordered XY and YX routes, plus single-waypoint
 * detours, all optionally avoiding failed links.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/bounded_cache.hpp"
#include "hw/fault.hpp"
#include "hw/topology.hpp"

namespace temp::net {

using hw::DieId;
using hw::LinkId;

/// An ordered sequence of directed links from src to dst.
struct Route
{
    /// Links a route's bitmask covers: ids 0 .. kMaskLinks - 1.
    static constexpr int kMaskLinks = 128;

    DieId src = -1;
    DieId dst = -1;
    std::vector<LinkId> links;
    /// Bit l set for every link l < kMaskLinks on the route. Filled
    /// when the router stores the route, so it is valid on every
    /// RouteRef target and zero on a Route value the router returns.
    std::array<std::uint64_t, 2> link_mask{};

    /// Number of link traversals.
    int hops() const { return static_cast<int>(links.size()); }

    bool empty() const { return links.empty(); }
};

/**
 * One route epoch's storage (defined in route.cpp): every route the
 * router memoized between two fault changes. Holding a shared
 * reference keeps every route interned in that epoch alive.
 */
struct RouteEpoch;

/**
 * A non-owning handle to an immutable Route in a Router's storage.
 *
 * Flows reference routes through this instead of owning a Route copy,
 * so a Flow is trivially copyable and copying one (overlay
 * combination, the optimizer's rebuild) writes no shared state. Only
 * the Router makes valid refs. A ref stays valid while its route's
 * storage lives: link routes as long as the router, every other route
 * as long as its route epoch's storage (the router keeps the current
 * epoch; cached stream plans keep theirs). A default-constructed
 * ref reads as an empty route (no links), the state of an infeasible
 * transfer.
 */
class RouteRef
{
  public:
    RouteRef() = default;

    /// True when a route is attached (even a trivial src==dst one).
    bool valid() const { return route_ != nullptr; }

    const Route &get() const { return route_ ? *route_ : kEmpty; }
    const Route &operator*() const { return get(); }
    const Route *operator->() const { return &get(); }

    int hops() const { return route_ ? route_->hops() : 0; }
    bool empty() const { return route_ == nullptr || route_->empty(); }
    const std::vector<LinkId> &links() const { return get().links; }

    /**
     * True when the route crosses `link`: one bit test through the
     * stored route's mask for links below Route::kMaskLinks, a scan
     * of the links above it (fabrics of more than 128 links).
     */
    bool crosses(LinkId link) const
    {
        const Route &r = get();
        if (static_cast<unsigned>(link) < Route::kMaskLinks)
            return (r.link_mask[static_cast<unsigned>(link) >> 6] >>
                    (static_cast<unsigned>(link) & 63)) &
                   1;
        for (LinkId l : r.links)
            if (l == link)
                return true;
        return false;
    }

    /// Content equality of the underlying link sequences.
    bool sameLinks(const RouteRef &other) const
    {
        return route_ == other.route_ || links() == other.links();
    }

  private:
    friend class Router;
    friend struct RouteEpoch;
    explicit RouteRef(const Route *route) : route_(route) {}

    /// What an invalid ref reads as.
    static inline const Route kEmpty{};

    const Route *route_ = nullptr;
};

/// Dimension order used for deterministic mesh routing.
enum class RoutePolicy
{
    XY,  ///< traverse columns first, then rows
    YX,  ///< traverse rows first, then columns
};

/**
 * Computes routes on a mesh topology, optionally honouring a fault map.
 *
 * The router never fabricates links: every produced route uses only links
 * present (and usable) in the topology.
 */
class Router
{
  public:
    /// @param faults Optional fault map; failed links are avoided by
    ///        shortestPath() and reported unusable by routeUsable().
    explicit Router(const hw::MeshTopology &topo,
                    const hw::FaultMap *faults = nullptr);

    /// Dimension-ordered route; always exists on a healthy mesh.
    Route route(DieId src, DieId dst, RoutePolicy policy = RoutePolicy::XY)
        const;

    /// Route through an intermediate waypoint (detour for rerouting).
    Route routeVia(DieId src, DieId waypoint, DieId dst,
                   RoutePolicy first = RoutePolicy::XY,
                   RoutePolicy second = RoutePolicy::XY) const;

    /**
     * BFS shortest path avoiding failed links; empty optional when the
     * destination is unreachable (fabric partitioned by faults).
     */
    std::optional<Route> shortestPath(DieId src, DieId dst) const;

    /**
     * Dimension-ordered route with automatic fault fallback: returns the
     * XY/YX route when usable, otherwise the BFS detour, otherwise an
     * empty optional (fabric partitioned — the caller must treat the
     * transfer as infeasible).
     */
    std::optional<Route> safeRoute(DieId src, DieId dst,
                                   RoutePolicy policy = RoutePolicy::XY)
        const;

    /**
     * Memoized safeRoute(): the hot path of collective lowering.
     * Returns an invalid (empty) ref when the destination is
     * unreachable. The route lives in the current route epoch's
     * storage. Thread-safe; a hit takes no lock (see live_).
     */
    RouteRef safeRouteRef(DieId src, DieId dst,
                          RoutePolicy policy = RoutePolicy::XY) const;

    /// Single-link route (broadcast trees, multicast branches). Link
    /// routes depend only on the topology and live as long as the
    /// router.
    RouteRef linkRoute(LinkId link) const;

    /**
     * Candidate routes for the traffic optimizer: XY, YX and one-bend
     * detours through neighbours of the source. Deduplicated; all usable
     * under the fault map.
     */
    std::vector<Route> candidateRoutes(DieId src, DieId dst) const;

    /// Memoized candidateRoutes(), stored like safeRouteRef()'s routes;
    /// the span lives as long as the current epoch's storage.
    std::span<const RouteRef> candidateRouteRefs(DieId src,
                                                 DieId dst) const;

    /// Stores an ad-hoc route (tests, benches, hand-built flows) in
    /// the current epoch's storage and returns its handle.
    RouteRef intern(Route route) const;

    /**
     * The current route epoch's storage. A cache that keeps
     * flows routed in this epoch (the stream plans) holds one
     * of these per entry, so the epoch's routes outlive a fault swap
     * for as long as any such entry does.
     */
    std::shared_ptr<const RouteEpoch> routeEpoch() const;

    /// True if every link on the route is usable under the fault map.
    bool routeUsable(const Route &route) const;

    const hw::MeshTopology &topology() const { return topo_; }

    /**
     * Starts a new route epoch: the router lets go of the current
     * epoch's storage, which is freed once no cached entry holds it
     * either, and the next lookup routes afresh under the fault map.
     * The owner calls it whenever the fault map changes (the cost
     * model's fault listener does); no lookup may run meanwhile.
     */
    void newEpoch() const;

    /// Epochs whose route storage is still alive (held by the router
    /// or by cached entries).
    int liveEpochs() const;

    /// Counters of the memoized lookups (safeRouteRef and
    /// candidateRouteRefs) over the current epoch's storage.
    common::CacheStats poolStats() const;

  private:
    bool linkUsable(LinkId link) const;

    /// Appends the dimension-ordered route's links to `links`.
    void appendRoute(DieId src, DieId dst, RoutePolicy policy,
                     std::vector<LinkId> &links) const;

    /// The current epoch's storage, started on the first lookup after
    /// construction or newEpoch(). Caller must hold mutex_ exclusively.
    RouteEpoch &currentLocked() const;

    const hw::MeshTopology &topo_;
    const hw::FaultMap *faults_;

    /// Guards epoch_ and appends to the storage it points to: misses
    /// and interning append under the exclusive lock. Storage is
    /// append-only with stable addresses, so handed-out refs never
    /// move.
    mutable std::shared_mutex mutex_;
    mutable std::shared_ptr<RouteEpoch> epoch_;
    /// epoch_ published for lock-free hits: a hit is an acquire load
    /// of this, of its source's row and of the slot, all filled under
    /// the exclusive lock and stored with release. newEpoch() clears
    /// it before releasing the storage.
    mutable std::atomic<const RouteEpoch *> live_{nullptr};
    /// Every epoch started, for liveEpochs() (pruned as they expire).
    mutable std::vector<std::weak_ptr<const RouteEpoch>> epochs_;
    /// One route per link, built on the first linkRoute().
    mutable std::once_flag link_routes_once_;
    mutable std::vector<Route> link_routes_;
    mutable std::atomic<long> pool_hits_{0};
    mutable std::atomic<long> pool_misses_{0};
};

}  // namespace temp::net
