#include "net/route.hpp"

#include <algorithm>
#include <deque>
#include <mutex>

#include "common/logging.hpp"

namespace temp::net {

namespace {

/// The stored value of a slot whose destination is unreachable (an
/// unfilled slot holds null).
const Route kUnreachable;

}  // namespace

/// One route epoch's routes and lookup table. Routes are append-only:
/// deques never move their elements, so every RouteRef and candidate
/// span handed out stays valid for the storage's lifetime. The table
/// is one dense (src, dst) array of slots, allocated with the epoch
/// (24 bytes a pair: 24 KiB on a 32-die wafer); a filled slot never
/// changes.
struct RouteEpoch
{
    /// The memoized lookups of one (src, dst) pair.
    struct Slot
    {
        /// safeRouteRef() per RoutePolicy (XY, YX); kUnreachable when
        /// the destination is unreachable.
        std::atomic<const Route *> safe[2];
        /// candidateRouteRefs().
        std::atomic<const std::vector<RouteRef> *> candidates;
    };

    explicit RouteEpoch(int die_count)
        : dies(die_count),
          slots(std::make_unique<Slot[]>(static_cast<std::size_t>(dies) *
                                         static_cast<std::size_t>(dies))),
          bytes(static_cast<long>(sizeof(Slot)) * dies * dies)
    {
    }

    RouteRef add(Route route)
    {
        bytes += static_cast<long>(sizeof(Route) +
                                   route.links.size() * sizeof(LinkId));
        routes.push_back(std::move(route));
        return RouteRef(&routes.back());
    }

    bool contains(DieId src, DieId dst) const
    {
        return static_cast<unsigned>(src) < static_cast<unsigned>(dies) &&
               static_cast<unsigned>(dst) < static_cast<unsigned>(dies);
    }

    /// The filled-or-empty slot of (src, dst), or null when the pair is
    /// out of range. Reading it is lock-free; filling it needs the
    /// router's lock held exclusively.
    Slot *find(DieId src, DieId dst) const
    {
        if (!contains(src, dst))
            return nullptr;
        return &slots[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(dies) +
                      static_cast<std::size_t>(dst)];
    }

    /// The slot of (src, dst). Caller holds the router's lock
    /// exclusively.
    Slot &slotLocked(DieId src, DieId dst)
    {
        Slot *slot = find(src, dst);
        if (slot == nullptr)
            panic("Router: route %d -> %d outside a %d-die fabric", src,
                  dst, dies);
        return *slot;
    }

    const int dies;
    std::unique_ptr<Slot[]> slots;  ///< dies x dies, row-major by src
    std::deque<Route> routes;
    std::deque<std::vector<RouteRef>> candidate_lists;
    long entries = 0;  ///< filled slots (safe routes + candidate lists)
    long bytes = 0;    ///< estimate of slots + routes + candidate lists
};

Router::Router(const hw::MeshTopology &topo, const hw::FaultMap *faults)
    : topo_(topo), faults_(faults)
{
}

bool
Router::linkUsable(LinkId link) const
{
    return faults_ == nullptr || !faults_->linkFailed(link);
}

Route
Router::route(DieId src, DieId dst, RoutePolicy policy) const
{
    Route out;
    out.src = src;
    out.dst = dst;
    if (src == dst)
        return out;

    hw::DieCoord cur = topo_.coordOf(src);
    const hw::DieCoord goal = topo_.coordOf(dst);

    auto step_col = [&]() {
        while (cur.col != goal.col) {
            const int next_col = cur.col + (goal.col > cur.col ? 1 : -1);
            const DieId from = topo_.dieAt(cur.row, cur.col);
            const DieId to = topo_.dieAt(cur.row, next_col);
            out.links.push_back(topo_.linkId(from, to));
            cur.col = next_col;
        }
    };
    auto step_row = [&]() {
        while (cur.row != goal.row) {
            const int next_row = cur.row + (goal.row > cur.row ? 1 : -1);
            const DieId from = topo_.dieAt(cur.row, cur.col);
            const DieId to = topo_.dieAt(next_row, cur.col);
            out.links.push_back(topo_.linkId(from, to));
            cur.row = next_row;
        }
    };

    if (policy == RoutePolicy::XY) {
        step_col();
        step_row();
    } else {
        step_row();
        step_col();
    }
    return out;
}

Route
Router::routeVia(DieId src, DieId waypoint, DieId dst, RoutePolicy first,
                 RoutePolicy second) const
{
    const Route a = route(src, waypoint, first);
    const Route b = route(waypoint, dst, second);
    Route out;
    out.src = src;
    out.dst = dst;
    out.links = a.links;
    out.links.insert(out.links.end(), b.links.begin(), b.links.end());
    return out;
}

std::optional<Route>
Router::shortestPath(DieId src, DieId dst) const
{
    Route out;
    out.src = src;
    out.dst = dst;
    if (src == dst)
        return out;

    std::vector<DieId> prev(topo_.dieCount(), -1);
    std::vector<bool> seen(topo_.dieCount(), false);
    std::deque<DieId> queue;
    queue.push_back(src);
    seen[src] = true;

    while (!queue.empty()) {
        const DieId cur = queue.front();
        queue.pop_front();
        if (cur == dst)
            break;
        for (DieId next : topo_.neighbors(cur)) {
            if (seen[next] || !linkUsable(topo_.linkId(cur, next)))
                continue;
            seen[next] = true;
            prev[next] = cur;
            queue.push_back(next);
        }
    }
    if (!seen[dst])
        return std::nullopt;

    std::vector<DieId> path;
    for (DieId cur = dst; cur != src; cur = prev[cur])
        path.push_back(cur);
    path.push_back(src);
    std::reverse(path.begin(), path.end());
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        out.links.push_back(topo_.linkId(path[i], path[i + 1]));
    return out;
}

std::optional<Route>
Router::safeRoute(DieId src, DieId dst, RoutePolicy policy) const
{
    const Route direct = route(src, dst, policy);
    if (routeUsable(direct))
        return direct;
    const Route alt =
        route(src, dst,
              policy == RoutePolicy::XY ? RoutePolicy::YX : RoutePolicy::XY);
    if (routeUsable(alt))
        return alt;
    return shortestPath(src, dst);
}

std::vector<Route>
Router::candidateRoutes(DieId src, DieId dst) const
{
    std::vector<Route> candidates;

    // First-occurrence dedup over a flat vector: the candidate set is
    // tiny (XY + YX + a handful of one-bend detours), so a linear scan
    // beats the former std::set<std::vector<LinkId>>'s node allocation
    // per probe while preserving the insertion order the reroute
    // tie-breaking depends on.
    auto consider = [&](const Route &r) {
        if (r.src != src || r.dst != dst)
            return;
        if (!routeUsable(r))
            return;
        const bool seen =
            std::any_of(candidates.begin(), candidates.end(),
                        [&](const Route &c) { return c.links == r.links; });
        if (!seen)
            candidates.push_back(r);
    };

    consider(route(src, dst, RoutePolicy::XY));
    consider(route(src, dst, RoutePolicy::YX));
    // One-bend detours: step to a neighbour first, then route onward with
    // both dimension orders. This is the "idle neighbouring links" escape
    // hatch the Fig. 11 optimizer exploits.
    for (DieId mid : topo_.neighbors(src)) {
        if (mid == dst)
            continue;
        if (!linkUsable(topo_.linkId(src, mid)))
            continue;
        for (RoutePolicy second : {RoutePolicy::XY, RoutePolicy::YX}) {
            Route detour = routeVia(src, mid, dst, RoutePolicy::XY, second);
            consider(detour);
        }
    }
    if (candidates.empty()) {
        // Fabric has faults on all deterministic paths; fall back to BFS.
        if (auto bfs = shortestPath(src, dst))
            candidates.push_back(*bfs);
    }
    return candidates;
}

bool
Router::routeUsable(const Route &route) const
{
    return std::all_of(route.links.begin(), route.links.end(),
                       [this](LinkId l) { return linkUsable(l); });
}

RouteEpoch &
Router::currentLocked() const
{
    if (epoch_ == nullptr) {
        epoch_ = std::make_shared<RouteEpoch>(topo_.dieCount());
        std::erase_if(epochs_, [](const std::weak_ptr<const RouteEpoch> &e) {
            return e.expired();
        });
        epochs_.push_back(epoch_);
        live_.store(epoch_.get(), std::memory_order_release);
    }
    return *epoch_;
}

RouteRef
Router::safeRouteRef(DieId src, DieId dst, RoutePolicy policy) const
{
    const int p = policy == RoutePolicy::YX ? 1 : 0;
    if (const RouteEpoch *epoch = live_.load(std::memory_order_acquire)) {
        if (const RouteEpoch::Slot *slot = epoch->find(src, dst)) {
            const Route *route =
                slot->safe[p].load(std::memory_order_acquire);
            if (route != nullptr) {
                pool_hits_.fetch_add(1, std::memory_order_relaxed);
                return route == &kUnreachable ? RouteRef()
                                              : RouteRef(route);
            }
        }
    }
    pool_misses_.fetch_add(1, std::memory_order_relaxed);
    std::optional<Route> found = safeRoute(src, dst, policy);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    RouteEpoch &epoch = currentLocked();
    std::atomic<const Route *> &slot = epoch.slotLocked(src, dst).safe[p];
    const Route *route = slot.load(std::memory_order_relaxed);
    if (route == nullptr) {  // else a racing miss stored it first
        route = found ? &epoch.add(std::move(*found)).get() : &kUnreachable;
        slot.store(route, std::memory_order_release);
        ++epoch.entries;
    }
    return route == &kUnreachable ? RouteRef() : RouteRef(route);
}

RouteRef
Router::linkRoute(LinkId link) const
{
    // Built once, never resized: the refs stay valid for the router's
    // lifetime.
    std::call_once(link_routes_once_, [this] {
        link_routes_.resize(static_cast<std::size_t>(topo_.linkCount()));
        for (LinkId id = 0; id < topo_.linkCount(); ++id) {
            const hw::Link &l = topo_.link(id);
            Route &r = link_routes_[static_cast<std::size_t>(id)];
            r.src = l.src;
            r.dst = l.dst;
            r.links = {id};
        }
    });
    return RouteRef(&link_routes_[static_cast<std::size_t>(link)]);
}

std::span<const RouteRef>
Router::candidateRouteRefs(DieId src, DieId dst) const
{
    if (const RouteEpoch *epoch = live_.load(std::memory_order_acquire)) {
        if (const RouteEpoch::Slot *slot = epoch->find(src, dst)) {
            const std::vector<RouteRef> *refs =
                slot->candidates.load(std::memory_order_acquire);
            if (refs != nullptr) {
                pool_hits_.fetch_add(1, std::memory_order_relaxed);
                return *refs;
            }
        }
    }
    pool_misses_.fetch_add(1, std::memory_order_relaxed);
    std::vector<Route> routes = candidateRoutes(src, dst);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    RouteEpoch &epoch = currentLocked();
    std::atomic<const std::vector<RouteRef> *> &slot =
        epoch.slotLocked(src, dst).candidates;
    if (const std::vector<RouteRef> *refs =
            slot.load(std::memory_order_relaxed))
        return *refs;  // a racing miss stored it first
    std::vector<RouteRef> &refs = epoch.candidate_lists.emplace_back();
    refs.reserve(routes.size());
    for (Route &r : routes)
        refs.push_back(epoch.add(std::move(r)));
    epoch.bytes += static_cast<long>(sizeof(refs) +
                                     refs.size() * sizeof(RouteRef));
    slot.store(&refs, std::memory_order_release);
    ++epoch.entries;
    return refs;
}

RouteRef
Router::intern(Route route) const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return currentLocked().add(std::move(route));
}

std::shared_ptr<const RouteEpoch>
Router::routeEpoch() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    currentLocked();
    return epoch_;
}

void
Router::newEpoch() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    live_.store(nullptr, std::memory_order_release);
    epoch_.reset();
}

int
Router::liveEpochs() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int>(std::count_if(
        epochs_.begin(), epochs_.end(),
        [](const std::weak_ptr<const RouteEpoch> &e) {
            return !e.expired();
        }));
}

common::CacheStats
Router::poolStats() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    common::CacheStats stats;
    if (epoch_ != nullptr) {
        stats.entries = epoch_->entries;
        stats.bytes_est = epoch_->bytes;
    }
    stats.hits = pool_hits_.load();
    stats.misses = pool_misses_.load();
    return stats;
}

}  // namespace temp::net
