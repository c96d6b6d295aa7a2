#include "arch/point_sam.h"

#include <cmath>

#include "common/error.h"

namespace lsqca {
namespace {

std::int32_t
gridRowsFor(std::int32_t capacity)
{
    return static_cast<std::int32_t>(
        std::ceil(std::sqrt(static_cast<double>(capacity + 1))));
}

std::int32_t
gridColsFor(std::int32_t capacity, std::int32_t rows)
{
    return static_cast<std::int32_t>((capacity + 1 + rows - 1) / rows);
}

} // namespace

PointSamBank::PointSamBank(std::int32_t capacity, const Latencies &lat)
    : capacity_(capacity), lat_(lat),
      grid_(gridRowsFor(capacity), gridColsFor(capacity,
                                               gridRowsFor(capacity)))
{
    LSQCA_REQUIRE(capacity >= 1, "point-SAM bank needs capacity >= 1");
    port_ = {grid_.rows() / 2, 0};
    scan_ = port_;
}

void
PointSamBank::placeInitial(const std::vector<QubitId> &vars)
{
    LSQCA_REQUIRE(static_cast<std::int32_t>(vars.size()) <= capacity_,
                  "point-SAM bank over capacity");
    std::size_t next = 0;
    for (std::int32_t r = 0; r < grid_.rows() && next < vars.size(); ++r) {
        for (std::int32_t c = 0; c < grid_.cols() && next < vars.size();
             ++c) {
            const Coord cell{r, c};
            if (cell == port_)
                continue; // the scan cell's initial position stays empty
            grid_.place(vars[next], cell);
            homeSlot(vars[next]) = cell;
            ++next;
        }
    }
    LSQCA_ASSERT(next == vars.size(), "initial placement did not fit");
}

Coord &
PointSamBank::homeSlot(QubitId q)
{
    LSQCA_ASSERT(q >= 0, "invalid qubit id");
    const auto idx = static_cast<std::size_t>(q);
    if (idx >= homes_.size())
        homes_.resize(idx + 1, Coord{-1, -1});
    return homes_[idx];
}

std::int64_t
PointSamBank::pickCost(const Coord &from, const Coord &to) const
{
    const std::int32_t dr = std::abs(from.row - to.row);
    const std::int32_t dc = std::abs(from.col - to.col);
    const std::int32_t diag = std::min(dr, dc);
    const std::int32_t straight = std::max(dr, dc) - diag;
    const bool two_empty = grid_.emptyCount() >= 2;
    const std::int64_t diag_cost =
        two_empty ? lat_.pickDiagonal2 : lat_.pickDiagonal1;
    const std::int64_t straight_cost =
        two_empty ? lat_.pickStraight2 : lat_.pickStraight1;
    return diag * diag_cost + straight * straight_cost;
}

std::int64_t
PointSamBank::seekCostAt(const Coord &pos) const
{
    const std::int64_t dist = manhattan(scan_, pos);
    return std::max<std::int64_t>(0, dist - 1) * lat_.move;
}

std::int64_t
PointSamBank::fetchCostAt(const Coord &pos) const
{
    return seekCostAt(pos) + pickCost(pos, port_);
}

std::int64_t
PointSamBank::seekCost(QubitId q) const
{
    return seekCostAt(grid_.locate(q));
}

std::int64_t
PointSamBank::commitSeek(QubitId q)
{
    const Coord pos = grid_.locate(q);
    const std::int64_t cost = seekCostAt(pos);
    scan_ = pos;
    return cost;
}

std::int64_t
PointSamBank::loadCost(QubitId q) const
{
    return fetchCostAt(grid_.locate(q)) + lat_.move;
}

std::int64_t
PointSamBank::commitLoad(QubitId q)
{
    const std::int64_t cost = fetchCostAt(grid_.locate(q)) + lat_.move;
    grid_.remove(q);
    scan_ = port_;
    return cost;
}

Coord
PointSamBank::homeOrNearest(QubitId q) const
{
    LSQCA_ASSERT(q >= 0 &&
                     static_cast<std::size_t>(q) < homes_.size() &&
                     homes_[static_cast<std::size_t>(q)].row >= 0,
                 "qubit has no home cell in bank");
    const Coord home = homes_[static_cast<std::size_t>(q)];
    if (grid_.isEmptyCell(home))
        return home;
    const auto near = grid_.nearestEmpty(home);
    LSQCA_ASSERT(near.has_value(), "point-SAM bank is full");
    return *near;
}

Coord
PointSamBank::storeDestination(QubitId q, bool locality) const
{
    if (!locality)
        return homeOrNearest(q);
    // Locality-aware: the newest qubit lands right at the port; older
    // occupants slide one step outward (makeRoomAt at commit).
    return port_;
}

std::int64_t
PointSamBank::storeCostTo(const Coord &dest) const
{
    return lat_.move + pickCost(port_, dest);
}

std::int64_t
PointSamBank::storeCost(QubitId q, bool locality) const
{
    return storeCostTo(storeDestination(q, locality));
}

std::int64_t
PointSamBank::commitStore(QubitId q, bool locality)
{
    const Coord dest = storeDestination(q, locality);
    const std::int64_t cost = storeCostTo(dest);
    grid_.makeRoomAt(dest);
    grid_.place(q, dest);
    Coord &home = homeSlot(q);
    if (home.row < 0)
        home = dest;
    scan_ = dest; // the escorting hole ends next to the stored cell
    return cost;
}

std::int64_t
PointSamBank::fetchToPortCost(QubitId q) const
{
    return fetchCostAt(grid_.locate(q));
}

std::int64_t
PointSamBank::commitFetchToPort(QubitId q)
{
    // One position lookup prices the fetch and tells moveInto where q
    // sits.
    const Coord pos = grid_.locate(q);
    const std::int64_t cost = fetchCostAt(pos);
    // The fetched qubit takes the port cell; the previous occupant (and
    // the chain behind it) slides one step toward the freed cell — the
    // LRU-like stack that keeps the hot working set port-adjacent.
    // Nearly always the freed cell is the hole nearest the port, so the
    // move is a rotation that leaves the empty set alone.
    grid_.moveInto(q, pos, port_);
    scan_ = port_;
    return cost;
}

} // namespace lsqca
