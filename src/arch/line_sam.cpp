#include "arch/line_sam.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace lsqca {
namespace {

/** Tightest L x L or L x (L+1) data grid holding @p capacity cells. */
std::pair<std::int32_t, std::int32_t>
dataGridFor(std::int32_t capacity)
{
    auto side = static_cast<std::int32_t>(
        std::floor(std::sqrt(static_cast<double>(capacity))));
    if (static_cast<std::int64_t>(side) * side >= capacity)
        return {side, side};
    if (static_cast<std::int64_t>(side) * (side + 1) >= capacity)
        return {side, side + 1};
    return {side + 1, side + 1};
}

} // namespace

LineSamBank::LineSamBank(std::int32_t capacity, const Latencies &lat)
    : capacity_(capacity), lat_(lat),
      grid_(dataGridFor(capacity).first, dataGridFor(capacity).second)
{
    LSQCA_REQUIRE(capacity >= 1, "line-SAM bank needs capacity >= 1");
}

void
LineSamBank::placeInitial(const std::vector<QubitId> &vars)
{
    LSQCA_REQUIRE(static_cast<std::int32_t>(vars.size()) <= capacity_,
                  "line-SAM bank over capacity");
    std::size_t next = 0;
    for (std::int32_t r = 0; r < grid_.rows() && next < vars.size(); ++r) {
        for (std::int32_t c = 0; c < grid_.cols() && next < vars.size();
             ++c) {
            grid_.place(vars[next], {r, c});
            homeSlot(vars[next]) = Coord{r, c};
            ++next;
        }
    }
    LSQCA_ASSERT(next == vars.size(), "initial placement did not fit");
}

Coord &
LineSamBank::homeSlot(QubitId q)
{
    LSQCA_ASSERT(q >= 0, "invalid qubit id");
    const auto idx = static_cast<std::size_t>(q);
    if (idx >= homes_.size())
        homes_.resize(idx + 1, Coord{-1, -1});
    return homes_[idx];
}

std::int64_t
LineSamBank::alignCostToRow(std::int32_t row) const
{
    // Gap positions adjacent to row r are g == r (above) and g == r + 1
    // (below); each gap shift is one whole-row move (one beat).
    const std::int64_t above = std::abs(gap_ - row);
    const std::int64_t below = std::abs(gap_ - (row + 1));
    return std::min(above, below) * lat_.move;
}

std::int32_t
LineSamBank::nearerGapSide(std::int32_t row) const
{
    return std::abs(gap_ - row) <= std::abs(gap_ - (row + 1)) ? row
                                                              : row + 1;
}

std::int64_t
LineSamBank::alignCost(QubitId q) const
{
    return alignCostToRow(grid_.locate(q).row);
}

std::int64_t
LineSamBank::commitAlign(QubitId q)
{
    const std::int32_t row = grid_.locate(q).row;
    const std::int64_t cost = alignCostToRow(row);
    gap_ = nearerGapSide(row);
    return cost;
}

std::int64_t
LineSamBank::loadCost(QubitId q) const
{
    // Align + step into the gap row + long-range slide into the CR.
    return alignCost(q) + lat_.move + lat_.longMove;
}

std::int64_t
LineSamBank::commitLoad(QubitId q)
{
    const std::int64_t cost = commitAlign(q) + lat_.move + lat_.longMove;
    grid_.remove(q);
    return cost;
}

bool
LineSamBank::canDirectSurgery(QubitId a, QubitId b) const
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    return std::abs(ra - rb) <= 1;
}

std::int64_t
LineSamBank::directSurgeryCost(QubitId a, QubitId b) const
{
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    if (ra == rb)
        return alignCostToRow(ra);
    // Adjacent rows: the gap slots exactly between them.
    const std::int32_t between = std::max(ra, rb);
    return std::abs(gap_ - between) * lat_.move;
}

std::int64_t
LineSamBank::commitDirectSurgery(QubitId a, QubitId b)
{
    const std::int64_t cost = directSurgeryCost(a, b);
    const std::int32_t ra = grid_.locate(a).row;
    const std::int32_t rb = grid_.locate(b).row;
    gap_ = ra == rb ? nearerGapSide(ra) : std::max(ra, rb);
    return cost;
}

LineSamBank::StorePlan
LineSamBank::storePlan(QubitId q, bool locality) const
{
    if (!locality) {
        LSQCA_ASSERT(q >= 0 &&
                         static_cast<std::size_t>(q) < homes_.size() &&
                         homes_[static_cast<std::size_t>(q)].row >= 0,
                     "qubit has no home cell in bank");
        Coord dest = homes_[static_cast<std::size_t>(q)];
        if (!grid_.isEmptyCell(dest)) {
            const auto near = grid_.nearestEmpty(dest);
            LSQCA_ASSERT(near.has_value(), "line-SAM bank is full");
            dest = *near;
        }
        return {dest, dest, alignCostToRow(dest.row) / lat_.move};
    }
    // Locality-aware: drop into a row adjacent to the current gap
    // (the hot line); the in-flight qubit's hole slides there via
    // the makeRoomAt insertion, so no gap shifts are needed.
    const std::int32_t row = gap_ < grid_.rows() ? gap_ : grid_.rows() - 1;
    const auto hole = grid_.nearestEmpty({row, 0});
    LSQCA_ASSERT(hole.has_value(), "line-SAM bank is full");
    // hole is also the hole makeRoomAt(dest) would pick, so the commit
    // needs no second query. dest = {row, hole.col} lies on the straight
    // path from hole to {row, 0}, so d(hole, {row, 0}) = d(hole, dest) +
    // d(dest, {row, 0}), while any empty e has d(e, {row, 0}) <= d(e,
    // dest) + d(dest, {row, 0}) (triangle inequality). An e nearer to
    // dest than hole would then be nearer to {row, 0} too. An e tied
    // with hole at dest is no farther from {row, 0} than hole, where
    // hole won: so e ties there and comes after hole in row-major
    // order, the same tie-break hole then wins at dest. (When hole is
    // in row itself, dest == hole and nothing walks.)
    return {Coord{row, hole->col}, *hole, 0};
}

std::int64_t
LineSamBank::storeCostOf(const StorePlan &plan) const
{
    // Slide from the CR along the gap row, then drop into the target
    // row (after any gap shifts).
    return plan.shifts * lat_.move + lat_.longMove + lat_.move;
}

std::int64_t
LineSamBank::storeCost(QubitId q, bool locality) const
{
    return storeCostOf(storePlan(q, locality));
}

std::int64_t
LineSamBank::commitStore(QubitId q, bool locality)
{
    const StorePlan plan = storePlan(q, locality);
    grid_.makeRoomAt(plan.dest, plan.hole);
    grid_.place(q, plan.dest);
    Coord &home = homeSlot(q);
    if (home.row < 0)
        home = plan.dest;
    gap_ = nearerGapSide(plan.dest.row);
    return storeCostOf(plan);
}

} // namespace lsqca
