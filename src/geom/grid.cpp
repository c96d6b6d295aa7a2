#include "geom/grid.h"

#include <tuple>

namespace lsqca {

OccupancyGrid::OccupancyGrid(std::int32_t rows, std::int32_t cols)
    : rows_(rows),
      cols_(cols),
      cells_(rows > 0 && cols > 0
                 ? static_cast<std::size_t>(rows) *
                       static_cast<std::size_t>(cols)
                 : 0,
             kNoQubit),
      empties_(rows, cols) // validates rows, cols > 0
{
}

void
OccupancyGrid::place(QubitId q, const Coord &c)
{
    LSQCA_REQUIRE(q != kNoQubit, "cannot place the sentinel qubit");
    Coord &slot = positionSlot(q);
    LSQCA_REQUIRE(slot.row < 0, "qubit already placed");
    auto &cell = cells_[index(c)];
    LSQCA_REQUIRE(cell == kNoQubit, "cell already occupied");
    cell = q;
    slot = c;
    empties_.onOccupy(c);
    ++occupied_;
    ++version_;
    ++emptySetVersion_;
    if (listener_)
        listener_->onCellOccupied(q, c);
}

Coord
OccupancyGrid::remove(QubitId q)
{
    Coord &slot = positionSlot(q);
    LSQCA_REQUIRE(slot.row >= 0, "qubit not placed");
    const Coord c = slot;
    cells_[index(c)] = kNoQubit;
    slot = Coord{-1, -1};
    empties_.onVacate(c);
    --occupied_;
    ++version_;
    ++emptySetVersion_;
    if (listener_)
        listener_->onCellVacated(q, c);
    return c;
}

void
OccupancyGrid::relocate(QubitId q, const Coord &to)
{
    auto &dest = cells_[index(to)];
    LSQCA_REQUIRE(dest == kNoQubit, "relocate destination occupied");
    Coord &slot = positionSlot(q);
    LSQCA_REQUIRE(slot.row >= 0, "qubit not placed");
    const Coord from = slot;
    cells_[index(from)] = kNoQubit;
    dest = q;
    empties_.onVacate(from);
    empties_.onOccupy(to);
    slot = to;
    ++version_;
    ++emptySetVersion_;
    if (listener_) {
        listener_->onCellVacated(q, from);
        listener_->onCellOccupied(q, to);
    }
}

std::optional<Coord>
OccupancyGrid::nearestEmptyInRow(std::int32_t row,
                                 std::int32_t target_col) const
{
    return empties_.nearestEmptyInRow(row, target_col);
}

std::int32_t
OccupancyGrid::shiftPath(Coord cur, const Coord &dest)
{
    std::int32_t steps = 0;
    // The listener check is hoisted out of the walk: the virtual
    // notification call could touch anything, so keeping it inside
    // forces a listener_ reload per shifted occupant and cost the
    // unobserved hole walk ~13% (bank/point/storeCost kernel).
    CellListener *const listener = listener_;
    while (!(cur == dest)) {
        Coord next = cur;
        if (cur.row != dest.row)
            next.row += dest.row > cur.row ? 1 : -1;
        else
            next.col += dest.col > cur.col ? 1 : -1;
        // Every cell past the hole is strictly nearer to dest than the
        // hole, which is the nearest empty cell: it is occupied.
        const QubitId occupant = cells_[index(next)];
        LSQCA_ASSERT(occupant != kNoQubit, "hole walk crossed a hole");
        cells_[index(cur)] = occupant;
        positions_[static_cast<std::size_t>(occupant)] = cur;
        if (listener) {
            listener->onCellVacated(occupant, next);
            listener->onCellOccupied(occupant, cur);
        }
        cur = next;
        ++steps;
    }
    cells_[index(dest)] = kNoQubit;
    return steps;
}

std::int32_t
OccupancyGrid::makeRoomAt(const Coord &dest)
{
    LSQCA_REQUIRE(contains(dest), "makeRoomAt target out of range");
    if (isEmptyCell(dest))
        return 0;
    const auto hole = nearestEmpty(dest);
    LSQCA_REQUIRE(hole.has_value(), "makeRoomAt on a full grid");
    // Each intermediate cell is vacated and refilled, so the index only
    // sees the endpoints: the hole fills, dest empties.
    const std::int32_t steps = shiftPath(*hole, dest);
    empties_.onOccupy(*hole);
    empties_.onVacate(dest);
    ++version_;
    ++emptySetVersion_;
    return steps;
}

std::int32_t
OccupancyGrid::moveInto(QubitId q, const Coord &dest)
{
    const Coord src = locate(q);
    LSQCA_REQUIRE(contains(dest), "moveInto target out of range");
    if (src == dest) {
        if (listener_) {
            listener_->onCellVacated(q, dest);
            listener_->onCellOccupied(q, dest);
        }
        return 0;
    }
    // Once q leaves src, makeRoomAt(dest) walks from the nearer of src
    // and today's nearest hole (ties by row, then column). When that is
    // src, the walk only rotates q and the path's occupants.
    const auto hole = nearestEmpty(dest);
    const auto key = [&dest](const Coord &c) {
        return std::tuple{manhattan(c, dest), c.row, c.col};
    };
    if (hole && !(key(src) < key(*hole))) {
        remove(q);
        const std::int32_t steps = makeRoomAt(dest);
        place(q, dest);
        return steps;
    }
    cells_[index(src)] = kNoQubit;
    if (listener_)
        listener_->onCellVacated(q, src);
    const std::int32_t steps = shiftPath(src, dest);
    cells_[index(dest)] = q;
    positions_[static_cast<std::size_t>(q)] = dest;
    ++version_;
    if (listener_)
        listener_->onCellOccupied(q, dest);
    return steps;
}

std::vector<Coord>
OccupancyGrid::emptyCells() const
{
    return empties_.emptyCells();
}

} // namespace lsqca
