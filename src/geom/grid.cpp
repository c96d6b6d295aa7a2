#include "geom/grid.h"

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
    if (listener_)
        listener_->onCellVacated(q, c);
    return c;
}

Coord
OccupancyGrid::relocateImpl(QubitId q, const Coord &to)
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
    return from;
}

void
OccupancyGrid::relocate(QubitId q, const Coord &to)
{
    const Coord from = relocateImpl(q, to);
    if (listener_) {
        listener_->onCellVacated(q, from);
        listener_->onCellOccupied(q, to);
    }
}

std::optional<Coord>
OccupancyGrid::nearestEmpty(const Coord &target) const
{
    return empties_.nearestEmpty(target);
}

std::optional<Coord>
OccupancyGrid::nearestEmptyInRow(std::int32_t row,
                                 std::int32_t target_col) const
{
    return empties_.nearestEmptyInRow(row, target_col);
}

std::int32_t
OccupancyGrid::makeRoomAt(const Coord &dest)
{
    LSQCA_REQUIRE(contains(dest), "makeRoomAt target out of range");
    if (isEmptyCell(dest))
        return 0;
    const auto hole = nearestEmpty(dest);
    LSQCA_REQUIRE(hole.has_value(), "makeRoomAt on a full grid");
    Coord cur = *hole;
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
        const QubitId occupant = at(next);
        if (occupant != kNoQubit) {
            relocateImpl(occupant, cur);
            if (listener) {
                listener->onCellVacated(occupant, next);
                listener->onCellOccupied(occupant, cur);
            }
        }
        cur = next;
        ++steps;
    }
    return steps;
}

std::vector<Coord>
OccupancyGrid::emptyCells() const
{
    return empties_.emptyCells();
}

} // namespace lsqca
