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
OccupancyGrid::shiftPath(const Coord &hole, const Coord &dest)
{
    // A monotone path between two in-range cells stays in range, so the
    // endpoints are the only cells to check; the walk itself runs over
    // raw flat indices.
    LSQCA_ASSERT(contains(hole) && contains(dest),
                 "grid coordinate out of range");
    QubitId *const cells = cells_.data();
    Coord *const positions = positions_.data();
    // The listener check is hoisted out of the walk: the virtual
    // notification call could touch anything, so keeping it inside
    // forces a listener_ reload per shifted occupant and cost the
    // unobserved hole walk ~13% (bank/point/storeCost kernel).
    CellListener *const listener = listener_;
    Coord cur = hole;
    const std::ptrdiff_t cols = cols_;
    std::ptrdiff_t at = hole.row * cols + hole.col;
    // Move the occupant of (next, at + stride) into the hole at cur.
    const auto shift = [&](const Coord &next, std::ptrdiff_t stride) {
        // Every cell past the hole is strictly nearer to dest than the
        // hole, which is the nearest empty cell: it is occupied.
        const QubitId occupant = cells[at + stride];
        LSQCA_ASSERT(occupant != kNoQubit, "hole walk crossed a hole");
        cells[at] = occupant;
        positions[occupant] = cur;
        if (listener) {
            listener->onCellVacated(occupant, next);
            listener->onCellOccupied(occupant, cur);
        }
        cur = next;
        at += stride;
    };
    // Rows first, along the hole's column ...
    const std::int32_t dr = dest.row > hole.row ? 1 : -1;
    while (cur.row != dest.row)
        shift({cur.row + dr, cur.col}, dr * cols);
    // ... then along dest's row.
    const std::int32_t dc = dest.col > hole.col ? 1 : -1;
    while (cur.col != dest.col)
        shift({cur.row, cur.col + dc}, dc);
    cells[at] = kNoQubit;
    return manhattan(hole, dest);
}

std::int32_t
OccupancyGrid::makeRoomAt(const Coord &dest)
{
    LSQCA_REQUIRE(contains(dest), "makeRoomAt target out of range");
    if (isEmptyCell(dest))
        return 0;
    const auto hole = nearestEmpty(dest);
    LSQCA_REQUIRE(hole.has_value(), "makeRoomAt on a full grid");
    return makeRoomAt(dest, *hole);
}

std::int32_t
OccupancyGrid::makeRoomAt(const Coord &dest, const Coord &hole)
{
    LSQCA_REQUIRE(contains(dest), "makeRoomAt target out of range");
    LSQCA_REQUIRE(contains(hole) && isEmptyCell(hole),
                  "makeRoomAt hole is not an empty cell");
    if (hole == dest)
        return 0;
    // Each intermediate cell is vacated and refilled, so the index only
    // sees the endpoints: the hole fills, dest empties.
    const std::int32_t steps = shiftPath(hole, dest);
    empties_.onOccupy(hole);
    empties_.onVacate(dest);
    ++version_;
    ++emptySetVersion_;
    return steps;
}

std::int32_t
OccupancyGrid::moveInto(QubitId q, const Coord &src, const Coord &dest)
{
    LSQCA_REQUIRE(contains(dest), "moveInto target out of range");
    LSQCA_ASSERT(cells_[index(src)] == q,
                 "moveInto source does not hold the qubit");
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
        // The freed src does not beat *hole, so *hole is still the
        // nearest once q is removed.
        remove(q);
        const std::int32_t steps = makeRoomAt(dest, *hole);
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
