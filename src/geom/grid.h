#ifndef LSQCA_GEOM_GRID_H
#define LSQCA_GEOM_GRID_H

/**
 * @file
 * Occupancy grid for a SAM bank: which cell holds which logical qubit,
 * where the empty (auxiliary) cells are, and nearest-empty queries used by
 * the locality-aware store policy.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.h"
#include "geom/coord.h"
#include "geom/occupancy_index.h"

namespace lsqca {

/** Identifier of a logical qubit (program-level variable index). */
using QubitId = std::int32_t;

/** Sentinel for "no qubit". */
inline constexpr QubitId kNoQubit = -1;

/**
 * Mutation hook for an OccupancyGrid: every place/remove/relocate is
 * reported as the cell-level occupy/vacate pair it is (a relocate
 * vacates the source and occupies the destination, so the makeRoomAt
 * hole walk reports each shifted occupant). Detached by default; the
 * simulator attaches one per bank only while observers are present, so
 * the unobserved path pays a single never-taken branch per mutation.
 * Events fire mid-walk, before the grid's index is brought up to date:
 * a listener records, it does not query the grid.
 */
class CellListener
{
  public:
    virtual ~CellListener() = default;
    virtual void onCellOccupied(QubitId q, const Coord &c) = 0;
    virtual void onCellVacated(QubitId q, const Coord &c) = 0;
};

/**
 * Dense rows × cols occupancy grid.
 *
 * Cells hold either a QubitId or are empty (auxiliary). The grid offers
 * placement, removal, relocation, and nearest-empty search; it does not
 * know about scan cells or latency — that policy lives in src/arch.
 *
 * Nearest-empty queries are served by an incrementally maintained
 * OccupancyIndex instead of a full-grid scan; results are bit-identical
 * to the scan, including tie-breaking. The index only changes when the
 * set of empty cells does, which emptySetVersion() counts, so the last
 * nearestEmpty answer is memoized on (target, emptySetVersion()). A
 * hole walk that merely rotates occupants (moveInto) leaves the empty
 * set, the index and the memo untouched. A monotonic version() counter
 * bumps on every mutation, rotations included.
 *
 * The memo makes nearestEmpty() a mutating const member: a grid must
 * not be queried from two threads at once (each simulation owns its
 * banks, so none is).
 *
 * The cell and position accessors (contains, at, find, locate and the
 * private index/positionSlot) are defined in this header: the bank cost
 * models call them several times per simulated instruction, and
 * out-of-line bodies kept one real call per lookup even under
 * link-time optimization.
 */
class OccupancyGrid
{
  public:
    /** Create an all-empty grid. @pre rows, cols > 0 */
    OccupancyGrid(std::int32_t rows, std::int32_t cols);

    std::int32_t rows() const { return rows_; }
    std::int32_t cols() const { return cols_; }
    std::int32_t cellCount() const { return rows_ * cols_; }

    /** Whether @p c lies inside the grid. */
    bool contains(const Coord &c) const
    {
        return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
    }

    /** Qubit at cell @p c, or kNoQubit. @pre contains(c) */
    QubitId at(const Coord &c) const { return cells_[index(c)]; }

    bool isEmptyCell(const Coord &c) const { return at(c) == kNoQubit; }

    /** Number of occupied cells. */
    std::int32_t occupiedCount() const { return occupied_; }

    /** Number of empty cells. */
    std::int32_t emptyCount() const { return cellCount() - occupied_; }

    /** Place qubit @p q at empty cell @p c. @pre cell empty, q unplaced */
    void place(QubitId q, const Coord &c);

    /** Remove qubit @p q from the grid; its cell becomes empty. */
    Coord remove(QubitId q);

    /** Move qubit @p q to empty cell @p to. @pre to is empty */
    void relocate(QubitId q, const Coord &to);

    /** Position of qubit @p q, if placed. */
    std::optional<Coord> find(QubitId q) const
    {
        const auto idx = static_cast<std::size_t>(q);
        if (q < 0 || idx >= positions_.size() || positions_[idx].row < 0)
            return std::nullopt;
        return positions_[idx];
    }

    /** Position of qubit @p q. @pre q is placed */
    Coord locate(QubitId q) const
    {
        const auto pos = find(q);
        LSQCA_REQUIRE(pos.has_value(), "qubit not placed in grid");
        return *pos;
    }

    /**
     * Empty cell minimizing manhattan distance to @p target; nullopt
     * when the grid is full.
     *
     * Tie-breaking contract (pinned by tests/geom/grid_test.cpp and the
     * reference-oracle harness): among equal-distance candidates the
     * smallest row wins, and within that row the smallest column — the
     * first candidate a row-major scan with a strict "closer than best"
     * comparison would keep. The bank cost models depend on this order
     * being stable, so it is part of the API, not an implementation
     * detail.
     */
    std::optional<Coord> nearestEmpty(const Coord &target) const
    {
        if (nearest_.emptySetVersion != emptySetVersion_ ||
            !(nearest_.target == target))
            nearest_ = {emptySetVersion_, target,
                        empties_.nearestEmpty(target)};
        return nearest_.hole;
    }

    /**
     * Empty cell in row @p row minimizing |col - target_col|, or nullopt
     * when the row is full. Equal-distance ties break toward the
     * smaller column (same scan-order contract as nearestEmpty).
     */
    std::optional<Coord> nearestEmptyInRow(std::int32_t row,
                                           std::int32_t target_col) const;

    /** All empty cells, row-major order. */
    std::vector<Coord> emptyCells() const;

    /**
     * Vacate cell @p dest by walking the nearest hole to it along a
     * Manhattan path (rows first), shifting each intervening occupant
     * one step toward the old hole — the sliding-puzzle insertion used
     * by locality-aware placement in a near-full memory.
     *
     * Every intermediate cell is vacated and refilled, so the index
     * sees only the endpoints (the hole fills, @p dest empties).
     *
     * @return the number of hole steps (0 when @p dest was empty).
     * @pre the grid has at least one empty cell.
     */
    std::int32_t makeRoomAt(const Coord &dest);

    /**
     * makeRoomAt(dest) for a caller that already knows the hole it
     * would walk: no nearestEmpty query. @p hole must be the cell
     * nearestEmpty(dest) returns (so @p dest itself when it is empty);
     * a line-SAM store gets it from its own placement query (see
     * docs/BANKS.md for why that hole is the nearest one). Layout,
     * steps and cell events equal the one-argument form's.
     * @pre contains(dest); @p hole is an empty cell.
     */
    std::int32_t makeRoomAt(const Coord &dest, const Coord &hole);

    /**
     * Move placed qubit @p q into cell @p dest: the result, the cell
     * events and their order are those of `remove(q); makeRoomAt(dest);
     * place(q, dest)`, without that sequence's index churn.
     *
     *  - @p q already at @p dest: nothing moves (the listener still
     *    sees q vacate and re-occupy @p dest).
     *  - @p q's own cell is the hole makeRoomAt would pick once q left
     *    it (nearest to @p dest under the nearestEmpty tie-break): the
     *    walk rotates q and the occupants on the path, and the set of
     *    empty cells is unchanged — no index update, no memo loss.
     *  - otherwise: the three-call sequence.
     *
     * @p src is q's cell, as the caller already looked it up (a bank
     * prices the move from it); the two-argument form looks it up.
     *
     * @return the number of hole steps.
     * @pre q is placed at @p src and contains(dest).
     */
    std::int32_t moveInto(QubitId q, const Coord &src, const Coord &dest);

    std::int32_t moveInto(QubitId q, const Coord &dest)
    {
        return moveInto(q, locate(q), dest);
    }

    /**
     * Monotonic mutation counter: bumped by every place/remove/relocate,
     * hole walk and rotation. Cache derived lookups keyed on this to
     * invalidate them exactly when the occupancy changes.
     */
    std::uint64_t version() const { return version_; }

    /**
     * Counter bumped exactly when the set of empty cells changes
     * (place, remove, relocate, a makeRoomAt walk), never by a
     * moveInto rotation: the nearestEmpty memo's key.
     */
    std::uint64_t emptySetVersion() const { return emptySetVersion_; }

    /**
     * Attach (or detach, with nullptr) the cell-event listener. The
     * grid does not own it; the caller keeps it alive while attached.
     */
    void setCellListener(CellListener *listener)
    {
        listener_ = listener;
    }

  private:
    std::size_t index(const Coord &c) const
    {
        LSQCA_ASSERT(contains(c), "grid coordinate out of range");
        return static_cast<std::size_t>(c.row) *
                   static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c.col);
    }

    /**
     * Shift every occupant on the rows-first Manhattan path from the
     * empty cell @p hole to @p dest one step toward @p hole, leaving
     * @p dest empty. Updates cells_/positions_ and notifies the
     * listener; the caller owns the index and the counters.
     * @return the number of steps, manhattan(hole, dest).
     * @pre contains(hole), contains(dest); every path cell after
     *      @p hole is occupied.
     */
    std::int32_t shiftPath(const Coord &hole, const Coord &dest);

    /** positions_ slot for @p q, grown on demand; {-1,-1} = unplaced. */
    Coord &positionSlot(QubitId q)
    {
        LSQCA_REQUIRE(q >= 0, "invalid qubit id");
        const auto idx = static_cast<std::size_t>(q);
        if (idx >= positions_.size())
            positions_.resize(idx + 1, Coord{-1, -1});
        return positions_[idx];
    }

    std::int32_t rows_;
    std::int32_t cols_;
    std::int32_t occupied_ = 0;
    std::uint64_t version_ = 0;
    std::uint64_t emptySetVersion_ = 0;
    std::vector<QubitId> cells_;
    /**
     * Qubit -> cell, indexed by QubitId (program variable indices are
     * dense, so a flat vector beats the hash map this replaced: the
     * position lookup is the single hottest operation of the bank
     * cost models). row == -1 = unplaced.
     */
    std::vector<Coord> positions_;
    OccupancyIndex empties_;

    /** Last nearestEmpty answer; the version sentinel never matches. */
    struct NearestMemo
    {
        std::uint64_t emptySetVersion = ~std::uint64_t{0};
        Coord target;
        std::optional<Coord> hole;
    };
    mutable NearestMemo nearest_;

    CellListener *listener_ = nullptr;
};

} // namespace lsqca

#endif // LSQCA_GEOM_GRID_H
