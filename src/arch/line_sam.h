#ifndef LSQCA_ARCH_LINE_SAM_H
#define LSQCA_ARCH_LINE_SAM_H

/**
 * @file
 * Line-SAM bank model (Sec. IV-C3): H data rows and one empty scan row
 * (the "gap") that shifts vertically, one beat per row, until it faces
 * the target's row; the target then moves into the gap and slides along
 * it to the CR with a constant-latency long-range move.
 *
 * The gap is modeled as an index g in [0, H] between data rows: shifting
 * it costs |Δg| beats while data rows keep their logical identity (the
 * physical cells shift; the contents' relative order is preserved).
 */

#include <cstdint>
#include <vector>

#include "arch/config.h"
#include "geom/grid.h"

namespace lsqca {

/** One line-SAM bank: row-organized occupancy + gap + cost model. */
class LineSamBank
{
  public:
    /**
     * Build a bank for @p capacity qubits with the tightest
     * L x L / L x (L+1) data grid (Sec. VI-A); the gap starts at 0
     * (facing the first row).
     */
    LineSamBank(std::int32_t capacity, const Latencies &lat);

    std::int32_t capacity() const { return capacity_; }
    std::int32_t occupancy() const { return grid_.occupiedCount(); }
    std::int32_t dataRows() const { return grid_.rows(); }
    std::int32_t cols() const { return grid_.cols(); }
    std::int32_t gap() const { return gap_; }
    bool holds(QubitId q) const { return grid_.find(q).has_value(); }
    Coord positionOf(QubitId q) const { return grid_.locate(q); }

    /** Read-only occupancy view (telemetry: initial-layout snapshots). */
    const OccupancyGrid &grid() const { return grid_; }

    /**
     * Bank event hook: forward every data-cell occupy/vacate
     * (commitLoad, commitStore incl. the makeRoomAt insertion) to
     * @p listener; nullptr detaches. Borrowed, not owned. Gap motion
     * is not a cell event — rows keep their logical identity.
     */
    void setCellListener(CellListener *listener)
    {
        grid_.setCellListener(listener);
    }

    /** Place @p vars row-major (their original "home" cells). */
    void placeInitial(const std::vector<QubitId> &vars);

    /** Beats to align the gap next to row @p row. */
    std::int64_t alignCostToRow(std::int32_t row) const;

    /** Beats to align the gap next to @p q's row (in-memory ops). */
    std::int64_t alignCost(QubitId q) const;

    /**
     * Move the gap adjacent to @p q's row. Every commit returns the
     * beats it charged — what its cost query would have returned just
     * before it.
     */
    std::int64_t commitAlign(QubitId q);

    /** Beats to bring @p q from SAM into a CR register cell. */
    std::int64_t loadCost(QubitId q) const;

    /** Apply the load: @p q leaves; the gap faces its old row. */
    std::int64_t commitLoad(QubitId q);

    /**
     * Beats to store a qubit from CR. Locality-aware stores pick a
     * gap-adjacent row (same line as recently touched qubits) at the
     * CR-nearest free column; otherwise the original home cell.
     */
    std::int64_t storeCost(QubitId q, bool locality) const;

    /** Apply the store; returns its beats (destination: positionOf). */
    std::int64_t commitStore(QubitId q, bool locality);

    /**
     * Where a store of @p q goes: its cell @p dest, the hole the
     * makeRoomAt insertion walks into @p dest (dest itself when it is
     * empty, else the cell nearestEmpty(dest) returns), and the gap
     * shifts charged.
     */
    struct StorePlan
    {
        Coord dest;
        Coord hole;
        std::int64_t shifts;
    };
    StorePlan storePlan(QubitId q, bool locality) const;

    /**
     * Whether @p a and @p b can merge directly (ArchConfig::directSurgery
     * extension): same row or vertically adjacent rows, so one gap
     * position touches both.
     */
    bool canDirectSurgery(QubitId a, QubitId b) const;

    /** Gap shifts to reach the surgery position for a direct merge. */
    std::int64_t directSurgeryCost(QubitId a, QubitId b) const;

    /** Park the gap at the direct-surgery position. */
    std::int64_t commitDirectSurgery(QubitId a, QubitId b);

  private:
    std::int64_t storeCostOf(const StorePlan &plan) const;
    std::int32_t nearerGapSide(std::int32_t row) const;

    /** Home cell of @p q; {-1,-1} when never stored (flat by QubitId,
     *  same layout argument as OccupancyGrid::positions_). */
    Coord &homeSlot(QubitId q);

    std::int32_t capacity_;
    Latencies lat_;
    OccupancyGrid grid_; ///< data rows only; the gap is bookkept aside
    std::int32_t gap_ = 0;
    std::vector<Coord> homes_;
};

} // namespace lsqca

#endif // LSQCA_ARCH_LINE_SAM_H
