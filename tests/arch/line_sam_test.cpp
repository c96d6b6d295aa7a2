#include "arch/line_sam.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.h"

namespace lsqca {
namespace {

std::vector<QubitId>
iota(std::int32_t n)
{
    std::vector<QubitId> vars(static_cast<std::size_t>(n));
    std::iota(vars.begin(), vars.end(), 0);
    return vars;
}

TEST(LineSam, DataGridShapes)
{
    LineSamBank square(400, Latencies{});
    EXPECT_EQ(square.dataRows(), 20);
    EXPECT_EQ(square.cols(), 20);
    LineSamBank rect(20, Latencies{});
    EXPECT_EQ(rect.dataRows(), 4);
    EXPECT_EQ(rect.cols(), 5);
}

TEST(LineSam, GapStartsAtTop)
{
    LineSamBank bank(16, Latencies{});
    EXPECT_EQ(bank.gap(), 0);
}

TEST(LineSam, AlignCostIsRowDistance)
{
    LineSamBank bank(25, Latencies{}); // 5x5
    bank.placeInitial(iota(25));
    // Gap at 0: adjacent to row 0 already.
    EXPECT_EQ(bank.alignCostToRow(0), 0);
    // Row 3: gap must travel to 3 or 4 -> 3 shifts.
    EXPECT_EQ(bank.alignCostToRow(3), 3);
    EXPECT_EQ(bank.alignCostToRow(4), 4);
}

TEST(LineSam, LoadCostIsAlignPlusConstant)
{
    Latencies lat;
    LineSamBank bank(25, lat);
    bank.placeInitial(iota(25));
    // Qubit 12 sits in row 2 (row-major fill, 5 per row).
    const std::int64_t align = bank.alignCostToRow(2);
    EXPECT_EQ(bank.loadCost(12), align + lat.move + lat.longMove);
}

TEST(LineSam, WorstCaseLoadIsHalfSqrtN)
{
    // Paper Sec. IV-C3: latency ~ 0.5 sqrt(n) in the worst case (plus
    // small constants).
    const std::int32_t n = 400;
    LineSamBank bank(n, Latencies{});
    bank.placeInitial(iota(n));
    std::int64_t worst = 0;
    for (QubitId q = 0; q < n; ++q)
        worst = std::max(worst, bank.loadCost(q));
    EXPECT_LE(worst, 20 + 3); // H-1 shifts + step + long move
    EXPECT_GE(worst, 15);
}

TEST(LineSam, LoadParksGapAtTargetRow)
{
    LineSamBank bank(25, Latencies{});
    bank.placeInitial(iota(25));
    bank.commitLoad(17); // row 3
    EXPECT_FALSE(bank.holds(17));
    // Gap now adjacent to row 3: same-row reloads are cheap.
    EXPECT_EQ(bank.alignCostToRow(3), 0);
    EXPECT_LE(bank.loadCost(16), 3);
}

TEST(LineSam, SequentialSameRowAccessIsCheap)
{
    // The line-SAM selling point: continuous access to cells in one
    // line needs no additional movement.
    LineSamBank bank(100, Latencies{}); // 10x10
    bank.placeInitial(iota(100));
    bank.commitAlign(55); // row 5
    for (QubitId q = 50; q < 60; ++q)
        EXPECT_EQ(bank.alignCost(q), 0);
    // A different row still costs shifts.
    EXPECT_GT(bank.alignCost(95), 0);
}

TEST(LineSam, LocalityStorePrefersGapAdjacentRow)
{
    LineSamBank bank(24, Latencies{}); // 24 in 5x5 -> one empty slot
    bank.placeInitial(iota(24));
    bank.commitLoad(7); // row 1; gap parks at row boundary 1/2
    // Store back with locality: gap-adjacent row has the freed slot.
    const std::int64_t cost = bank.storeCost(7, true);
    Latencies lat;
    EXPECT_EQ(cost, lat.longMove + lat.move); // zero shifts
    EXPECT_EQ(bank.commitStore(7, true), cost);
    EXPECT_EQ(bank.positionOf(7).row, 1);
}

TEST(LineSam, HomeStoreReturnsToOriginalCell)
{
    LineSamBank bank(24, Latencies{});
    bank.placeInitial(iota(24));
    const Coord home = bank.positionOf(20);
    bank.commitLoad(20);
    bank.commitStore(20, /*locality=*/false);
    EXPECT_EQ(bank.positionOf(20), home);
}

TEST(LineSam, StoreAfterDistantLoadPairsQubitsInOneRow)
{
    // Spatial locality (Fig. 12b): two qubits touched together end up
    // in the same or adjacent lines.
    LineSamBank bank(99, Latencies{}); // 10x10 grid, 1 free slot
    bank.placeInitial(iota(99));
    bank.commitLoad(95); // bottom row; gap parks there
    bank.commitStore(95, true);
    bank.commitLoad(91);
    bank.commitStore(91, true);
    const Coord d2 = bank.positionOf(91);
    const Coord d1 = bank.positionOf(95);
    EXPECT_LE(std::abs(d1.row - d2.row), 1);
}

TEST(LineSam, OccupancyBookkeeping)
{
    LineSamBank bank(10, Latencies{});
    bank.placeInitial(iota(10));
    EXPECT_EQ(bank.occupancy(), 10);
    bank.commitLoad(0);
    EXPECT_EQ(bank.occupancy(), 9);
    bank.commitStore(0, true);
    EXPECT_EQ(bank.occupancy(), 10);
}

// ---- golden cost tables ----------------------------------------------------
//
// Exact beat counts for small named layouts, worked by hand from the
// Sec. V line-SAM model: load = gap shifts to the target row + 1 step
// into the gap + the constant long-range slide; stores add the same
// shift term for the destination row. Cost drift fails here with a
// readable per-qubit diff before the differential fuzz harness points
// at a seed. Each commit must charge exactly the tabled cost, so the
// commits are checked on fresh copies of the layout too.

TEST(LineSamGolden, FourByFiveLoadCosts)
{
    // Capacity 20 -> 4x5 data grid, gap at 0: rows cost 0,1,2,3 shifts,
    // +1 step-in +2 long move.
    LineSamBank bank(20, Latencies{});
    bank.placeInitial(iota(20));
    const std::int64_t expected[20] = {3, 3, 3, 3, 3, 4, 4, 4, 4, 4,
                                       5, 5, 5, 5, 5, 6, 6, 6, 6, 6};
    for (QubitId q = 0; q < 20; ++q) {
        EXPECT_EQ(bank.loadCost(q), expected[q]) << "qubit " << q;
        LineSamBank loaded = bank;
        EXPECT_EQ(loaded.commitLoad(q), expected[q]) << "qubit " << q;
        LineSamBank aligned = bank;
        EXPECT_EQ(aligned.commitAlign(q), expected[q] - 3) << "qubit " << q;
    }
    for (std::int32_t r = 0; r < 4; ++r)
        EXPECT_EQ(bank.alignCostToRow(r), r) << "row " << r;
}

TEST(LineSamGolden, FourByFiveStoreAfterLoad)
{
    // Loading q13 (row 2) parks the gap at 2; both store flavors then
    // need zero shifts: home (2,3) is the freed cell and the locality
    // row is the gap row, so each costs longMove + move = 3 beats.
    LineSamBank bank(20, Latencies{});
    bank.placeInitial(iota(20));
    bank.commitLoad(13);
    EXPECT_EQ(bank.gap(), 2);
    EXPECT_EQ(bank.storeCost(13, /*locality=*/false), 3);
    EXPECT_EQ(bank.storeCost(13, /*locality=*/true), 3);
    LineSamBank home = bank;
    EXPECT_EQ(home.commitStore(13, /*locality=*/false), 3);
    EXPECT_EQ(home.positionOf(13), (Coord{2, 3}));
    EXPECT_EQ(bank.commitStore(13, /*locality=*/true), 3);
    EXPECT_EQ(bank.positionOf(13), (Coord{2, 3}));
    EXPECT_EQ(bank.gap(), 2);
}

TEST(LineSamGolden, FiveByFiveCustomLatencies)
{
    // move=2, longMove=5: shifts scale by move, the slide by longMove —
    // rows cost 0..4 shifts x 2 + 2 step-in + 5.
    Latencies lat;
    lat.move = 2;
    lat.longMove = 5;
    LineSamBank bank(25, lat);
    bank.placeInitial(iota(25));
    const std::int64_t expected[25] = {7,  7,  7,  7,  7,  9,  9,  9,  9,
                                       9,  11, 11, 11, 11, 11, 13, 13, 13,
                                       13, 13, 15, 15, 15, 15, 15};
    for (QubitId q = 0; q < 25; ++q) {
        EXPECT_EQ(bank.loadCost(q), expected[q]) << "qubit " << q;
        LineSamBank loaded = bank;
        EXPECT_EQ(loaded.commitLoad(q), expected[q]) << "qubit " << q;
    }
}

TEST(LineSam, CapacityValidation)
{
    EXPECT_THROW(LineSamBank(0, Latencies{}), ConfigError);
    LineSamBank bank(4, Latencies{});
    EXPECT_THROW(bank.placeInitial(iota(5)), ConfigError);
}

TEST(LineSam, AlignCommitMovesGap)
{
    LineSamBank bank(25, Latencies{});
    bank.placeInitial(iota(25));
    const std::int64_t align = bank.alignCost(22); // row 4
    EXPECT_GT(align, 0);
    EXPECT_EQ(bank.commitAlign(22), align);
    EXPECT_EQ(bank.alignCost(22), 0);
    // Row 0 now distant: gap parked at 4 -> min(|4-0|, |4-1|) shifts.
    EXPECT_EQ(bank.alignCost(2), 3);
}

} // namespace
} // namespace lsqca
