#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "arch/line_sam.h"
#include "arch/point_sam.h"
#include "common/rng.h"
#include "fuzz_seeds.h"
#include "geom/grid.h"
#include "reference/reference_banks.h"

namespace lsqca {
namespace {

std::vector<QubitId>
iota(std::int32_t n)
{
    std::vector<QubitId> vars(static_cast<std::size_t>(n));
    std::iota(vars.begin(), vars.end(), 0);
    return vars;
}

/**
 * Per-seed bank configuration: capacities sweep the small/odd shapes
 * (rectangular point grids, L x (L+1) line grids, capacity 2 edge
 * cases) and a third of the seeds run with non-default latencies so
 * cost agreement is checked beyond the paper constants.
 */
Latencies
latenciesForSeed(Rng &rng)
{
    Latencies lat;
    if (rng.chance(1.0 / 3.0)) {
        lat.move = static_cast<std::int32_t>(rng.between(1, 3));
        lat.longMove = static_cast<std::int32_t>(rng.between(1, 5));
        lat.pickDiagonal1 = static_cast<std::int32_t>(rng.between(4, 8));
        lat.pickStraight1 = static_cast<std::int32_t>(rng.between(3, 7));
        lat.pickDiagonal2 = static_cast<std::int32_t>(rng.between(2, 6));
        lat.pickStraight2 = static_cast<std::int32_t>(rng.between(1, 5));
    }
    return lat;
}

/**
 * Random op soup on a point-SAM bank: load/store/fetch/seek in legal
 * orders. Invariants: costs non-negative, occupancy conserved, every
 * qubit placed exactly once, positions in range.
 */
class PointSamFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PointSamFuzz, InvariantsHoldUnderRandomOps)
{
    const std::int32_t n = 48;
    Rng rng(GetParam());
    PointSamBank bank(n, Latencies{});
    bank.placeInitial(iota(n));
    std::set<QubitId> in_cr; // qubits currently loaded out

    for (int step = 0; step < 2000; ++step) {
        const auto q = static_cast<QubitId>(rng.below(n));
        const bool resident = bank.holds(q);
        switch (rng.below(4)) {
          case 0:
            if (resident && in_cr.size() < 2) {
                ASSERT_GE(bank.loadCost(q), 1);
                bank.commitLoad(q);
                in_cr.insert(q);
            }
            break;
          case 1:
            if (!resident && in_cr.count(q)) {
                const bool locality = rng.chance(0.7);
                ASSERT_GE(bank.storeCost(q, locality), 1);
                bank.commitStore(q, locality);
                in_cr.erase(q);
            }
            break;
          case 2:
            if (resident) {
                ASSERT_GE(bank.seekCost(q), 0);
                bank.commitSeek(q);
            }
            break;
          default:
            if (resident) {
                ASSERT_GE(bank.fetchToPortCost(q), 0);
                bank.commitFetchToPort(q);
                ASSERT_TRUE(bank.holds(q));
            }
            break;
        }
        ASSERT_EQ(bank.occupancy(),
                  n - static_cast<std::int32_t>(in_cr.size()));
        // Scan position stays within the grid bounds.
        ASSERT_GE(bank.scanPosition().row, 0);
        ASSERT_LT(bank.scanPosition().row, bank.rows());
        ASSERT_GE(bank.scanPosition().col, 0);
        ASSERT_LT(bank.scanPosition().col, bank.cols());
    }
    // Every out-qubit can be stored back.
    for (QubitId q : in_cr)
        bank.commitStore(q, true);
    ASSERT_EQ(bank.occupancy(), n);
    for (QubitId q = 0; q < n; ++q)
        ASSERT_TRUE(bank.holds(q));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointSamFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

class LineSamFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LineSamFuzz, InvariantsHoldUnderRandomOps)
{
    const std::int32_t n = 50;
    Rng rng(GetParam());
    LineSamBank bank(n, Latencies{});
    bank.placeInitial(iota(n));
    std::set<QubitId> in_cr;

    for (int step = 0; step < 2000; ++step) {
        const auto q = static_cast<QubitId>(rng.below(n));
        const bool resident = bank.holds(q);
        switch (rng.below(4)) {
          case 0:
            if (resident && in_cr.size() < 2) {
                ASSERT_GE(bank.loadCost(q), 3); // step-in + long move
                bank.commitLoad(q);
                in_cr.insert(q);
            }
            break;
          case 1:
            if (!resident && in_cr.count(q)) {
                const bool locality = rng.chance(0.7);
                ASSERT_GE(bank.storeCost(q, locality), 3);
                bank.commitStore(q, locality);
                in_cr.erase(q);
            }
            break;
          case 2:
            if (resident) {
                ASSERT_GE(bank.alignCost(q), 0);
                bank.commitAlign(q);
                ASSERT_EQ(bank.alignCost(q), 0);
            }
            break;
          default:
            if (resident) {
                const auto other = static_cast<QubitId>(rng.below(n));
                if (other != q && bank.holds(other) &&
                    bank.canDirectSurgery(q, other)) {
                    ASSERT_GE(bank.directSurgeryCost(q, other), 0);
                    bank.commitDirectSurgery(q, other);
                }
            }
            break;
        }
        ASSERT_EQ(bank.occupancy(),
                  n - static_cast<std::int32_t>(in_cr.size()));
        ASSERT_GE(bank.gap(), 0);
        ASSERT_LE(bank.gap(), bank.dataRows());
    }
    for (QubitId q : in_cr)
        bank.commitStore(q, true);
    ASSERT_EQ(bank.occupancy(), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineSamFuzz,
                         ::testing::Values(66, 77, 88, 99, 111));

TEST(BankFuzz, PointBankSurvivesFullChurn)
{
    // Load and locality-store every qubit once; afterwards the hot set
    // sits near the port and total occupancy is intact.
    const std::int32_t n = 35;
    PointSamBank bank(n, Latencies{});
    bank.placeInitial(iota(n));
    std::int64_t first_total = 0;
    for (QubitId q = 0; q < n; ++q)
        first_total += bank.loadCost(q);
    for (QubitId q = 0; q < n; ++q) {
        bank.commitLoad(q);
        bank.commitStore(q, true);
    }
    std::int64_t second_total = 0;
    for (QubitId q = 0; q < n; ++q)
        second_total += bank.loadCost(q);
    EXPECT_EQ(bank.occupancy(), n);
    // The churned layout is no worse on aggregate: everything was
    // stored through the port stack.
    EXPECT_LE(second_total, first_total * 2);
}

TEST(BankFuzz, LineBankSequentialChurnKeepsRowsCompact)
{
    const std::int32_t n = 49; // 7x7
    LineSamBank bank(n, Latencies{});
    bank.placeInitial(iota(n));
    for (QubitId q = 0; q < n; ++q) {
        bank.commitLoad(q);
        bank.commitStore(q, true);
        ASSERT_EQ(bank.occupancy(), n);
    }
    // All qubits remain accounted for and alignable.
    for (QubitId q = 0; q < n; ++q) {
        ASSERT_TRUE(bank.holds(q));
        ASSERT_GE(bank.alignCost(q), 0);
    }
}

// ---- differential harness: optimized banks vs scan-based oracles ----------
//
// The optimized banks (incremental occupancy index + memoized
// destination lookups) must be bit-identical to the reference oracles
// in tests/arch/reference — every cost, every destination, every piece
// of scan state, at every step of a random op soup. A mismatch prints
// the seed and step so the failure replays deterministically.

/** Full-layout agreement: every resident qubit sits in the same cell. */
template <typename Bank, typename RefBank>
void
expectSameLayout(const Bank &opt, const RefBank &ref, std::int32_t n,
                 std::uint64_t seed, int step)
{
    ASSERT_EQ(opt.occupancy(), ref.occupancy())
        << "seed " << seed << " step " << step;
    for (QubitId q = 0; q < n; ++q) {
        ASSERT_EQ(opt.holds(q), ref.holds(q))
            << "seed " << seed << " step " << step << " qubit " << q;
        if (opt.holds(q)) {
            ASSERT_EQ(opt.positionOf(q), ref.positionOf(q))
                << "seed " << seed << " step " << step << " qubit " << q;
        }
    }
}

class PointSamDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(PointSamDifferential, BitIdenticalToReferenceOracle)
{
    const std::uint64_t seed = differentialSeed(GetParam());
    Rng rng(seed);
    const auto n = static_cast<std::int32_t>(rng.between(2, 120));
    const Latencies lat = latenciesForSeed(rng);
    // Sometimes under-fill the bank: extra holes change pickCost's
    // two-empty discount and every nearest-empty query.
    const auto placed = static_cast<std::int32_t>(
        n - rng.below(static_cast<std::uint64_t>(std::min(n - 1, 3)) + 1));
    const std::size_t cr_limit = 1 + rng.below(4);

    PointSamBank opt(n, lat);
    reference::ReferencePointSamBank ref(n, lat);
    opt.placeInitial(iota(placed));
    ref.placeInitial(iota(placed));
    std::set<QubitId> in_cr;

    for (int step = 0; step < 1200; ++step) {
        const auto q = static_cast<QubitId>(rng.below(
            static_cast<std::uint64_t>(placed)));
        ASSERT_EQ(opt.holds(q), ref.holds(q))
            << "seed " << seed << " step " << step;
        const bool resident = opt.holds(q);
        // Half the commits run without the optimized cost query before
        // them, so neither path leans on the other's memoized lookups.
        const bool ask = rng.chance(0.5);
        switch (rng.below(4)) {
          case 0:
            if (resident && in_cr.size() < cr_limit) {
                const std::int64_t want = ref.loadCost(q);
                if (ask) {
                    ASSERT_EQ(opt.loadCost(q), want)
                        << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(opt.commitLoad(q), want)
                    << "seed " << seed << " step " << step;
                ref.commitLoad(q);
                in_cr.insert(q);
            }
            break;
          case 1:
            if (!resident && in_cr.count(q)) {
                const bool locality = rng.chance(0.5);
                const std::int64_t want = ref.storeCost(q, locality);
                if (ask) {
                    ASSERT_EQ(opt.storeCost(q, locality), want)
                        << "seed " << seed << " step " << step
                        << " locality " << locality;
                }
                ASSERT_EQ(opt.commitStore(q, locality), want)
                    << "seed " << seed << " step " << step
                    << " locality " << locality;
                ASSERT_EQ(opt.positionOf(q), ref.commitStore(q, locality))
                    << "seed " << seed << " step " << step
                    << " locality " << locality;
                in_cr.erase(q);
            }
            break;
          case 2:
            if (resident) {
                const std::int64_t want = ref.seekCost(q);
                if (ask) {
                    ASSERT_EQ(opt.seekCost(q), want)
                        << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(opt.commitSeek(q), want)
                    << "seed " << seed << " step " << step;
                ref.commitSeek(q);
            }
            break;
          default:
            if (resident) {
                const std::int64_t want = ref.fetchToPortCost(q);
                if (ask) {
                    ASSERT_EQ(opt.fetchToPortCost(q), want)
                        << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(opt.commitFetchToPort(q), want)
                    << "seed " << seed << " step " << step;
                ref.commitFetchToPort(q);
            }
            break;
        }
        ASSERT_EQ(opt.scanPosition(), ref.scanPosition())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(opt.occupancy(), ref.occupancy())
            << "seed " << seed << " step " << step;
        if (step % 64 == 0)
            expectSameLayout(opt, ref, placed, seed, step);
    }
    for (QubitId q : in_cr) {
        ASSERT_EQ(opt.commitStore(q, true), ref.storeCost(q, true));
        ASSERT_EQ(opt.positionOf(q), ref.commitStore(q, true));
    }
    expectSameLayout(opt, ref, placed, seed, -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointSamDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

class LineSamDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(LineSamDifferential, BitIdenticalToReferenceOracle)
{
    const std::uint64_t seed = differentialSeed(GetParam()) ^ 0x5ca1ab1eULL;
    Rng rng(seed);
    const auto n = static_cast<std::int32_t>(rng.between(2, 120));
    const Latencies lat = latenciesForSeed(rng);
    const auto placed = static_cast<std::int32_t>(
        n - rng.below(static_cast<std::uint64_t>(std::min(n - 1, 3)) + 1));
    const std::size_t cr_limit = 1 + rng.below(4);

    LineSamBank opt(n, lat);
    reference::ReferenceLineSamBank ref(n, lat);
    opt.placeInitial(iota(placed));
    ref.placeInitial(iota(placed));
    std::set<QubitId> in_cr;
    // The commit walks the plan's hole without asking the index again:
    // it must be the hole makeRoomAt(dest) would have found.
    const auto expectPlanHole = [&opt](QubitId q) {
        const LineSamBank::StorePlan plan = opt.storePlan(q, true);
        if (opt.grid().isEmptyCell(plan.dest)) {
            EXPECT_EQ(plan.hole, plan.dest);
        } else {
            EXPECT_EQ(std::optional<Coord>(plan.hole),
                      opt.grid().nearestEmpty(plan.dest));
        }
    };

    for (int step = 0; step < 1200; ++step) {
        const auto q = static_cast<QubitId>(rng.below(
            static_cast<std::uint64_t>(placed)));
        ASSERT_EQ(opt.holds(q), ref.holds(q))
            << "seed " << seed << " step " << step;
        const bool resident = opt.holds(q);
        const bool ask = rng.chance(0.5);
        switch (rng.below(5)) {
          case 0:
            if (resident && in_cr.size() < cr_limit) {
                const std::int64_t want = ref.loadCost(q);
                if (ask) {
                    ASSERT_EQ(opt.loadCost(q), want)
                        << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(opt.commitLoad(q), want)
                    << "seed " << seed << " step " << step;
                ref.commitLoad(q);
                in_cr.insert(q);
            }
            break;
          case 1:
            if (!resident && in_cr.count(q)) {
                const bool locality = rng.chance(0.5);
                const std::int64_t want = ref.storeCost(q, locality);
                if (ask) {
                    ASSERT_EQ(opt.storeCost(q, locality), want)
                        << "seed " << seed << " step " << step
                        << " locality " << locality;
                }
                if (locality) {
                    SCOPED_TRACE(::testing::Message()
                                 << "seed " << seed << " step " << step);
                    expectPlanHole(q);
                }
                ASSERT_EQ(opt.commitStore(q, locality), want)
                    << "seed " << seed << " step " << step
                    << " locality " << locality;
                ASSERT_EQ(opt.positionOf(q), ref.commitStore(q, locality))
                    << "seed " << seed << " step " << step
                    << " locality " << locality;
                in_cr.erase(q);
            }
            break;
          case 2:
            if (resident) {
                const std::int64_t want = ref.alignCost(q);
                if (ask) {
                    ASSERT_EQ(opt.alignCost(q), want)
                        << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(opt.commitAlign(q), want)
                    << "seed " << seed << " step " << step;
                ref.commitAlign(q);
            }
            break;
          case 3: {
            const auto row = static_cast<std::int32_t>(
                rng.below(static_cast<std::uint64_t>(opt.dataRows())));
            ASSERT_EQ(opt.alignCostToRow(row), ref.alignCostToRow(row))
                << "seed " << seed << " step " << step << " row " << row;
            break;
          }
          default:
            if (resident) {
                const auto other = static_cast<QubitId>(rng.below(
                    static_cast<std::uint64_t>(placed)));
                if (other != q && opt.holds(other)) {
                    ASSERT_EQ(opt.canDirectSurgery(q, other),
                              ref.canDirectSurgery(q, other))
                        << "seed " << seed << " step " << step;
                    if (opt.canDirectSurgery(q, other)) {
                        const std::int64_t want =
                            ref.directSurgeryCost(q, other);
                        if (ask) {
                            ASSERT_EQ(opt.directSurgeryCost(q, other),
                                      want)
                                << "seed " << seed << " step " << step;
                        }
                        ASSERT_EQ(opt.commitDirectSurgery(q, other), want)
                            << "seed " << seed << " step " << step;
                        ref.commitDirectSurgery(q, other);
                    }
                }
            }
            break;
        }
        ASSERT_EQ(opt.gap(), ref.gap())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(opt.occupancy(), ref.occupancy())
            << "seed " << seed << " step " << step;
        if (step % 64 == 0)
            expectSameLayout(opt, ref, placed, seed, step);
    }
    for (QubitId q : in_cr) {
        expectPlanHole(q);
        ASSERT_EQ(opt.commitStore(q, true), ref.storeCost(q, true));
        ASSERT_EQ(opt.positionOf(q), ref.commitStore(q, true));
    }
    expectSameLayout(opt, ref, placed, seed, -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineSamDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

/**
 * Whole-layout agreement between the optimized grid and the reference:
 * the occupant of every cell, the cell of every qubit id issued so far,
 * and the empty-cell list the index reports.
 */
void
expectSameGrid(const OccupancyGrid &opt,
               const reference::ReferenceOccupancyGrid &ref,
               QubitId issued, std::uint64_t seed, int step)
{
    ASSERT_EQ(opt.occupiedCount(), ref.occupiedCount())
        << "seed " << seed << " step " << step;
    for (std::int32_t r = 0; r < opt.rows(); ++r)
        for (std::int32_t c = 0; c < opt.cols(); ++c)
            ASSERT_EQ(opt.at({r, c}), ref.at({r, c}))
                << "seed " << seed << " step " << step << " cell "
                << Coord{r, c};
    for (QubitId q = 0; q < issued; ++q)
        ASSERT_EQ(opt.find(q), ref.find(q))
            << "seed " << seed << " step " << step << " qubit " << q;
    ASSERT_EQ(opt.emptyCells(), ref.emptyCells())
        << "seed " << seed << " step " << step;
}

/** Records a grid's cell events as (occupied, qubit, cell) triples. */
class CellLog final : public CellListener
{
  public:
    void
    onCellOccupied(QubitId q, const Coord &c) override
    {
        events.emplace_back(true, q, c);
    }

    void
    onCellVacated(QubitId q, const Coord &c) override
    {
        events.emplace_back(false, q, c);
    }

    std::vector<std::tuple<bool, QubitId, Coord>> events;
};

/**
 * Grid-level differential: the incremental OccupancyIndex behind
 * OccupancyGrid must answer nearestEmpty / nearestEmptyInRow /
 * emptyCells / makeRoomAt exactly like the reference scan for random
 * occupancy patterns and random targets (including targets outside
 * the grid, which the scan handles by plain distance), and moveInto
 * must leave the layout the reference's remove + makeRoomAt + place
 * leaves. makeRoomAt(dest, hole), given the hole nearestEmpty(dest)
 * names, must match the one-argument form in layout, steps and cell
 * events. Every mutating op is followed by a whole-layout comparison.
 */
class GridDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(GridDifferential, IndexMatchesReferenceScan)
{
    const std::uint64_t seed = differentialSeed(GetParam()) ^ 0x0ddba11ULL;
    Rng rng(seed);
    const auto rows = static_cast<std::int32_t>(rng.between(1, 9));
    const auto cols = static_cast<std::int32_t>(rng.between(1, 9));
    OccupancyGrid opt(rows, cols);
    reference::ReferenceOccupancyGrid ref(rows, cols);
    QubitId next_q = 0;
    const auto randomResident = [&] {
        QubitId q;
        do {
            q = static_cast<QubitId>(
                rng.below(static_cast<std::uint64_t>(next_q)));
        } while (!ref.find(q).has_value());
        return q;
    };
    const auto randomCell = [&] {
        return Coord{
            static_cast<std::int32_t>(
                rng.below(static_cast<std::uint64_t>(rows))),
            static_cast<std::int32_t>(
                rng.below(static_cast<std::uint64_t>(cols)))};
    };

    for (int step = 0; step < 600; ++step) {
        const Coord target{
            static_cast<std::int32_t>(rng.between(-2, rows + 1)),
            static_cast<std::int32_t>(rng.between(-2, cols + 1))};
        bool mutated = true;
        switch (rng.below(7)) {
          case 0: { // place at a random empty cell
            const auto empties = ref.emptyCells();
            if (!empties.empty()) {
                const Coord c = empties[rng.below(empties.size())];
                opt.place(next_q, c);
                ref.place(next_q, c);
                ++next_q;
            }
            break;
          }
          case 1: { // remove a random resident qubit
            if (ref.occupiedCount() > 0) {
                const QubitId q = randomResident();
                ASSERT_EQ(opt.remove(q), ref.remove(q))
                    << "seed " << seed << " step " << step;
            }
            break;
          }
          case 2: { // makeRoomAt an in-grid cell
            if (ref.emptyCount() > 0) {
                const Coord dest = randomCell();
                ASSERT_EQ(opt.makeRoomAt(dest), ref.makeRoomAt(dest))
                    << "seed " << seed << " step " << step;
            }
            break;
          }
          case 3: { // moveInto a random cell or one next to the qubit
            if (ref.occupiedCount() > 0) {
                const QubitId q = randomResident();
                Coord dest = randomCell();
                if (rng.chance(0.5)) {
                    // Short moves on a full-ish grid are the rotations.
                    dest = ref.locate(q);
                    dest.row = std::clamp<std::int32_t>(
                        dest.row + static_cast<std::int32_t>(
                                       rng.between(-1, 1)),
                        0, rows - 1);
                    dest.col = std::clamp<std::int32_t>(
                        dest.col + static_cast<std::int32_t>(
                                       rng.between(-1, 1)),
                        0, cols - 1);
                }
                ref.remove(q);
                const std::int32_t want = ref.makeRoomAt(dest);
                ref.place(q, dest);
                ASSERT_EQ(opt.moveInto(q, dest), want)
                    << "seed " << seed << " step " << step << " qubit "
                    << q << " dest " << dest;
            }
            break;
          }
          case 4: { // makeRoomAt with the hole already known
            if (ref.emptyCount() > 0) {
                const Coord dest = randomCell();
                const auto hole = opt.nearestEmpty(dest);
                ASSERT_TRUE(hole.has_value())
                    << "seed " << seed << " step " << step;
                OccupancyGrid queried = opt;
                CellLog known_log;
                CellLog queried_log;
                opt.setCellListener(&known_log);
                queried.setCellListener(&queried_log);
                const std::int32_t want = queried.makeRoomAt(dest);
                ASSERT_EQ(opt.makeRoomAt(dest, *hole), want)
                    << "seed " << seed << " step " << step;
                opt.setCellListener(nullptr);
                ASSERT_EQ(ref.makeRoomAt(dest), want)
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(known_log.events, queried_log.events)
                    << "seed " << seed << " step " << step;
                for (std::int32_t r = 0; r < rows; ++r)
                    for (std::int32_t c = 0; c < cols; ++c)
                        ASSERT_EQ(opt.at({r, c}), queried.at({r, c}))
                            << "seed " << seed << " step " << step;
            }
            break;
          }
          case 5:
            mutated = false;
            ASSERT_EQ(opt.nearestEmpty(target), ref.nearestEmpty(target))
                << "seed " << seed << " step " << step << " target "
                << target;
            break;
          default: {
            mutated = false;
            const auto row = static_cast<std::int32_t>(
                rng.below(static_cast<std::uint64_t>(rows)));
            ASSERT_EQ(opt.nearestEmptyInRow(row, target.col),
                      ref.nearestEmptyInRow(row, target.col))
                << "seed " << seed << " step " << step << " row " << row
                << " target_col " << target.col;
            break;
          }
        }
        if (mutated)
            ASSERT_NO_FATAL_FAILURE(
                expectSameGrid(opt, ref, next_q, seed, step));
        else
            ASSERT_EQ(opt.occupiedCount(), ref.occupiedCount())
                << "seed " << seed << " step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

} // namespace
} // namespace lsqca
