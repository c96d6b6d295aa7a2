#include "geom/grid.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <ostream>
#include <vector>

#include "common/error.h"

namespace lsqca {
namespace {

TEST(OccupancyGrid, ConstructionValidation)
{
    EXPECT_THROW(OccupancyGrid(0, 3), ConfigError);
    EXPECT_THROW(OccupancyGrid(3, 0), ConfigError);
    OccupancyGrid g(4, 5);
    EXPECT_EQ(g.rows(), 4);
    EXPECT_EQ(g.cols(), 5);
    EXPECT_EQ(g.cellCount(), 20);
    EXPECT_EQ(g.emptyCount(), 20);
}

TEST(OccupancyGrid, PlaceFindRemove)
{
    OccupancyGrid g(3, 3);
    g.place(7, {1, 2});
    EXPECT_EQ(g.occupiedCount(), 1);
    EXPECT_EQ(g.at({1, 2}), 7);
    EXPECT_TRUE(g.find(7).has_value());
    EXPECT_EQ(g.locate(7), (Coord{1, 2}));
    EXPECT_EQ(g.remove(7), (Coord{1, 2}));
    EXPECT_EQ(g.occupiedCount(), 0);
    EXPECT_FALSE(g.find(7).has_value());
}

TEST(OccupancyGrid, RejectsDoublePlacement)
{
    OccupancyGrid g(2, 2);
    g.place(1, {0, 0});
    EXPECT_THROW(g.place(1, {0, 1}), ConfigError);   // same qubit twice
    EXPECT_THROW(g.place(2, {0, 0}), ConfigError);   // occupied cell
    EXPECT_THROW(g.place(kNoQubit, {1, 1}), ConfigError);
}

TEST(OccupancyGrid, RemoveUnplacedThrows)
{
    OccupancyGrid g(2, 2);
    EXPECT_THROW(g.remove(5), ConfigError);
    EXPECT_THROW(g.locate(5), ConfigError);
}

TEST(OccupancyGrid, Relocate)
{
    OccupancyGrid g(3, 3);
    g.place(4, {0, 0});
    g.relocate(4, {2, 2});
    EXPECT_EQ(g.locate(4), (Coord{2, 2}));
    EXPECT_TRUE(g.isEmptyCell({0, 0}));
    g.place(5, {0, 0});
    EXPECT_THROW(g.relocate(4, {0, 0}), ConfigError);
}

TEST(OccupancyGrid, NearestEmptyPrefersClosest)
{
    OccupancyGrid g(3, 3);
    for (std::int32_t r = 0; r < 3; ++r)
        for (std::int32_t c = 0; c < 3; ++c)
            if (!(r == 0 && c == 2) && !(r == 2 && c == 0))
                g.place(r * 3 + c + 1, {r, c});
    // Empties: (0,2) and (2,0).
    EXPECT_EQ(g.nearestEmpty({0, 0}), (Coord{0, 2}));
    EXPECT_EQ(g.nearestEmpty({2, 2}), (Coord{0, 2})); // tie -> lower row
    EXPECT_EQ(g.nearestEmpty({2, 1}), (Coord{2, 0}));
}

TEST(OccupancyGrid, NearestEmptyOnFullGrid)
{
    OccupancyGrid g(2, 2);
    for (std::int32_t i = 0; i < 4; ++i)
        g.place(i + 1, {i / 2, i % 2});
    EXPECT_FALSE(g.nearestEmpty({0, 0}).has_value());
}

TEST(OccupancyGrid, NearestEmptyInRow)
{
    OccupancyGrid g(2, 4);
    g.place(1, {0, 0});
    g.place(2, {0, 1});
    // Row 0 empties: cols 2, 3.
    EXPECT_EQ(g.nearestEmptyInRow(0, 0), (Coord{0, 2}));
    EXPECT_EQ(g.nearestEmptyInRow(0, 3), (Coord{0, 3}));
    EXPECT_EQ(g.nearestEmptyInRow(1, 2), (Coord{1, 2}));
    g.place(3, {0, 2});
    g.place(4, {0, 3});
    EXPECT_FALSE(g.nearestEmptyInRow(0, 0).has_value());
    EXPECT_THROW(g.nearestEmptyInRow(5, 0), ConfigError);
}

// ---- nearest-empty tie-breaking --------------------------------------------
//
// The documented contract (grid.h): among equal-Manhattan-distance
// empty cells the smallest row wins, then the smallest column — the
// first candidate a row-major scan with a strict "closer than best"
// test keeps. The incremental OccupancyIndex must reproduce this scan
// order exactly; these regressions pin the tie cases so an index
// rewrite cannot silently change bank store destinations.

TEST(OccupancyGrid, NearestEmptyTieBreaksTowardSmallerRow)
{
    OccupancyGrid g(3, 3);
    QubitId q = 1;
    for (std::int32_t r = 0; r < 3; ++r)
        for (std::int32_t c = 0; c < 3; ++c)
            if (!(r == 0 && c == 1) && !(r == 1 && c == 0))
                g.place(q++, {r, c});
    // Empties (0,1) and (1,0) are both 1 step from (1,1).
    EXPECT_EQ(g.nearestEmpty({1, 1}), (Coord{0, 1}));
}

TEST(OccupancyGrid, NearestEmptyTieBreaksTowardSmallerColWithinRow)
{
    OccupancyGrid g(3, 3);
    QubitId q = 1;
    for (std::int32_t r = 0; r < 3; ++r)
        for (std::int32_t c = 0; c < 3; ++c)
            if (!(r == 1 && c == 0) && !(r == 1 && c == 2))
                g.place(q++, {r, c});
    // Empties (1,0) and (1,2) are both 1 step from (1,1).
    EXPECT_EQ(g.nearestEmpty({1, 1}), (Coord{1, 0}));
}

TEST(OccupancyGrid, NearestEmptyFourWayTieRing)
{
    OccupancyGrid g(5, 5);
    QubitId q = 1;
    const Coord ring[4] = {{1, 2}, {2, 1}, {2, 3}, {3, 2}};
    for (std::int32_t r = 0; r < 5; ++r)
        for (std::int32_t c = 0; c < 5; ++c) {
            bool empty = false;
            for (const Coord &e : ring)
                if (e == Coord{r, c})
                    empty = true;
            if (!empty)
                g.place(q++, {r, c});
        }
    // All four ring cells are 1 step from the center: smallest row wins.
    EXPECT_EQ(g.nearestEmpty({2, 2}), (Coord{1, 2}));
    // Remove the winner from contention: (2,1) and (2,3) tie within
    // row 2 and the smaller column wins over (3,2).
    g.place(q++, {1, 2});
    EXPECT_EQ(g.nearestEmpty({2, 2}), (Coord{2, 1}));
}

TEST(OccupancyGrid, NearestEmptyInRowTieBreaksTowardSmallerCol)
{
    OccupancyGrid g(1, 5);
    g.place(1, {0, 1});
    g.place(2, {0, 2});
    g.place(3, {0, 3});
    // Empties at cols 0 and 4, target col 2: both 2 away.
    EXPECT_EQ(g.nearestEmptyInRow(0, 2), (Coord{0, 0}));
}

/** Row-major scan with a strict "closer than best" test: the contract. */
std::optional<Coord>
bruteNearest(const OccupancyGrid &g, const Coord &target)
{
    std::optional<Coord> best;
    std::int32_t best_dist = std::numeric_limits<std::int32_t>::max();
    for (std::int32_t r = 0; r < g.rows(); ++r)
        for (std::int32_t c = 0; c < g.cols(); ++c) {
            if (!g.isEmptyCell({r, c}))
                continue;
            const std::int32_t d = manhattan({r, c}, target);
            if (d < best_dist) {
                best_dist = d;
                best = Coord{r, c};
            }
        }
    return best;
}

TEST(OccupancyGrid, TieOrderSurvivesChurn)
{
    // Occupy/vacate churn must leave the index answering ties exactly
    // like a fresh scan: compare against a brute-force scan oracle
    // after every mutation.
    OccupancyGrid g(4, 4);
    QubitId q = 1;
    for (std::int32_t r = 0; r < 4; ++r)
        for (std::int32_t c = 0; c < 4; ++c)
            g.place(q++, {r, c});
    // Vacate a diagonal, re-occupy part of it, then check every target.
    g.remove(1);           // (0,0)
    g.remove(6);           // (1,1)
    g.remove(11);          // (2,2)
    g.remove(16);          // (3,3)
    g.place(17, {1, 1});
    for (std::int32_t r = 0; r < 4; ++r)
        for (std::int32_t c = 0; c < 4; ++c)
            EXPECT_EQ(g.nearestEmpty({r, c}), bruteNearest(g, {r, c}))
                << "target (" << r << "," << c << ")";
}

TEST(OccupancyGrid, VersionBumpsOnEveryMutation)
{
    OccupancyGrid g(2, 2);
    const std::uint64_t v0 = g.version();
    g.place(1, {0, 0});
    const std::uint64_t v1 = g.version();
    EXPECT_GT(v1, v0);
    g.relocate(1, {1, 1});
    const std::uint64_t v2 = g.version();
    EXPECT_GT(v2, v1);
    g.remove(1);
    EXPECT_GT(g.version(), v2);
    // Queries do not mutate.
    const std::uint64_t v3 = g.version();
    (void)g.nearestEmpty({0, 0});
    (void)g.nearestEmptyInRow(0, 0);
    (void)g.emptyCells();
    EXPECT_EQ(g.version(), v3);
}

TEST(OccupancyGrid, NearestEmptyMemoFollowsEveryMutation)
{
    // nearestEmpty memoizes its last answer on (target, empty-set
    // counter). Each check first asks for the memo's key as the
    // mutation left it — the previous check's last target {0,0}, or
    // the cell a walk targeted — so a missed invalidation answers
    // stale; then two more targets.
    OccupancyGrid g(4, 4);
    QubitId q = 0;
    for (std::int32_t r = 0; r < 4; ++r)
        for (std::int32_t c = 0; c < 4; ++c)
            if (!(r == 3 && c == 3))
                g.place(q++, {r, c}); // qubit id = 4 * row + col
    const auto check = [&](const char *what, const Coord &key) {
        for (const Coord t : {key, Coord{3, 0}, Coord{0, 0}})
            EXPECT_EQ(g.nearestEmpty(t), bruteNearest(g, t))
                << what << " target " << t;
    };
    check("initial", {0, 0});
    g.remove(5); // (1,1)
    check("remove", {0, 0});
    g.place(q++, {1, 1});
    check("place", {0, 0});
    g.relocate(0, {3, 3});
    check("relocate", {0, 0});
    g.makeRoomAt({0, 3}); // walks the (0,0) hole across row 0
    check("makeRoomAt", {0, 3});
    std::uint64_t empties = g.emptySetVersion();
    g.moveInto(g.at({3, 0}), {0, 2}); // the (0,3) hole is nearer: a walk
    EXPECT_NE(g.emptySetVersion(), empties) << "not a walk";
    check("moveInto walk", {0, 2});
    empties = g.emptySetVersion();
    const Coord hole = *g.nearestEmpty({3, 1}); // (3,0), q's old cell
    g.moveInto(g.at({2, 1}), {3, 1}); // own cell wins the row tie
    EXPECT_EQ(g.emptySetVersion(), empties) << "not a rotation";
    EXPECT_EQ(*g.nearestEmpty({3, 1}), hole);
    check("moveInto rotation", {3, 1});
    g.remove(g.at({1, 0}));
    check("remove after rotation", {0, 0});
}

// ---- moveInto -----------------------------------------------------------
//
// moveInto(q, dest) must leave exactly what remove(q); makeRoomAt(dest);
// place(q, dest) leaves — layout, step count and the listener's event
// sequence — in every branch. emptySetVersion() tells the branches apart:
// only a rotation leaves it alone.

struct CellEvent
{
    bool occupied;
    QubitId q;
    Coord c;

    friend bool operator==(const CellEvent &, const CellEvent &) = default;
};

std::ostream &
operator<<(std::ostream &os, const CellEvent &e)
{
    return os << (e.occupied ? "occupy " : "vacate ") << e.q << "@" << e.c;
}

class EventLog final : public CellListener
{
  public:
    void
    onCellOccupied(QubitId q, const Coord &c) override
    {
        events.push_back({true, q, c});
    }

    void
    onCellVacated(QubitId q, const Coord &c) override
    {
        events.push_back({false, q, c});
    }

    std::vector<CellEvent> events;
};

/** rows x cols grid, every cell but @p holes filled with 100 + index. */
OccupancyGrid
filledExcept(std::int32_t rows, std::int32_t cols,
             std::initializer_list<Coord> holes)
{
    OccupancyGrid g(rows, cols);
    for (std::int32_t r = 0; r < rows; ++r)
        for (std::int32_t c = 0; c < cols; ++c) {
            bool hole = false;
            for (const Coord &h : holes)
                hole = hole || h == Coord{r, c};
            if (!hole)
                g.place(100 + r * cols + c, {r, c});
        }
    return g;
}

/**
 * Run moveInto on a copy of @p start and the unfused sequence on
 * another, assert they agree, and return whether the empty set changed.
 */
bool
expectMoveIntoMatchesUnfused(const OccupancyGrid &start, const Coord &from,
                             const Coord &dest)
{
    OccupancyGrid fused = start;
    OccupancyGrid unfused = start;
    EventLog fused_log;
    EventLog unfused_log;
    fused.setCellListener(&fused_log);
    unfused.setCellListener(&unfused_log);
    const QubitId q = start.at(from);

    // The three-argument form, given q's cell, must do the same.
    OccupancyGrid given_src = start;
    EventLog given_src_log;
    given_src.setCellListener(&given_src_log);

    const std::uint64_t empties = fused.emptySetVersion();
    const std::int32_t steps = fused.moveInto(q, dest);
    unfused.remove(q);
    const std::int32_t want = unfused.makeRoomAt(dest);
    unfused.place(q, dest);

    EXPECT_EQ(steps, want);
    EXPECT_EQ(given_src.moveInto(q, from, dest), want);
    EXPECT_EQ(fused_log.events, unfused_log.events);
    EXPECT_EQ(given_src_log.events, unfused_log.events);
    EXPECT_EQ(fused.locate(q), dest);
    for (std::int32_t r = 0; r < start.rows(); ++r)
        for (std::int32_t c = 0; c < start.cols(); ++c) {
            EXPECT_EQ(fused.at({r, c}), unfused.at({r, c}))
                << "cell " << Coord{r, c};
            EXPECT_EQ(given_src.at({r, c}), unfused.at({r, c}))
                << "cell " << Coord{r, c};
            if (fused.at({r, c}) != kNoQubit) {
                EXPECT_EQ(fused.locate(fused.at({r, c})), (Coord{r, c}));
                EXPECT_EQ(given_src.locate(fused.at({r, c})),
                          (Coord{r, c}));
            }
        }
    EXPECT_EQ(fused.emptyCells(), unfused.emptyCells());
    EXPECT_EQ(given_src.emptyCells(), unfused.emptyCells());
    EXPECT_EQ(fused.occupiedCount(), unfused.occupiedCount());
    EXPECT_EQ(given_src.emptySetVersion() - start.emptySetVersion(),
              fused.emptySetVersion() - empties);
    // The memo and the index agree with a fresh scan afterwards.
    for (std::int32_t r = 0; r < start.rows(); ++r)
        for (std::int32_t c = 0; c < start.cols(); ++c)
            EXPECT_EQ(fused.nearestEmpty({r, c}),
                      bruteNearest(fused, {r, c}));
    return fused.emptySetVersion() != empties;
}

TEST(OccupancyGridMoveInto, AlreadyAtDestinationMovesNothing)
{
    const OccupancyGrid g = filledExcept(3, 3, {{2, 2}});
    OccupancyGrid moved = g;
    const std::uint64_t version = moved.version();
    EXPECT_EQ(moved.moveInto(moved.at({1, 0}), {1, 0}), 0);
    EXPECT_EQ(moved.version(), version);
    // The listener still sees the vacate/occupy pair of the unfused
    // sequence.
    EXPECT_FALSE(expectMoveIntoMatchesUnfused(g, {1, 0}, {1, 0}));
}

TEST(OccupancyGridMoveInto, OwnCellNearestIsARotation)
{
    // Hole at (2,2); q at (0,2) moves to (0,0): once q leaves, its own
    // cell (2 away) beats the hole (4 away), so (0,1) and (0,0) shift
    // right and the empty set is unchanged.
    const OccupancyGrid g = filledExcept(3, 3, {{2, 2}});
    EXPECT_FALSE(expectMoveIntoMatchesUnfused(g, {0, 2}, {0, 0}));
    // A longer walk, rows first: up column 2, then along row 0.
    const OccupancyGrid h = filledExcept(4, 4, {{3, 3}});
    EXPECT_FALSE(expectMoveIntoMatchesUnfused(h, {2, 2}, {0, 0}));
}

TEST(OccupancyGridMoveInto, FullGridIsARotation)
{
    const OccupancyGrid g = filledExcept(2, 3, {});
    EXPECT_FALSE(expectMoveIntoMatchesUnfused(g, {1, 2}, {0, 0}));
}

TEST(OccupancyGridMoveInto, NearerHoleWalksInstead)
{
    // Hole (1,0) is 1 from dest (0,0); q's cell (2,2) is 4 away: the
    // hole walks up to dest and q's old cell stays empty.
    const OccupancyGrid g = filledExcept(3, 3, {{1, 0}});
    EXPECT_TRUE(expectMoveIntoMatchesUnfused(g, {2, 2}, {0, 0}));
}

TEST(OccupancyGridMoveInto, DistanceTiesBreakByRowThenColumn)
{
    // dest (1,1); q's cell and the hole are both 2 away (rows differ):
    // the smaller row wins.
    EXPECT_FALSE(expectMoveIntoMatchesUnfused(
        filledExcept(3, 3, {{2, 0}}), {0, 2}, {1, 1}));
    EXPECT_TRUE(expectMoveIntoMatchesUnfused(
        filledExcept(3, 3, {{0, 2}}), {2, 0}, {1, 1}));
    // Both 1 away in row 1: the smaller column wins.
    EXPECT_FALSE(expectMoveIntoMatchesUnfused(
        filledExcept(3, 3, {{1, 2}}), {1, 0}, {1, 1}));
    EXPECT_TRUE(expectMoveIntoMatchesUnfused(
        filledExcept(3, 3, {{1, 0}}), {1, 2}, {1, 1}));
}

TEST(OccupancyGridMoveInto, EmptyDestinationIsARelocation)
{
    const OccupancyGrid g = filledExcept(3, 3, {{2, 2}});
    EXPECT_TRUE(expectMoveIntoMatchesUnfused(g, {0, 0}, {2, 2}));
}

TEST(OccupancyGridMoveInto, RejectsBadArguments)
{
    OccupancyGrid g = filledExcept(2, 2, {{1, 1}});
    EXPECT_THROW(g.moveInto(7, {0, 0}), ConfigError); // not placed
    EXPECT_THROW(g.moveInto(100, {2, 0}), ConfigError);
    EXPECT_THROW(g.moveInto(100, {0, 0}, {2, 0}), ConfigError);
    // A source cell that does not hold the qubit is a caller bug.
    EXPECT_THROW(g.moveInto(100, {0, 1}, {1, 0}), InternalError);
    EXPECT_EQ(g.locate(100), (Coord{0, 0}));
}

// ---- makeRoomAt with a known hole ------------------------------------------
//
// makeRoomAt(dest, hole) walks the same two straight segments (the
// hole's column to dest's row, then dest's row) as the one-argument
// form. Pinned against a step-by-step walk over a plain cell array.

/** Cell contents of @p g, row-major. */
std::vector<QubitId>
cellsOf(const OccupancyGrid &g)
{
    std::vector<QubitId> cells;
    for (std::int32_t r = 0; r < g.rows(); ++r)
        for (std::int32_t c = 0; c < g.cols(); ++c)
            cells.push_back(g.at({r, c}));
    return cells;
}

/**
 * Reference hole walk: one unit step at a time, row first while the
 * rows differ, the next cell's occupant moving back into the hole.
 * Applies the walk to @p cells (row-major, @p cols wide) and returns
 * the cell events it makes.
 */
std::vector<CellEvent>
referenceWalk(std::vector<QubitId> &cells, std::int32_t cols, Coord hole,
              const Coord &dest)
{
    std::vector<CellEvent> events;
    const auto at = [&](const Coord &c) -> QubitId & {
        return cells[static_cast<std::size_t>(c.row * cols + c.col)];
    };
    while (!(hole == dest)) {
        Coord next = hole;
        if (next.row != dest.row)
            next.row += dest.row > next.row ? 1 : -1;
        else
            next.col += dest.col > next.col ? 1 : -1;
        const QubitId occupant = at(next);
        at(hole) = occupant;
        at(next) = kNoQubit;
        events.push_back({false, occupant, next});
        events.push_back({true, occupant, hole});
        hole = next;
    }
    return events;
}

TEST(OccupancyGridMakeRoom, KnownHoleWalksMatchAStepByStepWalk)
{
    // One hole in a full 4 x 5 grid is the nearest hole to every cell,
    // so every (hole, dest) pair is a legal walk: up, down, left and
    // right, pure-row, pure-column and both segments together.
    const std::int32_t rows = 4;
    const std::int32_t cols = 5;
    std::size_t pure_row = 0;
    std::size_t pure_col = 0;
    for (std::int32_t hr = 0; hr < rows; ++hr)
        for (std::int32_t hc = 0; hc < cols; ++hc) {
            const Coord hole{hr, hc};
            const OccupancyGrid start = filledExcept(rows, cols, {hole});
            for (std::int32_t dr = 0; dr < rows; ++dr)
                for (std::int32_t dc = 0; dc < cols; ++dc) {
                    const Coord dest{dr, dc};
                    SCOPED_TRACE(::testing::Message()
                                 << "hole " << hole << " dest " << dest);
                    pure_row += hr == dr && hc != dc;
                    pure_col += hc == dc && hr != dr;
                    std::vector<QubitId> want = cellsOf(start);
                    const std::vector<CellEvent> want_events =
                        referenceWalk(want, cols, hole, dest);

                    OccupancyGrid known = start;
                    OccupancyGrid queried = start;
                    EventLog known_log;
                    EventLog queried_log;
                    known.setCellListener(&known_log);
                    queried.setCellListener(&queried_log);
                    ASSERT_EQ(queried.nearestEmpty(dest), hole);
                    EXPECT_EQ(known.makeRoomAt(dest, hole),
                              manhattan(hole, dest));
                    EXPECT_EQ(queried.makeRoomAt(dest),
                              manhattan(hole, dest));
                    EXPECT_EQ(cellsOf(known), want);
                    EXPECT_EQ(cellsOf(queried), want);
                    EXPECT_EQ(known_log.events, want_events);
                    EXPECT_EQ(queried_log.events, want_events);
                    for (std::int32_t r = 0; r < rows; ++r)
                        for (std::int32_t c = 0; c < cols; ++c)
                            if (known.at({r, c}) != kNoQubit) {
                                EXPECT_EQ(known.locate(known.at({r, c})),
                                          (Coord{r, c}));
                            }
                    EXPECT_EQ(known.emptyCells(),
                              std::vector<Coord>{dest});
                    EXPECT_EQ(known.nearestEmpty({0, 0}), dest);
                }
        }
    EXPECT_EQ(pure_row, static_cast<std::size_t>(rows * cols * (cols - 1)));
    EXPECT_EQ(pure_col, static_cast<std::size_t>(cols * rows * (rows - 1)));
}

TEST(OccupancyGridMakeRoom, KnownHoleRejectsBadArguments)
{
    OccupancyGrid g = filledExcept(2, 2, {{1, 1}});
    EXPECT_THROW(g.makeRoomAt({2, 0}, {1, 1}), ConfigError);
    EXPECT_THROW(g.makeRoomAt({0, 0}, {0, 1}), ConfigError); // occupied
    EXPECT_THROW(g.makeRoomAt({0, 0}, {0, 2}), ConfigError);
    // An empty destination is its own hole: nothing walks.
    OccupancyGrid h = g;
    EXPECT_EQ(h.makeRoomAt({1, 1}, {1, 1}), 0);
    EXPECT_EQ(cellsOf(h), cellsOf(g));
}

TEST(OccupancyGrid, EmptyCellsRowMajor)
{
    OccupancyGrid g(2, 2);
    g.place(1, {0, 1});
    g.place(2, {1, 0});
    const auto empties = g.emptyCells();
    ASSERT_EQ(empties.size(), 2u);
    EXPECT_EQ(empties[0], (Coord{0, 0}));
    EXPECT_EQ(empties[1], (Coord{1, 1}));
}

// ---- accessor contracts -----------------------------------------------------
//
// The cell and position accessors are defined in grid.h so they inline
// into the bank cost models; their checks must stay in every build.

TEST(OccupancyGrid, CellAccessOutOfRangeThrowsInternalError)
{
    OccupancyGrid g(2, 3);
    for (const Coord c : {Coord{-1, 0}, Coord{0, -1}, Coord{2, 0},
                          Coord{0, 3}, Coord{5, 5}}) {
        EXPECT_THROW((void)g.at(c), InternalError)
            << "(" << c.row << "," << c.col << ")";
        EXPECT_THROW((void)g.isEmptyCell(c), InternalError)
            << "(" << c.row << "," << c.col << ")";
    }
    EXPECT_THROW(g.place(1, {2, 0}), InternalError);
    EXPECT_EQ(g.occupiedCount(), 0);
}

TEST(OccupancyGrid, FindOutsideThePositionTableIsNullopt)
{
    OccupancyGrid g(2, 2);
    EXPECT_FALSE(g.find(-1).has_value());
    EXPECT_FALSE(g.find(0).has_value()); // empty table
    g.place(3, {1, 1});
    EXPECT_FALSE(g.find(-1).has_value());
    EXPECT_FALSE(g.find(2).has_value()); // inside the table, unplaced
    EXPECT_FALSE(g.find(4).has_value()); // one past the table
    EXPECT_FALSE(g.find(1000).has_value());
    EXPECT_EQ(g.find(3), (Coord{1, 1}));
    EXPECT_THROW(g.locate(-1), ConfigError);
    EXPECT_THROW(g.locate(4), ConfigError);
}

TEST(OccupancyGrid, OccupiedDestinationThrowsConfigError)
{
    OccupancyGrid g(2, 2);
    g.place(1, {0, 0});
    g.place(2, {0, 1});
    EXPECT_THROW(g.place(3, {0, 1}), ConfigError);
    EXPECT_THROW(g.relocate(1, {0, 1}), ConfigError);
    EXPECT_THROW(g.place(-2, {1, 0}), ConfigError); // invalid qubit id
    // The failed mutations left the grid as it was.
    EXPECT_EQ(g.locate(1), (Coord{0, 0}));
    EXPECT_EQ(g.locate(2), (Coord{0, 1}));
    EXPECT_FALSE(g.find(3).has_value());
    EXPECT_EQ(g.occupiedCount(), 2);
}

TEST(OccupancyGrid, ContainsBounds)
{
    OccupancyGrid g(2, 3);
    EXPECT_TRUE(g.contains({0, 0}));
    EXPECT_TRUE(g.contains({1, 2}));
    EXPECT_FALSE(g.contains({-1, 0}));
    EXPECT_FALSE(g.contains({2, 0}));
    EXPECT_FALSE(g.contains({0, 3}));
}

} // namespace
} // namespace lsqca
