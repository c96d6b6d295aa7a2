/**
 * @file
 * bench::parseArgs must fail fast: an unknown flag or a missing value
 * exits non-zero instead of silently running the wrong experiment.
 */

#include <gtest/gtest.h>

#include "bench_util.h"

namespace lsqca::bench {
namespace {

BenchArgs
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "bench");
    return parseArgs(static_cast<int>(argv.size()),
                     const_cast<char **>(argv.data()));
}

TEST(BenchArgs, ParsesTheSupportedFlags)
{
    const BenchArgs args =
        parse({"--csv", "csvdir", "--full", "--out", "outdir", "--smoke"});
    ASSERT_TRUE(args.csvDir.has_value());
    EXPECT_EQ(*args.csvDir, "csvdir");
    EXPECT_TRUE(args.full);
    EXPECT_EQ(args.outDir, "outdir");
    EXPECT_TRUE(args.smoke);
}

TEST(BenchArgsDeathTest, RejectsUnknownArguments)
{
    EXPECT_EXIT(parse({"--theads", "4"}),
                testing::ExitedWithCode(2), "unknown argument");
    EXPECT_EXIT(parse({"extra"}), testing::ExitedWithCode(2),
                "unknown argument");
    // The sweep flags belong to `lsqca run`, not to the table benches.
    EXPECT_EXIT(parse({"--threads", "4"}), testing::ExitedWithCode(2),
                "unknown argument");
}

TEST(BenchArgsDeathTest, RejectsMissingValues)
{
    EXPECT_EXIT(parse({"--csv"}), testing::ExitedWithCode(2),
                "missing value");
    EXPECT_EXIT(parse({"--out"}), testing::ExitedWithCode(2),
                "missing value");
}

} // namespace
} // namespace lsqca::bench
