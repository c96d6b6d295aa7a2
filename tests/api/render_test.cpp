/**
 * @file
 * specs::renderFigure: the paper's tables from a BENCH document. The
 * Fig. 13 rendering is pinned against tests/golden/fig13_tables.txt,
 * the document of the checked-in specs/fig13.json renders like the
 * builtin's, and documents of any other sweep (a shard, a renamed
 * entry, the smoke sweep) are refused.
 */

#include <gtest/gtest.h>

#include <string>

#include "api/paper_specs.h"
#include "api/spec.h"
#include "common/error.h"
#include "common/fs.h"

namespace lsqca::api {
namespace {

/** The --no-timing BENCH document of @p spec (or of one shard). */
Json
runDocument(const SweepSpec &spec, const ShardRange &shard = {})
{
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    RunSpecOptions options;
    options.threads = 4;
    options.noTiming = true;
    options.writeJson = false;
    options.shard = shard;
    return runSpec(spec, registry, options).document;
}

TEST(RenderFigure, Fig13MatchesTheGoldenTables)
{
    EXPECT_EQ(specs::renderFigure(runDocument(specs::fig13())),
              fsutil::readFile(LSQCA_SOURCE_DIR
                               "/tests/golden/fig13_tables.txt"));
}

TEST(RenderFigure, SpecFileDocumentRendersLikeTheBuiltin)
{
    const Json fromFile = runDocument(
        SweepSpec::load(LSQCA_SOURCE_DIR "/specs/fig13.json"));
    ASSERT_EQ(fromFile.at("bench").asString(), "fig13_cpi");
    EXPECT_EQ(specs::renderFigure(fromFile),
              specs::renderFigure(runDocument(specs::fig13())));
}

TEST(RenderFigure, RefusesDocumentsOfOtherSweeps)
{
    EXPECT_THROW(specs::renderFigure(runDocument(
                     specs::fig13(), ShardRange::parse("0/2"))),
                 ConfigError);

    std::string renamed = runDocument(specs::fig13()).dump();
    const std::string name = "\"ghz/line#2/f2\"";
    const std::size_t at = renamed.find(name);
    ASSERT_NE(at, std::string::npos);
    renamed.replace(at, name.size(), "\"ghz/line#3/f2\"");
    EXPECT_THROW(specs::renderFigure(Json::parse(renamed)), ConfigError);

    EXPECT_THROW(specs::renderFigure(runDocument(specs::smoke())),
                 ConfigError);
}

} // namespace
} // namespace lsqca::api
