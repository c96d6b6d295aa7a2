#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** A mixed job list exercising all three machine kinds. */
std::vector<SweepJob>
mixedJobs(const Program &program)
{
    std::vector<SweepJob> jobs;
    auto add = [&](const char *name, SamKind sam, std::int32_t banks,
                   double hybrid) {
        SweepJob job;
        job.name = name;
        job.program = &program;
        job.options.arch.sam = sam;
        job.options.arch.banks = banks;
        job.options.arch.hybridFraction = hybrid;
        jobs.push_back(job);
    };
    add("conv", SamKind::Conventional, 1, 0.0);
    add("point1", SamKind::Point, 1, 0.0);
    add("point2", SamKind::Point, 2, 0.0);
    add("line1", SamKind::Line, 1, 0.0);
    add("line4", SamKind::Line, 4, 0.0);
    add("hybrid", SamKind::Line, 2, 0.25);
    return jobs;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.execBeats, b.execBeats);
    EXPECT_EQ(a.instructionsSimulated, b.instructionsSimulated);
    EXPECT_EQ(a.countedInstructions, b.countedInstructions);
    EXPECT_EQ(a.cpi, b.cpi); // bitwise: same division, same inputs
    EXPECT_EQ(a.magicConsumed, b.magicConsumed);
    EXPECT_EQ(a.magicStallBeats, b.magicStallBeats);
    EXPECT_EQ(a.memoryBeats, b.memoryBeats);
    EXPECT_EQ(a.opcodeCount, b.opcodeCount);
    EXPECT_EQ(a.opcodeBeats, b.opcodeBeats);
    EXPECT_EQ(a.density(), b.density());
}

TEST(SweepEngine, ParallelSweepsAreBitIdenticalToSerial)
{
    const Program program = translate(lowerToCliffordT(makeAdder(8)));
    const auto jobs = mixedJobs(program);

    // Direct serial reference, bypassing the engine entirely.
    std::vector<SimResult> reference;
    for (const auto &job : jobs)
        reference.push_back(simulate(*job.program, job.options));

    for (std::int32_t threads : {1, 2, 8}) {
        SweepEngine engine({threads});
        const SweepReport report = engine.run(jobs);
        ASSERT_EQ(report.results.size(), jobs.size());
        EXPECT_EQ(report.threads, threads);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdentical(report.results[i], reference[i]);
    }
}

TEST(SweepEngine, ResultsStayInSubmissionOrder)
{
    // Jobs of wildly different sizes: the large one finishes last on a
    // multi-worker pool, but must stay in its submission slot.
    const Program small = translate(lowerToCliffordT(makeGhz(4)));
    const Program large = translate(lowerToCliffordT(makeAdder(12)));
    std::vector<SweepJob> jobs;
    SweepJob job;
    job.options.arch.sam = SamKind::Point;
    job.name = "large";
    job.program = &large;
    jobs.push_back(job);
    job.name = "small";
    job.program = &small;
    jobs.push_back(job);

    SweepEngine engine({4});
    const SweepReport report = engine.run(jobs);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].instructionsSimulated, large.size());
    EXPECT_EQ(report.results[1].instructionsSimulated, small.size());
}

TEST(SweepEngine, EmptyJobListYieldsEmptyReport)
{
    SweepEngine engine({2});
    const SweepReport report = engine.run({});
    EXPECT_TRUE(report.results.empty());
    EXPECT_TRUE(report.jobSeconds.empty());
}

TEST(SweepEngine, JobExceptionPropagates)
{
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    std::vector<SweepJob> jobs;
    SweepJob ok;
    ok.name = "ok";
    ok.program = &program;
    ok.options.arch.sam = SamKind::Point;
    jobs.push_back(ok);
    SweepJob bad = ok;
    bad.name = "bad";
    bad.options.arch.banks = 3; // invalid for point SAM
    jobs.push_back(bad);
    SweepEngine engine({2});
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

TEST(SweepEngine, RejectsNullProgram)
{
    std::vector<SweepJob> jobs(1);
    jobs[0].name = "null";
    SweepEngine engine({1});
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

TEST(SweepEngine, BenchReportSchema)
{
    const Program program = translate(lowerToCliffordT(makeGhz(4)));
    std::vector<SweepJob> jobs;
    SweepJob job;
    job.name = "ghz/point#1";
    job.program = &program;
    job.options.arch.sam = SamKind::Point;
    jobs.push_back(job);
    SweepEngine engine({1});
    const SweepReport report = engine.run(jobs);
    Json entries = Json::array();
    entries.push(benchEntry(jobs[0].name, report.results[0],
                            report.jobSeconds[0]));
    const Json doc = benchDocument("unit", std::move(entries),
                                   report.threads, report.wallSeconds,
                                   false);
    const std::string text = doc.dump(0);
    EXPECT_NE(text.find("\"schema\":\"lsqca-bench-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"bench\":\"unit\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"ghz/point#1\""), std::string::npos);
    EXPECT_NE(text.find("\"cpi\":"), std::string::npos);
    EXPECT_NE(text.find("\"exec_beats\":"), std::string::npos);
    EXPECT_NE(text.find("\"wall_seconds\":"), std::string::npos);
}

} // namespace
} // namespace lsqca
