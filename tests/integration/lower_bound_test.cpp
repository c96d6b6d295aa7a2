/**
 * @file
 * Model invariant across the paper's figure sweeps: the closed-form
 * execution-time bound of src/analysis (magic production vs dataflow
 * critical path) never exceeds the simulated exec_beats, on every job
 * of the default fig13 and fig14 specs.
 *
 * The bound covers the whole program, so only jobs that simulate the
 * whole program are checked. Jobs whose steady-state instruction
 * prefix is shorter than their program simulate less than the bound
 * covers and are excluded: 36 of fig13's 126 jobs and 510 of fig14's
 * 1785. A prefix at least as long as the program simulates all of it,
 * so those jobs stay in.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/estimator.h"
#include "api/paper_specs.h"
#include "api/spec.h"
#include "sweep/sweep.h"

namespace lsqca {
namespace {

struct FigureCase
{
    const char *spec;
    std::size_t jobs;
    std::size_t prefixed;
};

class LowerBound : public ::testing::TestWithParam<FigureCase>
{
};

TEST_P(LowerBound, NeverExceedsSimulatedExecBeats)
{
    const FigureCase &figure = GetParam();
    api::BenchmarkRegistry registry = api::BenchmarkRegistry::paper();
    const std::vector<api::ExpandedJob> expanded =
        api::expandSpec(api::specs::byName(figure.spec), registry);
    ASSERT_EQ(expanded.size(), figure.jobs);

    std::vector<SweepJob> jobs;
    for (const api::ExpandedJob &job : expanded) {
        const Program &program =
            registry.program(job.bench, job.params, job.translate);
        const std::int64_t prefix = job.options.maxInstructions;
        if (prefix != 0 && prefix < program.size())
            continue;
        jobs.push_back({job.name, &program, job.options});
    }
    EXPECT_EQ(expanded.size() - jobs.size(), figure.prefixed);

    const SweepReport report = SweepEngine({.threads = 2}).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ResourceEstimate bound =
            estimateResources(*jobs[i].program, jobs[i].options.arch);
        EXPECT_LE(bound.lowerBoundBeats, report.results[i].execBeats)
            << jobs[i].name;
    }
}

INSTANTIATE_TEST_SUITE_P(Figures, LowerBound,
                         ::testing::Values(FigureCase{"fig13", 126, 36},
                                           FigureCase{"fig14", 1785,
                                                      510}),
                         [](const auto &info) {
                             return std::string(info.param.spec);
                         });

} // namespace
} // namespace lsqca
