#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

/**
 * @file
 * Correctness oracle for every workload, counted in the error rate.
 *
 *  - A per-job digest of the simulated statistics (cpi, exec_beats,
 *    memory_beats, magic_stall_beats, density) keyed by job name and
 *    recorded once into oracle/<spec>.tsv. A change that only makes the
 *    simulator faster must leave every digest identical.
 *  - The closed-form bound analysis::estimateResources(...)
 *    .lowerBoundBeats <= exec_beats on every job that simulates its
 *    whole program (the bound covers the whole program, so it does not
 *    apply to jobs with an instruction prefix).
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "common/json.h"

namespace perfbench {

/** Digest of one BENCH entry's simulated statistics, as serialized. */
std::string entryDigest(const lsqca::Json &entry);

/** lowerBoundBeats of every whole-program job, keyed by job name. */
using LowerBounds = std::unordered_map<std::string, std::int64_t>;

/**
 * Compute the lower bound of every job in @p jobs that has no
 * instruction prefix. Programs come from @p registry (built on first
 * use); the estimates run on @p threads workers.
 */
LowerBounds computeLowerBounds(const std::vector<lsqca::api::ExpandedJob> &jobs,
                               lsqca::api::BenchmarkRegistry &registry,
                               std::int32_t threads);

class Oracle
{
  public:
    /** Read `name<TAB>digest` lines. @throws ConfigError when unreadable. */
    static Oracle load(const std::string &path);

    /** Write the digests of every entry of @p document to @p path. */
    static void record(const std::string &path, const lsqca::Json &document);

    std::size_t size() const { return digests_.size(); }

    /**
     * Check one BENCH document: every oracle job present exactly once
     * with its recorded digest, and no job below its lower bound.
     * Returns the number of failed jobs; the first few problems are
     * appended to @p problems.
     */
    std::int64_t check(const lsqca::Json &document, const LowerBounds &bounds,
                       std::vector<std::string> &problems) const;

  private:
    std::unordered_map<std::string, std::string> digests_;
};

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
