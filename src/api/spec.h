#ifndef LSQCA_API_SPEC_H
#define LSQCA_API_SPEC_H

/**
 * @file
 * Declarative sweep specifications: an experiment as data.
 *
 * A SweepSpec describes a sweep as an ordered list of axes whose
 * cartesian product (first axis outermost) expands deterministically
 * into the job vector the SweepEngine runs. Exactly one axis enumerates
 * benchmarks (registry name + parameter object + optional instruction
 * prefix); the others patch the architecture configuration — either
 * explicit point lists (partial ArchConfig objects) or scalar grid
 * shorthand (`{"axis": "factories", "values": [1, 2, 4]}`). Later axes
 * override earlier ones field-by-field, so a spec composes like the
 * nested loops it replaces.
 *
 * Job names come from a template (`"{benchmark}/{machine}/f{factories}"`)
 * whose placeholders are axis labels; each axis value contributes a
 * fragment (explicit `"name"`, or a derived default). `{arch}` expands
 * to the final merged config's label().
 *
 * Sharding: a contiguous `i/N` slice of the expanded vector. Shards
 * partition the job list exactly, so the merged BENCH document equals
 * the unsharded one (byte-identical under --no-timing).
 *
 * JSON schema: `lsqca-spec-v1`, documented in docs/SPEC.md with
 * runnable examples under specs/.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/job_cache.h"
#include "api/registry.h"
#include "common/json.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "translate/translate.h"

namespace lsqca::api {

/** One cell of one axis: a partial assignment merged into a point. */
struct AxisValue
{
    /** Name fragment for the template ("" = derived default). */
    std::string name;
    /** Benchmark registry name ("" on non-benchmark axes). */
    std::string bench;
    /** Benchmark parameters (null = defaults). */
    Json params;
    /** Instruction prefix override (maxInstructions). */
    std::optional<std::int64_t> prefix;
    /**
     * Partial ArchConfig patch (null = none). `"hybrid_fraction"` may
     * be the string "hot": it resolves to the benchmark's hot-set
     * fraction at expansion time (Fig. 15's pinned registers).
     */
    Json arch;
    /** Partial TranslateOptions patch (null = none). */
    Json translate;
    /** Set when parsed from scalar grid shorthand (round-trips). */
    Json scalar;
};

/** An ordered sweep dimension. */
struct SweepAxis
{
    /** Unique label; the template placeholder `{label}`. */
    std::string label;
    std::vector<AxisValue> values;
};

/** A declarative sweep: benchmarks x architecture grid x options. */
struct SweepSpec
{
    /** Sweep name; BENCH output lands in BENCH_<name>.json. */
    std::string name;
    /** Job-name template ("" = join all fragments with '/'). */
    std::string nameTemplate;
    /** Partial ArchConfig applied to every point before axis patches. */
    Json archBase;
    /** Record memory/magic traces on every job. */
    bool recordTrace = false;
    /**
     * Collect per-opcode latency breakdowns on every job; the sweep's
     * BENCH document then uses schema `lsqca-bench-v2` with a
     * "breakdown" array per entry (v1 otherwise, byte-identical to
     * pre-breakdown output).
     */
    bool recordBreakdown = false;
    /** Outermost axis first. */
    std::vector<SweepAxis> axes;

    /** Parse a lsqca-spec-v1 document (strict). @throws ConfigError. */
    static SweepSpec fromJson(const Json &doc);

    /** fromJson(Json::load(path)). @throws ConfigError. */
    static SweepSpec load(const std::string &path);

    /** Serialize back to a lsqca-spec-v1 document. */
    Json toJson() const;
};

/** One expanded sweep point, before program resolution. */
struct ExpandedJob
{
    std::string name;
    std::string bench;
    /** Canonical benchmark parameters (defaults filled in). */
    Json params;
    TranslateOptions translate;
    SimOptions options;
};

/** A contiguous `index/count` slice of an expanded job vector. */
struct ShardRange
{
    std::int32_t index = 0;
    std::int32_t count = 1;

    bool isWhole() const { return count <= 1; }

    /** Parse "i/N" with 0 <= i < N. @throws ConfigError. */
    static ShardRange parse(const std::string &text);

    /** [begin, end) of this shard over @p total jobs. */
    std::pair<std::size_t, std::size_t> bounds(std::size_t total) const;
};

/**
 * Parse a `--threads` value: an integer worker count in [0, 4096]
 * (0 = hardware concurrency). Shared by every sweep front end so the
 * flag can't drift between the CLI and the benches.
 * @throws ConfigError.
 */
std::int32_t parseThreadCount(const std::string &text);

/**
 * Parse a `--timeout-seconds` value: a number of wall seconds in
 * (0, 1e9]. @throws ConfigError.
 */
double parseTimeoutSeconds(const std::string &text);

/**
 * Parse a `--seed-check` value: a 16-hex-digit shard fingerprint as
 * produced by shardFingerprint(). @throws ConfigError.
 */
std::string parseFingerprintArg(const std::string &text);

/**
 * Simulator behavior epoch, folded into every shard fingerprint.
 * Bump it whenever a change alters the metrics a sweep produces
 * (cost models, kernels, translation) so shared result caches from
 * older builds miss instead of silently serving stale numbers.
 */
inline constexpr std::int64_t kEngineEpoch = 1;

/** Exit code of a worker whose `--timeout-seconds` budget expired. */
inline constexpr int kTimeoutExitCode = 124;

/** Exit code of the test-only `--die-after` crash hook. */
inline constexpr int kDieAfterExitCode = 75;

/**
 * Canonical content manifest of one shard: the bench schema version,
 * the shard slice geometry, and every job in the slice with its fully
 * canonicalized parameters/options (schema `lsqca-shard-v1`). Two
 * shards with equal manifests produce byte-identical BENCH documents
 * under --no-timing, which is what makes the manifest's hash a safe
 * content-address for the result cache.
 */
Json shardManifest(const SweepSpec &spec,
                   const std::vector<ExpandedJob> &jobs,
                   const ShardRange &shard, bool noTiming);

/** contentFingerprint() of shardManifest().dump(0): the cache key. */
std::string shardFingerprint(const SweepSpec &spec,
                             const std::vector<ExpandedJob> &jobs,
                             const ShardRange &shard, bool noTiming);

/** shardFingerprint() for every shard of an `N`-way partition. */
std::vector<std::string>
shardFingerprints(const SweepSpec &spec,
                  const std::vector<ExpandedJob> &jobs,
                  std::int32_t shardCount, bool noTiming);

/**
 * Canonical content manifest of ONE job (schema `lsqca-job-v1`): the
 * bench schema version, the engine epoch, the --no-timing flag, and
 * the job's fully canonicalized benchmark params, translate options,
 * and sim options. Deliberately excludes the sweep name and
 * any shard geometry, so the same grid point hits the same job-cache
 * entry across campaigns, shard counts, and spec edits that merely
 * add neighbours — the incremental-recompute property shard
 * fingerprints cannot provide. Doubles as the provenance record
 * stored beside each cached entry.
 */
Json jobManifest(const SweepSpec &spec, const ExpandedJob &job,
                 bool noTiming);

/** contentFingerprint() of jobManifest().dump(0): the job-cache key. */
std::string jobFingerprint(const SweepSpec &spec, const ExpandedJob &job,
                           bool noTiming);

/** jobFingerprint() for every job, aligned with @p jobs. */
std::vector<std::string>
jobFingerprints(const SweepSpec &spec, const std::vector<ExpandedJob> &jobs,
                bool noTiming);

/**
 * Expand the spec's cartesian product into the full job vector, in
 * deterministic order (first axis outermost). Validates benchmark
 * names/params against @p registry and resolves "hot" hybrid
 * fractions; programs are not synthesized.
 */
std::vector<ExpandedJob> expandSpec(const SweepSpec &spec,
                                    const BenchmarkRegistry &registry);

/**
 * The BENCH document of one slice of a @p total-job sweep, built from
 * its entries in slice order. The schema is lsqca-bench-v2 when the
 * spec records breakdowns (so an empty shard of a breakdown sweep
 * still merges with its siblings) or any entry carries a "breakdown";
 * a slice that is not the whole sweep gets the `shard` marker
 * mergeBenchReports validates. runSpec and the campaign cache pass
 * both assemble documents here, so a slice spliced from cached
 * entries is byte-identical to one a worker simulated.
 */
Json sliceDocument(const SweepSpec &spec, Json entries,
                   const ShardRange &range, std::size_t total,
                   std::int32_t threads, double wallSeconds);

/** Options for runSpec. */
struct RunSpecOptions
{
    /** Sweep workers; 0 = hardware concurrency. */
    std::int32_t threads = 0;
    /** Where BENCH_<name>.json lands. */
    std::string outDir = "bench/out";
    /** Contiguous slice to run (whole sweep by default). */
    ShardRange shard;
    /**
     * Zero wall-clock fields and the thread count in the BENCH
     * document, making output deterministic (shard-merge equals the
     * unsharded run byte-for-byte).
     */
    bool noTiming = false;
    /** Write BENCH_<name>.json (and log a summary line to stderr). */
    bool writeJson = true;
    /**
     * Abort the process (exit kTimeoutExitCode) when the run exceeds
     * this many wall seconds (0 = no limit). Covers synthesis,
     * simulation, and output; the orchestrator passes it through to
     * workers so a wedged shard self-terminates.
     */
    double timeoutSeconds = 0.0;
    /**
     * When non-empty: the shard fingerprint this run is expected to
     * expand to; a mismatch throws ConfigError before any simulation.
     * The orchestrator passes it to workers so a spec or registry that
     * changed after the campaign was queued fails fast instead of
     * poisoning the merge.
     */
    std::string seedCheck;
    /**
     * Test-only crash hook: simulate the first N jobs of the slice,
     * then exit kDieAfterExitCode without writing output (-1 = off).
     * Lets tests kill a worker mid-shard deterministically.
     */
    std::int64_t dieAfter = -1;
    /**
     * Optional observability registry handed to the sweep engine
     * (must outlive the call); `lsqca run --metrics FILE` uses it to
     * snapshot sweep/pool instruments after the run. Null (the
     * default) keeps the run instrumentation-free (docs/METRICS.md).
     */
    metrics::Registry *metrics = nullptr;
    /**
     * Optional job-granularity result cache (must outlive the call).
     * When attached, each job in the slice is looked up by its
     * jobFingerprint() before program resolution: hits splice the
     * cached BENCH entry into the document (the job is neither
     * synthesized nor simulated), misses run normally and store their
     * entry plus provenance afterwards. The output bytes are the same
     * with or without a cache; null (the default) simulates every job.
     */
    JobCacheClient *jobCache = nullptr;
};

/** Outcome of runSpec: the slice run, its results, and the report. */
struct SpecRun
{
    /** The expanded jobs of the slice (cached AND computed). */
    std::vector<ExpandedJob> expanded;
    /**
     * Jobs handed to the engine (programs owned by the registry).
     * With a job cache attached this holds only the *computed* jobs;
     * report.results stays aligned with it.
     */
    std::vector<SweepJob> jobs;
    SweepReport report;
    /** The BENCH document (carries shard info when sharded). */
    Json document;
    /** Where the document landed ("" when writeJson was off). */
    std::string jsonPath;
    /** Slice jobs served from the job cache (0 without a cache). */
    std::int64_t jobCacheHits = 0;
    /** Slice jobs actually simulated. */
    std::int64_t jobsComputed = 0;
};

/**
 * The single entry point every sweep goes through: expand, slice,
 * resolve programs via @p registry (memoized translation), fan out
 * over the SweepEngine, and build/write the BENCH document.
 */
SpecRun runSpec(const SweepSpec &spec, BenchmarkRegistry &registry,
                const RunSpecOptions &options = {});

/**
 * Merge shard BENCH documents back into the unsharded document: shard
 * slices are validated to partition the sweep (every index 0..N-1
 * exactly once), entries concatenate in shard order, wall-clock sums,
 * and the shard marker is dropped. Documents without shard markers
 * concatenate in argument order. Duplicate entry names are rejected
 * with an error naming both positions (@p labels, when given, must
 * parallel @p docs and supplies the source name per document —
 * typically its file path). Accepts `lsqca-bench-v1` and
 * `lsqca-bench-v2` documents; all inputs must share one schema, which
 * the merged document keeps.
 */
Json mergeBenchReports(const std::vector<Json> &docs,
                       const std::vector<std::string> &labels = {});

} // namespace lsqca::api

#endif // LSQCA_API_SPEC_H
