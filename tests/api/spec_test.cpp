/**
 * @file
 * SweepSpec tests: deterministic cartesian expansion (golden job
 * lists), JSON round trip, the builtin paper specs (including the
 * checked-in specs/ files matching their C++ builders), shard slicing
 * that partitions the sweep, and shard-merge == unsharded (byte
 * identical under --no-timing).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "api/paper_specs.h"
#include "api/serialize.h"
#include "api/spec.h"
#include "common/error.h"
#include "synth/benchmarks.h"

namespace lsqca::api {
namespace {

/** A 2x2x2 toy spec exercising every axis feature. */
SweepSpec
toySpec()
{
    return SweepSpec::fromJson(Json::parse(R"({
      "schema": "lsqca-spec-v1",
      "name": "toy",
      "name_template": "{benchmark}/{machine}/f{factories}",
      "axes": [
        {"axis": "factories", "values": [1, 2]},
        {"axis": "benchmark", "values": [
          {"bench": "ghz", "params": {"num_qubits": 8}},
          {"name": "S4", "bench": "select", "params": {"width": 4},
           "prefix": 100}
        ]},
        {"axis": "machine", "values": [
          {"arch": {"sam": "point", "banks": 1}},
          {"name": "conv", "arch": {"sam": "conventional"}}
        ]}
      ]
    })"));
}

TEST(SweepSpec, ExpandsInDeterministicOrder)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const auto jobs = expandSpec(toySpec(), registry);
    const std::vector<std::string> expected = {
        "ghz/point#1/f1", "ghz/conv/f1", "S4/point#1/f1", "S4/conv/f1",
        "ghz/point#1/f2", "ghz/conv/f2", "S4/point#1/f2", "S4/conv/f2",
    };
    ASSERT_EQ(jobs.size(), expected.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].name, expected[i]) << i;
    // Axis patches compose: factories from axis 0, machine from axis 2.
    EXPECT_EQ(jobs[0].options.arch.factories, 1);
    EXPECT_EQ(jobs[4].options.arch.factories, 2);
    EXPECT_EQ(jobs[0].options.arch.sam, SamKind::Point);
    EXPECT_EQ(jobs[1].options.arch.sam, SamKind::Conventional);
    // Prefix rides the benchmark axis; params are canonicalized.
    EXPECT_EQ(jobs[0].options.maxInstructions, 0);
    EXPECT_EQ(jobs[2].options.maxInstructions, 100);
    EXPECT_EQ(jobs[2].params.at("control_copies").asInt(), 1);
}

TEST(SweepSpec, JsonRoundTrip)
{
    const SweepSpec spec = toySpec();
    const SweepSpec back = SweepSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.toJson().dump(), spec.toJson().dump());
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const auto a = expandSpec(spec, registry);
    const auto b = expandSpec(back, registry);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(toJson(a[i].options).dump(),
                  toJson(b[i].options).dump());
    }
}

TEST(SweepSpec, BuilderRoundTripsThroughJson)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    for (const char *name :
         {"fig13", "fig14", "fig15", "ablation", "smoke"}) {
        const SweepSpec spec = specs::byName(name);
        const SweepSpec back =
            SweepSpec::fromJson(Json::parse(spec.toJson().dump()));
        const auto a = expandSpec(spec, registry);
        const auto b = expandSpec(back, registry);
        ASSERT_EQ(a.size(), b.size()) << name;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].name, b[i].name) << name;
            EXPECT_EQ(toJson(a[i].options).dump(),
                      toJson(b[i].options).dump())
                << name << " " << a[i].name;
            EXPECT_EQ(a[i].translate.inMemoryOps,
                      b[i].translate.inMemoryOps);
        }
    }
}

TEST(SweepSpec, PaperSpecSizesMatchTheOldBenches)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    // Pre-refactor job counts: 3*7*6, 3*7*(1+21*4), 3*5*(1+8),
    // 3*(1+11*2).
    EXPECT_EQ(expandSpec(specs::fig13(), registry).size(), 126u);
    EXPECT_EQ(expandSpec(specs::fig14(), registry).size(), 1785u);
    EXPECT_EQ(expandSpec(specs::fig15(), registry).size(), 135u);
    EXPECT_EQ(expandSpec(specs::ablation(), registry).size(), 69u);
}

TEST(SweepSpec, HotHybridFractionResolvesPerBenchmark)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const auto jobs = expandSpec(specs::fig15(), registry);
    bool sawHybrid = false;
    for (const ExpandedJob &job : jobs) {
        if (job.name.find("hybrid") == std::string::npos)
            continue;
        sawHybrid = true;
        const std::int32_t width = static_cast<std::int32_t>(
            job.params.at("width").asInt());
        EXPECT_DOUBLE_EQ(job.options.arch.hybridFraction,
                         selectHotFraction(width))
            << job.name;
    }
    EXPECT_TRUE(sawHybrid);
}

TEST(SweepSpec, CheckedInSpecFilesMatchTheBuilders)
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    struct Pinned
    {
        const char *builder;
        const char *path;
        const char *specName; // fig13.json renames to avoid a BENCH
                              // filename collision with the bench
    };
    const Pinned files[] = {
        {"fig13", LSQCA_SOURCE_DIR "/specs/fig13.json", "fig13_cpi"},
        {"smoke", LSQCA_SOURCE_DIR "/specs/smoke.json", "smoke"},
    };
    for (const auto &[builder, path, specName] : files) {
        const SweepSpec fromFile = SweepSpec::load(path);
        EXPECT_EQ(fromFile.name, specName);
        const SweepSpec fromBuilder = specs::byName(builder);
        const auto a = expandSpec(fromFile, registry);
        const auto b = expandSpec(fromBuilder, registry);
        ASSERT_EQ(a.size(), b.size()) << path;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].name, b[i].name) << path;
            EXPECT_EQ(toJson(a[i].options).dump(),
                      toJson(b[i].options).dump())
                << path << " " << a[i].name;
        }
    }
}

TEST(SweepSpec, RejectsMalformedSpecs)
{
    auto parse = [](const char *text) {
        return SweepSpec::fromJson(Json::parse(text));
    };
    // Wrong/missing schema.
    EXPECT_THROW(parse(R"({"name": "x", "axes": []})"), ConfigError);
    EXPECT_THROW(
        parse(R"({"schema": "lsqca-spec-v3", "name": "x",
                  "axes": [{"axis": "a", "values": [1]}]})"),
        ConfigError);
    // Unknown top-level key.
    EXPECT_THROW(
        parse(R"({"schema": "lsqca-spec-v1", "name": "x", "axess": [],
                  "axes": [{"axis": "a", "values": [1]}]})"),
        ConfigError);
    // Unknown axis-value key.
    EXPECT_THROW(
        parse(R"({"schema": "lsqca-spec-v1", "name": "x",
                  "axes": [{"axis": "a",
                            "values": [{"bennch": "adder"}]}]})"),
        ConfigError);
    // Empty values.
    EXPECT_THROW(
        parse(R"({"schema": "lsqca-spec-v1", "name": "x",
                  "axes": [{"axis": "a", "values": []}]})"),
        ConfigError);

    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    // No benchmark axis.
    SweepSpec noBench = SweepSpec::fromJson(Json::parse(
        R"({"schema": "lsqca-spec-v1", "name": "x",
            "axes": [{"axis": "factories", "values": [1]}]})"));
    EXPECT_THROW(expandSpec(noBench, registry), ConfigError);
    // Template placeholder naming no axis.
    SweepSpec badTemplate = toySpec();
    badTemplate.nameTemplate = "{typo}";
    EXPECT_THROW(expandSpec(badTemplate, registry), ConfigError);
    // Invalid composed machine (point SAM with 4 banks).
    SweepSpec badMachine = toySpec();
    badMachine.axes[2].values[0].arch =
        Json::parse(R"({"sam": "point", "banks": 4})");
    EXPECT_THROW(expandSpec(badMachine, registry), ConfigError);
}

/** The ConfigError message @p parse throws (fails when none). */
template <typename Fn>
std::string
configErrorOf(Fn parse)
{
    try {
        parse();
    } catch (const ConfigError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected ConfigError";
    return "";
}

TEST(SweepSpec, RejectsRetiredEstimatorDocuments)
{
    // There is one exact simulation path. Documents written for the
    // retired sampled estimator fail loudly, naming the key, instead
    // of silently running exact.
    const std::string v2 = configErrorOf([] {
        SweepSpec::fromJson(Json::parse(
            R"({"schema": "lsqca-spec-v2", "name": "x",
                "axes": [{"axis": "a", "values": [1]}]})"));
    });
    EXPECT_NE(v2.find("spec.schema"), std::string::npos) << v2;
    EXPECT_NE(v2.find("lsqca-spec-v1"), std::string::npos) << v2;

    const std::string block = configErrorOf([] {
        SweepSpec::fromJson(Json::parse(
            R"({"schema": "lsqca-spec-v1", "name": "x",
                "estimator": {"mode": "sampled"},
                "axes": [{"axis": "a", "values": [1]}]})"));
    });
    EXPECT_NE(block.find("\"estimator\""), std::string::npos) << block;

    Json options = toJson(SimOptions{});
    options.set("estimator", Json::object().set("mode", "exact"));
    const std::string sim =
        configErrorOf([&] { simOptionsFromJson(options); });
    EXPECT_NE(sim.find("\"estimator\""), std::string::npos) << sim;
}

TEST(SweepSpec, CacheFingerprintsArePinned)
{
    // Job and shard fingerprints key the shared result caches. They
    // hash canonical manifests, so a change to any serialized option
    // (a key added, dropped or renamed) would silently orphan every
    // cached entry. These values must only change together with
    // kEngineEpoch or the bench schema.
    const SweepSpec spec = toySpec();
    const auto jobs = expandSpec(spec, BenchmarkRegistry::paper());
    const std::vector<std::string> jobPrints = {
        "8728f95902d8a8f5", "c2d5c6cf128b548d", "376802f2f1e99798",
        "d1497380951b3a08", "bdf3991a1f5e796d", "e984c651c652dcc3",
        "e21ffab022871d22", "470984711a664810",
    };
    EXPECT_EQ(jobFingerprints(spec, jobs, true), jobPrints);
    const std::vector<std::string> shardPrints = {"1c1bf5c8f6e0f53f",
                                                  "1609105dbf58f68a"};
    EXPECT_EQ(shardFingerprints(spec, jobs, 2, true), shardPrints);
    // Timed runs are a different cache content.
    EXPECT_EQ(shardFingerprint(spec, jobs, ShardRange{}, false),
              "3f0aa0d2df58afef");
}

TEST(ShardRange, ParsesAndValidates)
{
    const ShardRange shard = ShardRange::parse("2/8");
    EXPECT_EQ(shard.index, 2);
    EXPECT_EQ(shard.count, 8);
    EXPECT_THROW(ShardRange::parse("8/8"), ConfigError);
    EXPECT_THROW(ShardRange::parse("-1/8"), ConfigError);
    EXPECT_THROW(ShardRange::parse("1of8"), ConfigError);
    EXPECT_THROW(ShardRange::parse("a/b"), ConfigError);
    EXPECT_THROW(ShardRange::parse("1/"), ConfigError);
    EXPECT_THROW(ShardRange::parse("1/0"), ConfigError);
    EXPECT_THROW(ShardRange::parse("nope"), ConfigError);
}

TEST(FlagValues, ThreadCountRejectsMalformedValues)
{
    EXPECT_EQ(parseThreadCount("0"), 0);
    EXPECT_EQ(parseThreadCount("4096"), 4096);
    // atoi("x") == 0 once silently fell back to one worker.
    for (const char *bad : {"x", "4x", "-1", "4097",
                            "99999999999999999999", ""})
        EXPECT_THROW(parseThreadCount(bad), ConfigError) << bad;
}

TEST(FlagValues, TimeoutSecondsRejectsMalformedValues)
{
    EXPECT_DOUBLE_EQ(parseTimeoutSeconds("2.5"), 2.5);
    // Workers inherit this budget: a bad value must stop the worker,
    // not run an unlimited sweep.
    for (const char *bad : {"x", "4x", "-1", "0", "1e10", "1e999", ""})
        EXPECT_THROW(parseTimeoutSeconds(bad), ConfigError) << bad;
}

TEST(FlagValues, FingerprintArgRejectsMalformedValues)
{
    EXPECT_EQ(parseFingerprintArg("0123456789abcdef"),
              "0123456789abcdef");
    for (const char *bad : {"nope", "0123456789ABCDEF",
                            "0123456789abcde", "0123456789abcdef0", ""})
        EXPECT_THROW(parseFingerprintArg(bad), ConfigError) << bad;
}

TEST(ShardRange, SlicesPartitionTheJobList)
{
    for (const std::size_t total : {0u, 1u, 7u, 126u, 1785u}) {
        for (const std::int32_t count : {1, 2, 3, 5, 16}) {
            std::size_t covered = 0;
            std::size_t expectedBegin = 0;
            for (std::int32_t i = 0; i < count; ++i) {
                ShardRange shard;
                shard.index = i;
                shard.count = count;
                const auto [begin, end] = shard.bounds(total);
                EXPECT_EQ(begin, expectedBegin); // contiguous
                EXPECT_LE(begin, end);
                covered += end - begin;
                expectedBegin = end;
            }
            EXPECT_EQ(covered, total) << total << "/" << count;
            EXPECT_EQ(expectedBegin, total);
        }
    }
}

TEST(RunSpec, ShardMergeEqualsUnshardedByteForByte)
{
    // The whole distributed-sweep contract in one test: run the smoke
    // spec unsharded and as 3 shards (different thread counts), merge
    // the shard documents, and require byte identity under no-timing.
    const SweepSpec spec = specs::smoke();
    BenchmarkRegistry registry = BenchmarkRegistry::paper();

    RunSpecOptions base;
    base.noTiming = true;
    base.writeJson = false;
    const SpecRun whole = runSpec(spec, registry, base);

    std::vector<Json> shardDocs;
    for (std::int32_t i = 0; i < 3; ++i) {
        RunSpecOptions options = base;
        options.shard.index = i;
        options.shard.count = 3;
        options.threads = i + 1; // worker count must not matter
        // A fresh registry per shard: each machine translates only
        // what its slice needs.
        BenchmarkRegistry shardRegistry = BenchmarkRegistry::paper();
        const SpecRun shard = runSpec(spec, shardRegistry, options);
        EXPECT_LT(shardRegistry.cachedPrograms(),
                  registry.cachedPrograms() + 1);
        // Round-trip through text, as real shard files would.
        shardDocs.push_back(
            Json::parse(shard.document.dump()));
    }
    const Json merged = mergeBenchReports(shardDocs);
    EXPECT_EQ(merged.dump(), whole.document.dump());
}

TEST(RunSpec, MergeValidatesThePartition)
{
    const SweepSpec spec = specs::smoke();
    RunSpecOptions options;
    options.noTiming = true;
    options.writeJson = false;
    options.shard.count = 3;

    std::vector<Json> docs;
    for (std::int32_t i = 0; i < 3; ++i) {
        options.shard.index = i;
        BenchmarkRegistry registry = BenchmarkRegistry::paper();
        docs.push_back(runSpec(spec, registry, options).document);
    }
    // Missing shard.
    EXPECT_THROW(mergeBenchReports({docs[0], docs[2]}), ConfigError);
    // Duplicate shard.
    EXPECT_THROW(mergeBenchReports({docs[0], docs[1], docs[1]}),
                 ConfigError);
    // Different sweep name.
    Json renamed = docs[2];
    renamed.set("bench", "other");
    EXPECT_THROW(mergeBenchReports({docs[0], docs[1], renamed}),
                 ConfigError);
    // All three in any order merge fine.
    EXPECT_NO_THROW(mergeBenchReports({docs[2], docs[0], docs[1]}));
}

TEST(RunSpec, BreakdownSpecEmitsBenchV2AndMergesRoundTrip)
{
    // record_breakdown promotes the BENCH document to lsqca-bench-v2
    // with a per-entry breakdown array; sharded v2 documents merge
    // byte-identically, and v1/v2 documents refuse to mix.
    SweepSpec spec = toySpec();
    spec.recordBreakdown = true;
    const SweepSpec back =
        SweepSpec::fromJson(Json::parse(spec.toJson().dump()));
    EXPECT_TRUE(back.recordBreakdown);

    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    for (const ExpandedJob &job : expandSpec(spec, registry))
        EXPECT_TRUE(job.options.recordBreakdown) << job.name;

    RunSpecOptions options;
    options.noTiming = true;
    options.writeJson = false;
    const SpecRun whole = runSpec(spec, registry, options);
    EXPECT_EQ(whole.document.at("schema").asString(), "lsqca-bench-v2");
    for (const Json &entry : whole.document.at("entries").items()) {
        const std::vector<OpcodeSplit> breakdown =
            breakdownFromJson(entry.at("breakdown"));
        EXPECT_FALSE(breakdown.empty());
        std::int64_t motion = 0;
        for (const OpcodeSplit &row : breakdown)
            motion += row.split.motionBeats();
        EXPECT_EQ(motion,
                  entry.at("metrics").at("memory_beats").asInt());
    }

    std::vector<Json> shardDocs;
    for (std::int32_t i = 0; i < 2; ++i) {
        RunSpecOptions shardOptions = options;
        shardOptions.shard.index = i;
        shardOptions.shard.count = 2;
        BenchmarkRegistry shardRegistry = BenchmarkRegistry::paper();
        shardDocs.push_back(
            runSpec(spec, shardRegistry, shardOptions).document);
    }
    const Json merged = mergeBenchReports(shardDocs);
    EXPECT_EQ(merged.dump(), whole.document.dump());

    // Over-sharding leaves some shards empty; they must still stamp
    // the v2 schema (the flag decides, not the entry contents) or the
    // shard set would mix schemas and refuse to merge.
    std::vector<Json> overDocs;
    for (std::int32_t i = 0; i < 10; ++i) {
        RunSpecOptions shardOptions = options;
        shardOptions.shard.index = i;
        shardOptions.shard.count = 10; // > 8 jobs: empty shards exist
        BenchmarkRegistry shardRegistry = BenchmarkRegistry::paper();
        overDocs.push_back(
            runSpec(spec, shardRegistry, shardOptions).document);
    }
    for (const Json &doc : overDocs)
        EXPECT_EQ(doc.at("schema").asString(), "lsqca-bench-v2");
    EXPECT_EQ(mergeBenchReports(overDocs).dump(),
              whole.document.dump());

    // The shard fingerprint covers the schema bump: the same spec with
    // breakdowns off must not address the same cached shard bytes.
    SweepSpec plain = toySpec();
    BenchmarkRegistry plainRegistry = BenchmarkRegistry::paper();
    const auto jobsV2 = expandSpec(spec, registry);
    const auto jobsV1 = expandSpec(plain, plainRegistry);
    EXPECT_NE(shardFingerprint(spec, jobsV2, ShardRange{}, true),
              shardFingerprint(plain, jobsV1, ShardRange{}, true));

    // v1 and v2 documents never merge together.
    const Json v1doc =
        runSpec(plain, plainRegistry, options).document;
    EXPECT_THROW(mergeBenchReports({v1doc, whole.document}),
                 ConfigError);
}

TEST(RunSpec, ResultsMatchDirectSimulation)
{
    const SweepSpec spec = toySpec();
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    RunSpecOptions options;
    options.writeJson = false;
    const SpecRun run = runSpec(spec, registry, options);
    ASSERT_EQ(run.report.results.size(), 8u);
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const SimResult direct = simulate(*run.jobs[i].program,
                                          run.jobs[i].options);
        EXPECT_EQ(run.report.results[i].execBeats, direct.execBeats)
            << run.jobs[i].name;
        EXPECT_EQ(run.report.results[i].cpi, direct.cpi);
    }
}

} // namespace
} // namespace lsqca::api
