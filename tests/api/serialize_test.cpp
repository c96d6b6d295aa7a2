/**
 * @file
 * Round-trip property tests for the config serializers: every
 * ArchConfig/Latencies/SimOptions field survives toJson -> fromJson,
 * unknown keys and out-of-range values are rejected, and label()
 * agrees across the round trip for every machine the figure sweeps use.
 */

#include <gtest/gtest.h>

#include <vector>

#include "api/serialize.h"
#include "circuit/lowering.h"
#include "common/error.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca::api {
namespace {

/** Every (sam, banks, hybrid) machine the paper's figure sweeps use. */
std::vector<ArchConfig>
benchMachines()
{
    std::vector<ArchConfig> machines;
    auto push = [&](SamKind sam, std::int32_t banks, double hybrid) {
        ArchConfig cfg;
        cfg.sam = sam;
        cfg.banks = banks;
        cfg.hybridFraction = hybrid;
        machines.push_back(cfg);
    };
    push(SamKind::Conventional, 1, 0.0);
    for (const std::int32_t banks : {1, 2})
        push(SamKind::Point, banks, 0.0);
    for (const std::int32_t banks : {1, 2, 4})
        push(SamKind::Line, banks, 0.0);
    for (int step = 0; step <= 20; ++step) { // Fig. 14 hybrid grid
        push(SamKind::Point, 2, 0.05 * step);
        push(SamKind::Line, 4, 0.05 * step);
    }
    for (const std::int32_t width : {21, 41, 61, 81, 101}) // Fig. 15
        push(SamKind::Point, 1, selectHotFraction(width));
    return machines;
}

TEST(SerializeArch, RoundTripsEveryField)
{
    ArchConfig cfg;
    cfg.sam = SamKind::Line;
    cfg.banks = 4;
    cfg.factories = 3;
    cfg.bufferCap = 7;
    cfg.crRegisters = 5;
    cfg.hybridFraction = 0.375;
    cfg.localityStore = false;
    cfg.inMemoryOps = false;
    cfg.rowParallelOps = false;
    cfg.directSurgery = true;
    cfg.placement = PlacementPolicy::Interleaved;
    cfg.instantMagic = true;
    cfg.warmBuffer = false;
    cfg.lat.hadamard = 5;
    cfg.lat.phase = 4;
    cfg.lat.surgery = 2;
    cfg.lat.move = 3;
    cfg.lat.longMove = 6;
    cfg.lat.pickDiagonal1 = 7;
    cfg.lat.pickStraight1 = 8;
    cfg.lat.pickDiagonal2 = 9;
    cfg.lat.pickStraight2 = 10;
    cfg.lat.msfPeriod = 20;
    cfg.lat.magicTransfer = 2;
    cfg.lat.skWait = 1;

    const ArchConfig back = archConfigFromJson(toJson(cfg));
    EXPECT_EQ(toJson(back).dump(), toJson(cfg).dump());
    EXPECT_EQ(back.sam, cfg.sam);
    EXPECT_EQ(back.banks, cfg.banks);
    EXPECT_EQ(back.factories, cfg.factories);
    EXPECT_EQ(back.bufferCap, cfg.bufferCap);
    EXPECT_EQ(back.crRegisters, cfg.crRegisters);
    EXPECT_DOUBLE_EQ(back.hybridFraction, cfg.hybridFraction);
    EXPECT_EQ(back.localityStore, cfg.localityStore);
    EXPECT_EQ(back.inMemoryOps, cfg.inMemoryOps);
    EXPECT_EQ(back.rowParallelOps, cfg.rowParallelOps);
    EXPECT_EQ(back.directSurgery, cfg.directSurgery);
    EXPECT_EQ(back.placement, cfg.placement);
    EXPECT_EQ(back.instantMagic, cfg.instantMagic);
    EXPECT_EQ(back.warmBuffer, cfg.warmBuffer);
    EXPECT_EQ(back.lat.hadamard, cfg.lat.hadamard);
    EXPECT_EQ(back.lat.msfPeriod, cfg.lat.msfPeriod);
    EXPECT_EQ(back.lat.skWait, cfg.lat.skWait);
}

TEST(SerializeArch, RoundTripsThroughText)
{
    // The full loop a spec file travels: dump -> parse -> fromJson.
    for (const ArchConfig &cfg : benchMachines()) {
        const Json doc = Json::parse(toJson(cfg).dump());
        const ArchConfig back = archConfigFromJson(doc);
        EXPECT_EQ(toJson(back).dump(), toJson(cfg).dump());
    }
}

TEST(SerializeArch, LabelAgreesAcrossRoundTrip)
{
    for (const ArchConfig &cfg : benchMachines())
        EXPECT_EQ(archConfigFromJson(toJson(cfg)).label(), cfg.label());
}

TEST(SerializeArch, RejectsUnknownKeys)
{
    ArchConfig cfg;
    Json doc = toJson(cfg);
    doc.set("bankz", 2); // typo must not silently run the default
    EXPECT_THROW(archConfigFromJson(doc), ConfigError);

    Json nested = toJson(cfg);
    Json lat = toJson(cfg.lat);
    lat.set("surgeryy", 1);
    nested.set("latencies", std::move(lat));
    EXPECT_THROW(archConfigFromJson(nested), ConfigError);
}

TEST(SerializeArch, RejectsOutOfRangeValues)
{
    auto patched = [](const char *key, Json value) {
        Json doc = toJson(ArchConfig{});
        doc.set(key, std::move(value));
        return doc;
    };
    EXPECT_THROW(archConfigFromJson(patched("banks", 0)), ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("banks", -1)), ConfigError);
    EXPECT_THROW(archConfigFromJson(
                     patched("banks", std::int64_t{1} << 40)),
                 ConfigError);
    // Point SAM supports at most two banks (validate()).
    Json pointBanks = toJson(ArchConfig{});
    pointBanks.set("sam", "point");
    pointBanks.set("banks", 3);
    EXPECT_THROW(archConfigFromJson(pointBanks), ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("factories", 0)),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("buffer_cap", -2)),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("cr_registers", 1)),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("hybrid_fraction", -0.1)),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("hybrid_fraction", 1.5)),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("sam", "hexagonal")),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("placement", "diagonal")),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("banks", 1.5)),
                 ConfigError);
    EXPECT_THROW(archConfigFromJson(patched("banks", "two")),
                 ConfigError);
}

TEST(SerializeLatencies, RejectsNegativeBeats)
{
    for (const char *key :
         {"hadamard", "phase", "surgery", "move", "long_move",
          "pick_diagonal1", "pick_straight1", "pick_diagonal2",
          "pick_straight2", "msf_period", "magic_transfer", "sk_wait"}) {
        Json lat = toJson(Latencies{});
        lat.set(key, -1);
        Latencies out;
        EXPECT_THROW(applyLatenciesPatch(out, lat), ConfigError) << key;
    }
}

TEST(SerializeLatencies, RoundTripsEveryField)
{
    Latencies lat;
    lat.hadamard = 11;
    lat.phase = 12;
    lat.surgery = 13;
    lat.move = 14;
    lat.longMove = 15;
    lat.pickDiagonal1 = 16;
    lat.pickStraight1 = 17;
    lat.pickDiagonal2 = 18;
    lat.pickStraight2 = 19;
    lat.msfPeriod = 20;
    lat.magicTransfer = 21;
    lat.skWait = 22;
    EXPECT_EQ(toJson(latenciesFromJson(toJson(lat))).dump(),
              toJson(lat).dump());
}

TEST(SerializeSimOptions, RoundTripsAndValidates)
{
    SimOptions options;
    options.arch.sam = SamKind::Line;
    options.arch.banks = 2;
    options.maxInstructions = 60'000;
    options.recordTrace = true;
    options.recordBreakdown = true;
    const SimOptions back = simOptionsFromJson(toJson(options));
    EXPECT_EQ(toJson(back).dump(), toJson(options).dump());
    EXPECT_TRUE(back.recordBreakdown);
    // Observers are runtime-only and never serialized.
    EXPECT_TRUE(back.observers.empty());

    Json doc = toJson(options);
    doc.set("max_instructions", -5);
    EXPECT_THROW(simOptionsFromJson(doc), ConfigError);
    Json unknown = toJson(options);
    unknown.set("prefix", 10);
    EXPECT_THROW(simOptionsFromJson(unknown), ConfigError);
}

TEST(SerializeBreakdown, RoundTripsEveryField)
{
    LatencySplit split;
    split.load = 1;
    split.store = 2;
    split.seek = 3;
    split.pick = 4;
    split.align = 5;
    split.surgery = 6;
    split.compute = 7;
    split.magicStall = 8;
    split.skWait = 9;
    EXPECT_EQ(latencySplitFromJson(toJson(split)), split);

    std::vector<OpcodeSplit> breakdown;
    breakdown.push_back({Opcode::HD_M, 10, 40, split});
    breakdown.push_back({Opcode::CX, 3, 36, LatencySplit{}});
    EXPECT_EQ(breakdownFromJson(toJson(breakdown)), breakdown);
    EXPECT_EQ(toJson(breakdownFromJson(toJson(breakdown))).dump(),
              toJson(breakdown).dump());
}

TEST(SerializeBreakdown, RejectsMalformedDocuments)
{
    Json entry = Json::object();
    entry.set("op", "NOT_AN_OPCODE");
    entry.set("count", 1);
    entry.set("beats", 1);
    entry.set("split", toJson(LatencySplit{}));
    EXPECT_THROW(breakdownFromJson(Json::array().push(entry)),
                 ConfigError);

    Json bad_split = toJson(LatencySplit{});
    bad_split.set("warp", 1);
    EXPECT_THROW(latencySplitFromJson(bad_split), ConfigError);
    Json negative = toJson(LatencySplit{});
    negative.set("load", -1);
    EXPECT_THROW(latencySplitFromJson(negative), ConfigError);
}

TEST(SerializeBreakdown, SimulateBreakdownSurvivesTheRoundTrip)
{
    // End to end: a real breakdown from the simulator serializes and
    // parses back identically (the lsqca-bench-v2 entry payload).
    const Program p = translate(lowerToCliffordT(makeAdder(4)));
    SimOptions options;
    options.arch.sam = SamKind::Point;
    options.recordBreakdown = true;
    const SimResult r = simulate(p, options);
    ASSERT_FALSE(r.breakdown.empty());
    EXPECT_EQ(breakdownFromJson(toJson(r.breakdown)), r.breakdown);
}

TEST(SerializeArch, PartialPatchKeepsDefaults)
{
    ArchConfig cfg;
    applyArchPatch(cfg, Json::parse(R"({"sam": "line", "banks": 4})"));
    EXPECT_EQ(cfg.sam, SamKind::Line);
    EXPECT_EQ(cfg.banks, 4);
    EXPECT_EQ(cfg.factories, 1);          // untouched default
    EXPECT_TRUE(cfg.localityStore);       // untouched default
    EXPECT_EQ(cfg.lat.msfPeriod, 15);     // untouched default
}

TEST(SerializeTranslate, RoundTripsAndValidates)
{
    TranslateOptions options;
    options.inMemoryOps = false;
    options.crSlots = 3;
    const TranslateOptions back =
        translateOptionsFromJson(toJson(options));
    EXPECT_EQ(back.inMemoryOps, options.inMemoryOps);
    EXPECT_EQ(back.crSlots, options.crSlots);
    EXPECT_THROW(
        translateOptionsFromJson(Json::parse(R"({"cr_slots": 1})")),
        ConfigError);
    EXPECT_THROW(
        translateOptionsFromJson(Json::parse(R"({"in_mem": true})")),
        ConfigError);
}

} // namespace
} // namespace lsqca::api
