#include "api/serialize.h"

#include <cstdint>
#include <limits>

#include "api/json_reader.h"
#include "common/error.h"

namespace lsqca::api {

Json
toJson(const Latencies &lat)
{
    Json doc = Json::object();
    doc.set("hadamard", lat.hadamard);
    doc.set("phase", lat.phase);
    doc.set("surgery", lat.surgery);
    doc.set("move", lat.move);
    doc.set("long_move", lat.longMove);
    doc.set("pick_diagonal1", lat.pickDiagonal1);
    doc.set("pick_straight1", lat.pickStraight1);
    doc.set("pick_diagonal2", lat.pickDiagonal2);
    doc.set("pick_straight2", lat.pickStraight2);
    doc.set("msf_period", lat.msfPeriod);
    doc.set("magic_transfer", lat.magicTransfer);
    doc.set("sk_wait", lat.skWait);
    return doc;
}

void
applyLatenciesPatch(Latencies &lat, const Json &patch)
{
    ObjectReader reader(patch, "latencies");
    // Negative beat counts are meaningless for every field; the
    // stricter >= 1 floors (move/surgery/msf_period) are enforced by
    // ArchConfig::validate() once the full config is assembled.
    const std::int64_t max = std::numeric_limits<std::int32_t>::max();
    reader.readInt32("hadamard", lat.hadamard, 0, max);
    reader.readInt32("phase", lat.phase, 0, max);
    reader.readInt32("surgery", lat.surgery, 0, max);
    reader.readInt32("move", lat.move, 0, max);
    reader.readInt32("long_move", lat.longMove, 0, max);
    reader.readInt32("pick_diagonal1", lat.pickDiagonal1, 0, max);
    reader.readInt32("pick_straight1", lat.pickStraight1, 0, max);
    reader.readInt32("pick_diagonal2", lat.pickDiagonal2, 0, max);
    reader.readInt32("pick_straight2", lat.pickStraight2, 0, max);
    reader.readInt32("msf_period", lat.msfPeriod, 0, max);
    reader.readInt32("magic_transfer", lat.magicTransfer, 0, max);
    reader.readInt32("sk_wait", lat.skWait, 0, max);
    reader.finish();
}

Latencies
latenciesFromJson(const Json &doc)
{
    Latencies lat;
    applyLatenciesPatch(lat, doc);
    return lat;
}

Json
toJson(const ArchConfig &cfg)
{
    Json doc = Json::object();
    doc.set("sam", samKindName(cfg.sam));
    doc.set("banks", cfg.banks);
    doc.set("factories", cfg.factories);
    doc.set("buffer_cap", cfg.bufferCap);
    doc.set("cr_registers", cfg.crRegisters);
    doc.set("hybrid_fraction", cfg.hybridFraction);
    doc.set("locality_store", cfg.localityStore);
    doc.set("in_memory_ops", cfg.inMemoryOps);
    doc.set("row_parallel_ops", cfg.rowParallelOps);
    doc.set("direct_surgery", cfg.directSurgery);
    doc.set("placement", placementPolicyName(cfg.placement));
    doc.set("instant_magic", cfg.instantMagic);
    doc.set("warm_buffer", cfg.warmBuffer);
    doc.set("latencies", toJson(cfg.lat));
    return doc;
}

void
applyArchPatch(ArchConfig &cfg, const Json &patch)
{
    ObjectReader reader(patch, "arch");
    if (const Json *sam = reader.find("sam")) {
        LSQCA_REQUIRE(sam->isString(), "arch.sam must be a string");
        cfg.sam = samKindFromName(sam->asString());
    }
    const std::int64_t max = std::numeric_limits<std::int32_t>::max();
    reader.readInt32("banks", cfg.banks, 1, max);
    reader.readInt32("factories", cfg.factories, 1, max);
    reader.readInt32("buffer_cap", cfg.bufferCap, -1, max);
    reader.readInt32("cr_registers", cfg.crRegisters, 2, max);
    reader.readDouble("hybrid_fraction", cfg.hybridFraction, 0.0, 1.0);
    reader.readBool("locality_store", cfg.localityStore);
    reader.readBool("in_memory_ops", cfg.inMemoryOps);
    reader.readBool("row_parallel_ops", cfg.rowParallelOps);
    reader.readBool("direct_surgery", cfg.directSurgery);
    if (const Json *placement = reader.find("placement")) {
        LSQCA_REQUIRE(placement->isString(),
                      "arch.placement must be a string");
        cfg.placement = placementPolicyFromName(placement->asString());
    }
    reader.readBool("instant_magic", cfg.instantMagic);
    reader.readBool("warm_buffer", cfg.warmBuffer);
    if (const Json *lat = reader.find("latencies"))
        applyLatenciesPatch(cfg.lat, *lat);
    reader.finish();
}

ArchConfig
archConfigFromJson(const Json &doc)
{
    ArchConfig cfg;
    applyArchPatch(cfg, doc);
    cfg.validate();
    return cfg;
}

Json
toJson(const SimOptions &options)
{
    Json doc = Json::object();
    doc.set("arch", toJson(options.arch));
    doc.set("max_instructions", options.maxInstructions);
    doc.set("record_trace", options.recordTrace);
    doc.set("record_breakdown", options.recordBreakdown);
    return doc;
}

SimOptions
simOptionsFromJson(const Json &doc)
{
    SimOptions options;
    ObjectReader reader(doc, "options");
    if (const Json *arch = reader.find("arch"))
        options.arch = archConfigFromJson(*arch);
    reader.readInt64("max_instructions", options.maxInstructions, 0,
                     std::numeric_limits<std::int64_t>::max());
    reader.readBool("record_trace", options.recordTrace);
    reader.readBool("record_breakdown", options.recordBreakdown);
    reader.finish();
    options.arch.validate();
    return options;
}

Json
toJson(const LatencySplit &split)
{
    Json doc = Json::object();
    doc.set("load", split.load);
    doc.set("store", split.store);
    doc.set("seek", split.seek);
    doc.set("pick", split.pick);
    doc.set("align", split.align);
    doc.set("surgery", split.surgery);
    doc.set("compute", split.compute);
    doc.set("magic_stall", split.magicStall);
    doc.set("sk_wait", split.skWait);
    return doc;
}

LatencySplit
latencySplitFromJson(const Json &doc)
{
    LatencySplit split;
    ObjectReader reader(doc, "split");
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    reader.readInt64("load", split.load, 0, max);
    reader.readInt64("store", split.store, 0, max);
    reader.readInt64("seek", split.seek, 0, max);
    reader.readInt64("pick", split.pick, 0, max);
    reader.readInt64("align", split.align, 0, max);
    reader.readInt64("surgery", split.surgery, 0, max);
    reader.readInt64("compute", split.compute, 0, max);
    reader.readInt64("magic_stall", split.magicStall, 0, max);
    reader.readInt64("sk_wait", split.skWait, 0, max);
    reader.finish();
    return split;
}

Json
toJson(const std::vector<OpcodeSplit> &breakdown)
{
    Json doc = Json::array();
    for (const OpcodeSplit &row : breakdown) {
        Json entry = Json::object();
        entry.set("op", mnemonic(row.op));
        entry.set("count", row.count);
        entry.set("beats", row.beats);
        entry.set("split", toJson(row.split));
        doc.push(std::move(entry));
    }
    return doc;
}

std::vector<OpcodeSplit>
breakdownFromJson(const Json &doc)
{
    LSQCA_REQUIRE(doc.isArray(), "breakdown must be an array");
    std::vector<OpcodeSplit> breakdown;
    for (const Json &entryDoc : doc.items()) {
        ObjectReader reader(entryDoc, "breakdown entry");
        OpcodeSplit row;
        const Json &op = reader.require("op");
        LSQCA_REQUIRE(op.isString(),
                      "breakdown entry.op must be a string");
        row.op = opcodeFromMnemonic(op.asString());
        const std::int64_t max =
            std::numeric_limits<std::int64_t>::max();
        reader.readInt64("count", row.count, 0, max);
        reader.readInt64("beats", row.beats, 0, max);
        row.split = latencySplitFromJson(reader.require("split"));
        reader.finish();
        breakdown.push_back(row);
    }
    return breakdown;
}

Json
toJson(const TranslateOptions &options)
{
    Json doc = Json::object();
    doc.set("in_memory_ops", options.inMemoryOps);
    doc.set("cr_slots", options.crSlots);
    return doc;
}

void
applyTranslatePatch(TranslateOptions &options, const Json &patch)
{
    ObjectReader reader(patch, "translate");
    reader.readBool("in_memory_ops", options.inMemoryOps);
    reader.readInt32("cr_slots", options.crSlots, 2,
                     std::numeric_limits<std::int32_t>::max());
    reader.finish();
}

TranslateOptions
translateOptionsFromJson(const Json &doc)
{
    TranslateOptions options;
    applyTranslatePatch(options, doc);
    return options;
}

} // namespace lsqca::api
