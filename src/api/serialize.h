#ifndef LSQCA_API_SERIALIZE_H
#define LSQCA_API_SERIALIZE_H

/**
 * @file
 * JSON serialization for the simulator's configuration types, so that
 * experiments are data: spec files, BENCH reports, and the CLI all
 * speak the same schema. Deserialization is strict — unknown keys,
 * wrong types, and out-of-range values raise ConfigError rather than
 * being silently dropped, so a typo in a spec file fails fast instead
 * of running the wrong experiment.
 *
 * Round-trip guarantees (pinned by tests/api/serialize_test.cpp):
 *   fromJson(toJson(x)) == x           for every field,
 *   fromJson(toJson(cfg)).label() == cfg.label().
 */

#include "arch/config.h"
#include "common/json.h"
#include "sim/simulator.h"
#include "translate/translate.h"

namespace lsqca::api {

/** Full Latencies object, every field present. */
Json toJson(const Latencies &lat);

/**
 * Merge a (possibly partial) latencies object into @p lat. Unknown
 * keys and negative values throw ConfigError.
 */
void applyLatenciesPatch(Latencies &lat, const Json &patch);

/** Strict full deserialization (missing keys keep defaults). */
Latencies latenciesFromJson(const Json &doc);

/** Full ArchConfig object, every field present (nested latencies). */
Json toJson(const ArchConfig &cfg);

/**
 * Merge a partial ArchConfig object into @p cfg without validating
 * the final combination (spec axes compose several patches before the
 * result is checked). Unknown keys, wrong types, and values outside
 * their field's representable range throw ConfigError.
 */
void applyArchPatch(ArchConfig &cfg, const Json &patch);

/**
 * Deserialize and validate() a config. Missing keys keep their
 * defaults, so a partial document acts as a patch on ArchConfig{}.
 */
ArchConfig archConfigFromJson(const Json &doc);

/**
 * Full SimOptions document: arch + max_instructions + record_trace +
 * record_breakdown. SimOptions::observers are
 * runtime-only (borrowed pointers) and are never serialized; a
 * deserialized options object always has an empty observer list.
 */
Json toJson(const SimOptions &options);

/** Strict deserialization; the embedded arch is validated. */
SimOptions simOptionsFromJson(const Json &doc);

/** Full LatencySplit object, every component present. */
Json toJson(const LatencySplit &split);

/** Strict full deserialization (missing keys keep 0). */
LatencySplit latencySplitFromJson(const Json &doc);

/**
 * SimResult::breakdown as the `lsqca-bench-v2` "breakdown" array: one
 * `{op, count, beats, split}` object per executed opcode, in opcode
 * order.
 */
Json toJson(const std::vector<OpcodeSplit> &breakdown);

/** Strict inverse of the breakdown serialization. */
std::vector<OpcodeSplit> breakdownFromJson(const Json &doc);

/** Translate options: in_memory_ops + cr_slots. */
Json toJson(const TranslateOptions &options);

/** Merge a partial translate-options object (strict). */
void applyTranslatePatch(TranslateOptions &options, const Json &patch);

/** Strict deserialization (missing keys keep defaults). */
TranslateOptions translateOptionsFromJson(const Json &doc);

} // namespace lsqca::api

#endif // LSQCA_API_SERIALIZE_H
