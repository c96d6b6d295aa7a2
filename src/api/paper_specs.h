#ifndef LSQCA_API_PAPER_SPECS_H
#define LSQCA_API_PAPER_SPECS_H

/**
 * @file
 * The SweepSpecs of the paper's headline experiments, and the renderers
 * of the paper's tables. `lsqca run <name>` runs one of these sweeps,
 * `lsqca render <BENCH.json>` prints its tables, `lsqca render
 * table1|fig07|fig08` prints the tables that need no sweep, and `lsqca spec <name>` dumps it as JSON — specs/fig13.json
 * is fig13()'s output with its `name` changed to "fig13_cpi", pinned
 * job-for-job against fig13() by tests/api/spec_test.cpp.
 *
 * @p full mirrors the CLI's --full flag: steady-state prefixes
 * (multiplier/square_root/SELECT) are dropped and SELECT instances are
 * synthesized to completion. Job names do not depend on it.
 */

#include <optional>
#include <string>

#include "api/spec.h"
#include "common/json.h"

namespace lsqca::api::specs {

/** Fig. 13: CPI, 7 benchmarks x 6 machines x 1/2/4 factories. */
SweepSpec fig13(bool full = false);

/** Fig. 14: hybrid density/overhead trade-off, f = 0..1 step 0.05. */
SweepSpec fig14(bool full = false);

/** Fig. 15: SELECT width scaling with hot-register hybrid layouts. */
SweepSpec fig15(bool full = false);

/** Sec. V ablations (locality store, in-memory ops, buffers, ...). */
SweepSpec ablation(bool full = false);

/** CI-sized smoke sweep (miniature programs, seconds to run). */
SweepSpec smoke();

/** Builder lookup by name (fig13|fig14|fig15|ablation|smoke). */
SweepSpec byName(const std::string &name, bool full = false);

/**
 * The tables of Fig. 13, 14 or 15, or of the ablations, from a
 * whole-sweep BENCH document (one run, or merged shards), as text.
 * The figure is the builtin whose expanded job names equal the
 * document's entry names, in order; the tables read each entry's
 * `cpi`, `exec_beats` and `density` metrics.
 * @throws ConfigError for a shard document or one that matches no
 * figure.
 */
std::string renderFigure(const Json &benchDoc);

/**
 * The tables of Table I ("table1": the instruction set, with latencies
 * measured by microprobes on a point-SAM), Fig. 7 ("fig07": floorplan
 * densities) or Fig. 8 ("fig08": the reference patterns of the SELECT
 * and whole multiplier traces), as text; these need no sweep.
 * @return nothing for any other @p name.
 */
std::optional<std::string> renderTable(const std::string &name);

} // namespace lsqca::api::specs

#endif // LSQCA_API_PAPER_SPECS_H
