#ifndef LSQCA_API_PAPER_SPECS_H
#define LSQCA_API_PAPER_SPECS_H

/**
 * @file
 * SweepSpec builders for the paper's headline experiments. The figure
 * benches are thin wrappers over these (table rendering aside), and
 * `lsqca spec <name>` dumps them as JSON — specs/fig13.json is the
 * fig13 builder's output with its `name` changed to "fig13_cpi" (so
 * the CLI's BENCH file doesn't collide with the bench's), pinned
 * job-for-job against the builder by tests/api/spec_test.cpp. The CLI
 * and the compiled bench run the same experiment.
 *
 * @p full mirrors the benches' --full flag: steady-state prefixes
 * (multiplier/square_root/SELECT) are dropped and SELECT instances are
 * synthesized to completion.
 */

#include "api/spec.h"

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

} // namespace lsqca::api::specs

#endif // LSQCA_API_PAPER_SPECS_H
