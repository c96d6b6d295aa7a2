#ifndef LSQCA_BENCH_BENCH_UTIL_H
#define LSQCA_BENCH_BENCH_UTIL_H

/**
 * @file
 * Shared plumbing for the table benches (fig07, fig08, table1, micro
 * kernels): argument parsing and CSV mirroring. The paper's sweep
 * figures are not benches: `lsqca run <builtin>` computes them and
 * `lsqca render` prints their tables.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "common/table.h"

namespace lsqca::bench {

/**
 * Parse "--csv <dir>", "--full", "--out <dir>" and "--smoke" from
 * argv. Unknown arguments and missing values are fatal (exit 2) — a
 * typo must not silently run a different experiment.
 */
struct BenchArgs
{
    std::optional<std::string> csvDir;
    bool full = false;
    /** Where BENCH_*.json lands. */
    std::string outDir = "bench/out";
    /** Reduced-size run for CI (micro_kernels). */
    bool smoke = false;
};

[[noreturn]] inline void
argError(const std::string &message)
{
    std::cerr << "error: " << message
              << "\n(supported: --csv <dir>, --full, --out <dir>,"
                 " --smoke)\n";
    std::exit(2);
}

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            argError(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0)
            args.csvDir = value(i);
        else if (std::strcmp(argv[i], "--full") == 0)
            args.full = true;
        else if (std::strcmp(argv[i], "--out") == 0)
            args.outDir = value(i);
        else if (std::strcmp(argv[i], "--smoke") == 0)
            args.smoke = true;
        else
            argError(std::string("unknown argument: ") + argv[i]);
    }
    return args;
}

/** Print a table and mirror it to <dir>/<stem>.csv when requested. */
inline void
emit(const TextTable &table, const std::string &title,
     const BenchArgs &args, const std::string &stem)
{
    std::cout << table.render(title) << "\n";
    if (args.csvDir)
        table.writeCsv(*args.csvDir + "/" + stem + ".csv");
}

} // namespace lsqca::bench

#endif // LSQCA_BENCH_BENCH_UTIL_H
