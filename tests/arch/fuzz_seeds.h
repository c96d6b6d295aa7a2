#ifndef LSQCA_TESTS_ARCH_FUZZ_SEEDS_H
#define LSQCA_TESTS_ARCH_FUZZ_SEEDS_H

/**
 * @file
 * Seed set shared by the arch differential suites (bank_fuzz_test.cpp,
 * msf_test.cpp).
 */

#include <cstdint>
#include <cstdlib>

namespace lsqca {

/**
 * Seed-set size for the differential suites. The default (8 per suite)
 * keeps the discovered ctest run CI-sized; the fuzz-labeled ctest entry
 * re-runs every *Differential* suite with LSQCA_FUZZ_SEEDS=64 (see
 * CMakeLists.txt and the CI `ctest -L fuzz` step).
 */
inline int
fuzzSeedCount()
{
    if (const char *env = std::getenv("LSQCA_FUZZ_SEEDS")) {
        const int n = std::atoi(env);
        if (n >= 1 && n <= 65536)
            return n;
    }
    return 8;
}

/** Distinct, well-mixed 64-bit seed for differential round @p index. */
inline std::uint64_t
differentialSeed(int index)
{
    return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
}

} // namespace lsqca

#endif // LSQCA_TESTS_ARCH_FUZZ_SEEDS_H
