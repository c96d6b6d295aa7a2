#ifndef LSQCA_COMMON_ERROR_H
#define LSQCA_COMMON_ERROR_H

/**
 * @file
 * Error-reporting primitives for the LSQCA library.
 *
 * Follows the gem5 fatal/panic distinction:
 *  - ConfigError (LSQCA_REQUIRE) — the caller supplied an invalid
 *    configuration or argument; recoverable by fixing the input.
 *  - InternalError (LSQCA_ASSERT) — an invariant of the library itself was
 *    violated; indicates a bug in this codebase.
 */

#include <stdexcept>
#include <string>

namespace lsqca {

/** Raised when user-supplied configuration or arguments are invalid. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &msg)
        : std::runtime_error("lsqca: config error: " + msg)
    {}
};

/** Raised when a library invariant is violated (a bug in lsqca itself). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &msg)
        : std::logic_error("lsqca: internal error: " + msg)
    {}
};

namespace detail {

/**
 * Throw ConfigError. Its message is the user's to read, so it names
 * no source location; out of line, so that LSQCA_REQUIRE stays small
 * where it is inlined.
 */
[[noreturn]] void throwConfigError(const std::string &msg);

/** Throw InternalError with source location context. */
[[noreturn]] void throwInternalError(const char *file, int line,
                                     const char *expr,
                                     const std::string &msg);

} // namespace detail
} // namespace lsqca

/**
 * Validate a user-facing precondition; throws lsqca::ConfigError on
 * failure. Use for argument/configuration validation on public APIs.
 */
#define LSQCA_REQUIRE(cond, msg)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::lsqca::detail::throwConfigError((msg));                       \
        }                                                                   \
    } while (0)

/**
 * Check an internal invariant; throws lsqca::InternalError on failure.
 * Active in all build types — simulator correctness depends on these.
 */
#define LSQCA_ASSERT(cond, msg)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::lsqca::detail::throwInternalError(__FILE__, __LINE__, #cond,  \
                                                (msg));                     \
        }                                                                   \
    } while (0)

#endif // LSQCA_COMMON_ERROR_H
