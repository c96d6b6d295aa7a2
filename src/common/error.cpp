#include "common/error.h"

#include <sstream>

namespace lsqca {
namespace detail {

void
throwConfigError(const std::string &msg)
{
    throw ConfigError(msg);
}

void
throwInternalError(const char *file, int line, const char *expr,
                   const std::string &msg)
{
    std::ostringstream oss;
    oss << msg << " (assertion `" << expr << "` failed) [" << file << ":"
        << line << "]";
    throw InternalError(oss.str());
}

} // namespace detail
} // namespace lsqca
