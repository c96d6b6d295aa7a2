#ifndef LSQCA_COMMON_FS_H
#define LSQCA_COMMON_FS_H

/**
 * @file
 * Filesystem helpers for the service layer: atomic writes (tmp +
 * rename, so a crashed orchestrator never leaves a half-written
 * queue.json or cache entry behind), byte-exact copies, and
 * deterministic (sorted) directory listings for `lsqca merge <dir>`.
 * All errors surface as ConfigError with the offending path.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace lsqca::fsutil {

bool exists(const std::string &path);

bool isDirectory(const std::string &path);

/** mkdir -p. @throws ConfigError on failure. */
void makeDirs(const std::string &path);

/** Whole-file read. @throws ConfigError when unreadable. */
std::string readFile(const std::string &path);

/**
 * Write @p content to @p path atomically AND durably: parent dirs are
 * created, bytes land in a sibling temp file, the file descriptor is
 * fsync()ed, and only then does rename() publish the name (followed by
 * a best-effort fsync of the parent directory). Concurrent readers see
 * either the old or the new document — never a torn one — and a crash
 * at any point cannot materialize an empty or truncated file at the
 * final path. The temp name carries a per-call unique suffix, so
 * concurrent writers of the same path (threads or campaigns sharing a
 * cache directory) never clobber each other's staging file.
 * @throws ConfigError.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * Process-wide counters for the atomic write path, for tests that
 * assert durability behaviour (each successful writeFileAtomic must
 * issue at least one data fsync before its rename).
 */
struct AtomicWriteStats
{
    std::uint64_t writes = 0; ///< successful writeFileAtomic calls
    std::uint64_t fsyncs = 0; ///< data fsyncs issued before rename
};

AtomicWriteStats atomicWriteStats();

/** Best-effort unlink; absent files are not an error. */
void removeFile(const std::string &path);

/**
 * Regular files in @p dir whose names start with @p prefix and end
 * with @p suffix, as full paths sorted by file name (deterministic
 * merge order). @throws ConfigError when @p dir is not a directory.
 */
std::vector<std::string> listFiles(const std::string &dir,
                                   const std::string &prefix = "",
                                   const std::string &suffix = "");

} // namespace lsqca::fsutil

#endif // LSQCA_COMMON_FS_H
