#include "common/fs.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.h"

namespace lsqca::fsutil {

namespace stdfs = std::filesystem;

namespace {

std::atomic<std::uint64_t> gAtomicWrites{0};
std::atomic<std::uint64_t> gAtomicFsyncs{0};
std::atomic<std::uint64_t> gStagingCounter{0};

/**
 * After the rename, fsync the parent directory so the new name itself
 * survives a crash. Best effort: some filesystems refuse directory
 * fsync, and losing the *name* (while keeping both old and new
 * content intact) is strictly less harmful than the torn data the
 * mandatory file fsync prevents.
 */
void
syncParentDir(const stdfs::path &target)
{
    const stdfs::path parent =
        target.has_parent_path() ? target.parent_path() : stdfs::path(".");
    const int fd =
        ::open(parent.string().c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

bool
exists(const std::string &path)
{
    std::error_code ec;
    return stdfs::exists(stdfs::path(path), ec);
}

bool
isDirectory(const std::string &path)
{
    std::error_code ec;
    return stdfs::is_directory(stdfs::path(path), ec);
}

void
makeDirs(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    stdfs::create_directories(stdfs::path(path), ec);
    LSQCA_REQUIRE(!ec, "cannot create directory " + path + ": " +
                           ec.message());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    LSQCA_REQUIRE(in.good(), "cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    LSQCA_REQUIRE(!in.bad(), "error while reading " + path);
    return buffer.str();
}

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const stdfs::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        stdfs::create_directories(target.parent_path(), ec);
    }
    // Temp sibling in the same directory so rename() stays atomic
    // (same filesystem). pid alone is not unique enough — two threads
    // (or two campaigns in one process) staging the same path would
    // clobber each other — so every call gets its own counter suffix.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(gStagingCounter.fetch_add(1,
                                                 std::memory_order_relaxed));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    LSQCA_REQUIRE(fd >= 0, "cannot write " + tmp);
    std::size_t written = 0;
    while (written < content.size()) {
        const ::ssize_t n =
            ::write(fd, content.data() + written, content.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            removeFile(tmp);
            LSQCA_REQUIRE(false, "error while writing " + tmp);
        }
        written += static_cast<std::size_t>(n);
    }
    // Durability half of "atomic": the bytes must be on stable storage
    // BEFORE rename() publishes the name, or a crash shortly after the
    // rename can leave an *empty* file at the final path — exactly the
    // torn queue.json/cache entry this function exists to prevent.
    if (::fsync(fd) != 0) {
        ::close(fd);
        removeFile(tmp);
        LSQCA_REQUIRE(false, "cannot fsync " + tmp);
    }
    gAtomicFsyncs.fetch_add(1, std::memory_order_relaxed);
    if (::close(fd) != 0) {
        removeFile(tmp);
        LSQCA_REQUIRE(false, "error while writing " + tmp);
    }
    std::error_code ec;
    stdfs::rename(stdfs::path(tmp), target, ec);
    if (ec) {
        removeFile(tmp);
        LSQCA_REQUIRE(false, "cannot rename " + tmp + " -> " + path +
                                 ": " + ec.message());
    }
    syncParentDir(target);
    gAtomicWrites.fetch_add(1, std::memory_order_relaxed);
}

AtomicWriteStats
atomicWriteStats()
{
    AtomicWriteStats stats;
    stats.writes = gAtomicWrites.load(std::memory_order_relaxed);
    stats.fsyncs = gAtomicFsyncs.load(std::memory_order_relaxed);
    return stats;
}

void
removeFile(const std::string &path)
{
    std::error_code ec;
    stdfs::remove(stdfs::path(path), ec);
}

std::vector<std::string>
listFiles(const std::string &dir, const std::string &prefix,
          const std::string &suffix)
{
    LSQCA_REQUIRE(isDirectory(dir), dir + " is not a directory");
    struct Entry
    {
        std::string name;
        std::string path;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto &item : stdfs::directory_iterator(dir, ec)) {
        // Non-throwing overload: an entry vanishing mid-iteration
        // (e.g. a sibling writer's staging file being renamed away) is
        // a skip, not a filesystem_error.
        std::error_code entryEc;
        if (!item.is_regular_file(entryEc) || entryEc)
            continue;
        const std::string name = item.path().filename().string();
        if (name.size() < prefix.size() + suffix.size())
            continue;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (suffix.size() > 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        entries.push_back({name, item.path().string()});
    }
    LSQCA_REQUIRE(!ec, "cannot list " + dir + ": " + ec.message());
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.name < b.name;
              });
    std::vector<std::string> paths;
    paths.reserve(entries.size());
    for (Entry &entry : entries)
        paths.push_back(std::move(entry.path));
    return paths;
}

} // namespace lsqca::fsutil
