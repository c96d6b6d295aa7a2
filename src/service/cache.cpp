#include "service/cache.h"

#include "common/error.h"
#include "common/fs.h"
#include "common/hash.h"

namespace lsqca::service {

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::jobPathFor(const std::string &fingerprint) const
{
    LSQCA_REQUIRE(enabled(), "result cache is disabled");
    // The fingerprint becomes a file name; insist on the 16-hex shape
    // so a corrupted queue entry can never escape the cache dir.
    LSQCA_REQUIRE(isFingerprint(fingerprint),
                  "bad cache fingerprint \"" + fingerprint + "\"");
    return dir_ + "/jobs/" + fingerprint + ".json";
}

bool
ResultCache::containsJob(const std::string &fingerprint) const
{
    return enabled() && fsutil::exists(jobPathFor(fingerprint));
}

Json
ResultCache::fetchJob(const std::string &fingerprint) const
{
    if (!containsJob(fingerprint))
        return Json();
    // Validation doubles as corruption tolerance: with fsync'd atomic
    // publishes a torn file should be impossible, but a shared cache
    // directory can hold foreign bytes — treat anything that is not a
    // well-formed lsqca-jobcache-v1 wrapper as a miss rather than
    // failing the campaign.
    try {
        const Json doc = Json::load(jobPathFor(fingerprint));
        if (!doc.isObject() || !doc.contains("schema") ||
            !doc.contains("fingerprint") || !doc.contains("entry"))
            return Json();
        if (doc.at("schema").asString() != "lsqca-jobcache-v1" ||
            doc.at("fingerprint").asString() != fingerprint)
            return Json();
        return doc.at("entry");
    } catch (...) {
        return Json();
    }
}

void
ResultCache::storeJob(const std::string &fingerprint, const Json &entry,
                      const Json &provenance) const
{
    if (!enabled())
        return;
    Json doc = Json::object();
    doc.set("schema", "lsqca-jobcache-v1");
    doc.set("fingerprint", fingerprint);
    doc.set("provenance", provenance);
    doc.set("entry", entry);
    fsutil::writeFileAtomic(jobPathFor(fingerprint), doc.dump(2) + "\n");
}

std::size_t
ResultCache::jobCount() const
{
    if (!enabled() || !fsutil::isDirectory(dir_ + "/jobs"))
        return 0;
    return fsutil::listFiles(dir_ + "/jobs", "", ".json").size();
}

} // namespace lsqca::service
