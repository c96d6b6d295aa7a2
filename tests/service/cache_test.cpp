/**
 * @file
 * The result cache must be safe against bad keys (a fingerprint
 * becomes a file name) and inert when disabled; its byte-exact
 * round trip is pinned in job_cache_test.cpp.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/hash.h"
#include "service/cache.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

const char *kKey = "0123456789abcdef";

TEST(ResultCache, RejectsMalformedFingerprints)
{
    const std::string dir = test::scratchDir("badkey");
    const ResultCache cache(dir);
    // Path traversal or corruption in a queue file must never escape
    // the cache directory.
    EXPECT_THROW(cache.jobPathFor("../../etc/passwd"), ConfigError);
    EXPECT_THROW(cache.jobPathFor("0123"), ConfigError);
    EXPECT_THROW(cache.jobPathFor("0123456789ABCDEF"), ConfigError);
    EXPECT_EQ(cache.jobPathFor(kKey), dir + "/jobs/" + kKey + ".json");
}

TEST(ResultCache, DisabledCacheIsInert)
{
    const ResultCache cache{std::string()};
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.containsJob(kKey));
    EXPECT_EQ(cache.jobCount(), 0u);
    Json entry = Json::object();
    entry.set("name", "job");
    cache.storeJob(kKey, entry, Json::object()); // no-op, no throw
    EXPECT_TRUE(cache.fetchJob(kKey).isNull());
    EXPECT_EQ(cache.jobCount(), 0u);
    EXPECT_THROW(cache.jobPathFor(kKey), ConfigError);
}

TEST(ResultCache, FingerprintHelpers)
{
    // The hash is pinned: cache keys are an on-disk format shared
    // across builds, so an accidental algorithm change must fail.
    EXPECT_EQ(fnv1a64(""), kFnv1a64Offset);
    EXPECT_EQ(contentFingerprint(""), "cbf29ce484222325");
    EXPECT_EQ(contentFingerprint("lsqca"), "1d71fb5df48284ab");
    EXPECT_TRUE(isFingerprint(contentFingerprint("anything")));
    EXPECT_FALSE(isFingerprint("0123456789abcde"));
    EXPECT_FALSE(isFingerprint("0123456789abcdeg"));
}

} // namespace
} // namespace lsqca::service
