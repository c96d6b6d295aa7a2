#ifndef LSQCA_API_JOB_CACHE_H
#define LSQCA_API_JOB_CACHE_H

/**
 * @file
 * The job-granularity cache seam between runSpec and the service
 * layer's content-addressed store.
 *
 * The result cache keys the *per-job* BENCH entry by
 * api::jobFingerprint — no sweep name, no shard geometry — so a
 * resubmit after adding one grid point, or under a different shard
 * partition, recomputes only the new jobs and splices the rest.
 * runSpec consumes this interface; src/service/cache.* implements it
 * over the cache directory (the dependency arrow stays service → api).
 *
 * Contract: fetchEntry returns the exact Json entry previously passed
 * to storeEntry for the same fingerprint (or a null Json on a miss).
 * Because the Json layer round-trips byte-exactly, a document spliced
 * from cached entries is byte-identical to a fresh simulation.
 */

#include <string>

#include "common/json.h"

namespace lsqca::api {

class JobCacheClient
{
  public:
    virtual ~JobCacheClient() = default;

    /** The cached BENCH entry for @p fingerprint, or null on a miss. */
    virtual Json fetchEntry(const std::string &fingerprint) = 0;

    /**
     * Store a freshly computed BENCH @p entry under @p fingerprint.
     * @p provenance is the canonical job manifest the fingerprint was
     * derived from (api::jobManifest) — persisted beside the entry so
     * a cache hit can always be traced back to the exact benchmark
     * params, lowered-program identity, arch config, and sim options
     * that produced it.
     */
    virtual void storeEntry(const std::string &fingerprint,
                            const Json &entry, const Json &provenance) = 0;
};

} // namespace lsqca::api

#endif // LSQCA_API_JOB_CACHE_H
