/**
 * @file
 * Content-addressed on-disk cache of replay results (DESIGN.md §11,
 * §13).
 *
 * The one container is an arena-backed record store
 * (src/store/record_store.h) at bench_out/results/store.crwstore —
 * single-writer (flock-elected), attachable read-only by any number
 * of concurrent processes, one mmap for the whole sweep instead of
 * one file parse per point. The cache key names the full identity of
 * a result:
 *
 *   <pointConfigKey>|trace=<checksum hex>|v<kRunMetricsFormatVersion>
 *
 * so an entry is invalidated when the captured trace changes
 * (checksum), when any result-affecting EngineConfig field, the
 * policy or the cost model changes (pointConfigKey), or when the
 * serialized format is bumped. The key is stored inside each record
 * and verified on load, so an index collision degrades to a miss,
 * never to an aliased result. A record that fails validation bumps
 * the cache.corrupt counter and is silently re-replayed.
 *
 * Only the store's writer persists. A process that loses the writer
 * election (or cannot map the store at all) still reads what the
 * writer published, but its own fresh results are not persisted: it
 * notes that once on stderr when the store opens.
 */

#ifndef CRW_BENCH_RESULT_CACHE_H_
#define CRW_BENCH_RESULT_CACHE_H_

#include <cstdint>
#include <string>

#include "store/record_store.h"

namespace crw {

struct RunMetrics;

namespace bench {

/** Full identity of one cached result (see file comment). */
std::string resultCacheKey(const std::string &point_key,
                           std::uint64_t trace_checksum);

/**
 * Path of the shared result store. Overridable via the
 * CRW_RESULT_STORE environment variable so test processes (which run
 * concurrently under ctest and deliberately damage entries) get a
 * private store instead of fighting over the benchmark one.
 */
std::string resultStorePath();

/**
 * The process-wide result store, opened lazily at resultStorePath().
 * Writer if this process won the flock election, Reader if another
 * holds it, Invalid if the path is unusable.
 */
store::RecordStore &resultStore();

/**
 * Load the entry for @p cache_key from the store. False on a miss,
 * a key mismatch or damage — callers re-replay; a miss is never an
 * error. Damage bumps cache.corrupt.
 */
bool loadCachedResult(const std::string &cache_key, RunMetrics &out);

/**
 * Persist one result into the store. False when it is not persisted:
 * this process is not the store's writer, or the store has no room.
 */
bool storeCachedResult(const std::string &cache_key,
                       const RunMetrics &metrics);

/**
 * Drop @p cache_key from the store (writer only). True if it was
 * there. (Tests use this; the executor never deletes.)
 */
bool removeCachedResult(const std::string &cache_key);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_RESULT_CACHE_H_
