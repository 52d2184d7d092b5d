#ifndef GDMS_SERVE_RESULT_CACHE_H_
#define GDMS_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gdm/dataset.h"

namespace gdms::serve {

/// \brief Cache of materialized query results, keyed on
/// (normalized plan, dataset versions).
///
/// The key concatenates the plan's canonical signature with the
/// name@version of every source dataset the plan read, so a dataset bump
/// makes every result computed from the old snapshot unreachable; Publish
/// additionally invalidates by name (on_publish hook) so stale entries
/// free their bytes immediately instead of waiting for LRU pressure.
///
/// Values are `shared_ptr<const map<name, Dataset>>`: a hit hands the
/// caller a reference into the cache with zero copies, and eviction at any
/// moment is safe — in-flight readers keep their snapshot alive.
///
/// Byte-bounded (LRU) and registered with obs::ResourceTracker under the
/// label "result_cache": cached result bytes show up in the storage gauges
/// as reclaimable, and the budget shedder evicts them LRU-first like any
/// other cache. A result may share region blocks with the source snapshots
/// it was computed from (a metadata-only SELECT shares all of them), and
/// evicting it frees only the rest. So the tracker sees each entry's owned
/// bytes (region blocks no source snapshot holds, plus metadata), while
/// `max_bytes` caps the full resident figure.
class ResultCache {
 public:
  using Results = std::shared_ptr<const std::map<std::string, gdm::Dataset>>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  ///< entries dropped by dataset bumps
    uint64_t evictions = 0;      ///< entries dropped by LRU/byte pressure
    size_t entries = 0;
    uint64_t bytes = 0;        ///< full resident figure (the max_bytes cap)
    uint64_t owned_bytes = 0;  ///< not shared with source snapshots
  };

  /// `max_bytes` caps resident result bytes (0 = unbounded; the tracker
  /// budget still sheds).
  explicit ResultCache(uint64_t max_bytes = 256ull << 20);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Cached results for `key`, or nullptr (counts hit/miss).
  Results Get(const std::string& key);

  /// Inserts `value` (its resident bytes are estimated here); evicts LRU
  /// entries beyond the byte cap. `sources` are the dataset names the plan
  /// read — the invalidation index — and `inputs` the snapshots of them it
  /// read, whose region blocks the entry's owned bytes leave out.
  void Put(const std::string& key, const std::vector<std::string>& sources,
           const std::vector<const gdm::Dataset*>& inputs, Results value);

  /// Drops every entry computed from dataset `name` (any version).
  void InvalidateDataset(const std::string& name);

  void Clear();

  /// Evicts LRU entries until `want_bytes` owned bytes are freed (or
  /// empty); returns the owned bytes freed. The ResourceTracker shed
  /// callback.
  uint64_t Shed(uint64_t want_bytes);

  Stats stats() const;

  /// Human-readable summary (the `.cache` command).
  std::string RenderSummary() const;

 private:
  struct Entry {
    Results value;
    std::vector<std::string> sources;
    uint64_t bytes = 0;
    uint64_t owned_bytes = 0;
    uint64_t last_touch = 0;
  };

  /// Evicts LRU entries until their `figure` sums to `want_bytes`; returns
  /// that sum.
  uint64_t ShedLocked(uint64_t want_bytes, uint64_t Entry::*figure);

  const uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  uint64_t bytes_ = 0;
  uint64_t owned_bytes_ = 0;
  uint64_t touch_clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t evictions_ = 0;
  uint64_t tracker_token_ = 0;
};

}  // namespace gdms::serve

#endif  // GDMS_SERVE_RESULT_CACHE_H_
