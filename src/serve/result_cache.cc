#include "serve/result_cache.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/resource.h"

namespace gdms::serve {

namespace {

struct ResultMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* invalidations;
  obs::Counter* evictions;

  static const ResultMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ResultMetrics m{
        reg.GetCounter("gdms_serve_result_hits_total"),
        reg.GetCounter("gdms_serve_result_misses_total"),
        reg.GetCounter("gdms_serve_result_invalidations_total"),
        reg.GetCounter("gdms_serve_result_evictions_total")};
    return m;
  }
};

uint64_t EstimateResultBytes(const ResultCache::Results& value) {
  uint64_t bytes = 0;
  if (value != nullptr) {
    for (const auto& [name, ds] : *value) bytes += ds.EstimateResidentBytes();
  }
  return bytes;
}

/// The bytes `value` holds that neither `inputs` nor an earlier dataset of
/// `value` shares: what evicting the entry frees.
uint64_t EstimateOwnedBytes(const ResultCache::Results& value,
                            std::vector<const gdm::Dataset*> inputs) {
  uint64_t bytes = 0;
  if (value != nullptr) {
    for (const auto& [name, ds] : *value) {
      bytes += ds.EstimateResidentBytesBeyond(inputs);
      inputs.push_back(&ds);
    }
  }
  return bytes;
}

}  // namespace

ResultCache::ResultCache(uint64_t max_bytes) : max_bytes_(max_bytes) {
  // Cached results are reclaimable overlay bytes like columnar caches:
  // report them to the tracker so the budget shedder covers them.
  tracker_token_ = obs::ResourceTracker::Global().RegisterStorage(
      "result_cache",
      [this] {
        obs::StorageUsage usage;
        usage.columnar_bytes = stats().owned_bytes;
        return usage;
      },
      [this](uint64_t want_bytes) { return Shed(want_bytes); });
}

ResultCache::~ResultCache() {
  obs::ResourceTracker::Global().UnregisterStorage(tracker_token_);
}

ResultCache::Results ResultCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    ResultMetrics::Get().misses->Add();
    return nullptr;
  }
  ++hits_;
  ResultMetrics::Get().hits->Add();
  it->second.last_touch = ++touch_clock_;
  return it->second.value;
}

void ResultCache::Put(const std::string& key,
                      const std::vector<std::string>& sources,
                      const std::vector<const gdm::Dataset*>& inputs,
                      Results value) {
  uint64_t bytes = EstimateResultBytes(value);
  uint64_t owned_bytes = EstimateOwnedBytes(value, inputs);
  std::lock_guard<std::mutex> lk(mu_);
  Entry& entry = entries_[key];
  // Replacement: drop the old figures first.
  bytes_ -= entry.bytes;
  owned_bytes_ -= entry.owned_bytes;
  entry.value = std::move(value);
  entry.sources = sources;
  entry.bytes = bytes;
  entry.owned_bytes = owned_bytes;
  entry.last_touch = ++touch_clock_;
  bytes_ += bytes;
  owned_bytes_ += owned_bytes;
  if (max_bytes_ > 0 && bytes_ > max_bytes_) {
    ShedLocked(bytes_ - max_bytes_, &Entry::bytes);
  }
}

void ResultCache::InvalidateDataset(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::vector<std::string>& sources = it->second.sources;
    if (std::find(sources.begin(), sources.end(), name) != sources.end()) {
      bytes_ -= it->second.bytes;
      owned_bytes_ -= it->second.owned_bytes;
      it = entries_.erase(it);
      ++invalidations_;
      ResultMetrics::Get().invalidations->Add();
    } else {
      ++it;
    }
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.clear();
  bytes_ = 0;
  owned_bytes_ = 0;
}

uint64_t ResultCache::Shed(uint64_t want_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  return ShedLocked(want_bytes, &Entry::owned_bytes);
}

uint64_t ResultCache::ShedLocked(uint64_t want_bytes,
                                 uint64_t Entry::*figure) {
  uint64_t freed = 0;
  while (freed < want_bytes && !entries_.empty()) {
    auto coldest = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (coldest == entries_.end() ||
          it->second.last_touch < coldest->second.last_touch) {
        coldest = it;
      }
    }
    freed += coldest->second.*figure;
    bytes_ -= coldest->second.bytes;
    owned_bytes_ -= coldest->second.owned_bytes;
    entries_.erase(coldest);
    ++evictions_;
    ResultMetrics::Get().evictions->Add();
  }
  return freed;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.invalidations = invalidations_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.owned_bytes = owned_bytes_;
  return s;
}

std::string ResultCache::RenderSummary() const {
  Stats s = stats();
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "result cache  entries %zu  %.1f KB  hit %llu  miss %llu"
      "  invalidated %llu  evicted %llu\n",
      s.entries, static_cast<double>(s.bytes) / 1024.0,
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.invalidations),
      static_cast<unsigned long long>(s.evictions));
  return buf;
}

}  // namespace gdms::serve
