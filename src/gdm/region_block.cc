#include "gdm/region_block.h"

#include "obs/metrics.h"

namespace gdms::gdm {

namespace {

// Cumulative bytes of columnar caches built (the cache-build winners only;
// racing losers drop their copy without counting). Paired with
// gdms_mem_columnar_cache_bytes (current occupancy, sampled by the resource
// tracker) and gdms_mem_evicted_bytes_total this exposes cache churn.
obs::Counter* ColumnarBuiltCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "gdms_mem_columnar_built_bytes_total");
  return c;
}

uint64_t ComputeResidentBytes(const std::vector<GenomicRegion>& rows) {
  uint64_t total = rows.capacity() * sizeof(GenomicRegion);
  for (const auto& r : rows) {
    total += r.values.capacity() * sizeof(Value);
    for (const auto& v : r.values) {
      if (v.is_string() && v.AsString().size() > 15) {
        total += v.AsString().capacity();
      }
    }
  }
  return total;
}

}  // namespace

RegionBlock::RegionBlock(std::vector<GenomicRegion> rows)
    : rows_(std::move(rows)), resident_bytes_(ComputeResidentBytes(rows_)) {}

uint64_t RegionBlock::ResidentBytes() const {
  uint64_t bytes = resident_bytes_.load(std::memory_order_relaxed);
  if (bytes == kUnknownBytes) {
    // Racing first callers compute the same figure; either store wins.
    bytes = ComputeResidentBytes(rows_);
    resident_bytes_.store(bytes, std::memory_order_relaxed);
  }
  return bytes;
}

const RegionColumns& RegionBlock::columns(const RegionSchema& schema) const {
  auto cached = std::atomic_load_explicit(&columns_, std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  auto built =
      std::make_shared<const RegionColumns>(RegionColumns::Build(rows_, schema));
  if (std::atomic_compare_exchange_strong_explicit(
          &columns_, &cached, built, std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    ColumnarBuiltCounter()->Add(built->MemoryBytes());
    return *built;
  }
  return *cached;  // another thread won the race; adopt its columns
}

uint64_t RegionBlock::ColumnarCacheBytes() const {
  auto cached = std::atomic_load_explicit(&columns_, std::memory_order_acquire);
  return cached != nullptr ? cached->MemoryBytes() : 0;
}

uint64_t RegionBlock::EvictColumns() const {
  auto cached = std::atomic_exchange_explicit(
      &columns_, std::shared_ptr<const RegionColumns>(),
      std::memory_order_acq_rel);
  return cached != nullptr ? cached->MemoryBytes() : 0;
}

void RegionBlock::DropCaches(bool columns) {
  // Only the block's sole holder writes, and no reader may race a write, so
  // the plain null check cannot miss a concurrently published cache.
  if (columns && columns_ != nullptr) {
    std::atomic_store_explicit(&columns_,
                               std::shared_ptr<const RegionColumns>(),
                               std::memory_order_release);
  }
  resident_bytes_.store(kUnknownBytes, std::memory_order_relaxed);
}

std::vector<GenomicRegion>& RegionVec::Writable(bool drop_columns) {
  if (block_ == nullptr || block_.use_count() != 1) {
    auto copy = std::make_shared<RegionBlock>();
    if (block_ != nullptr) copy->rows_ = block_->rows_;
    block_ = std::move(copy);
  } else {
    // A former sharer's release of its reference happens-before this write.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  // The block is referenced by this handle alone (checked above or just
  // created), so writing through it cannot reach another sample.
  auto* block = const_cast<RegionBlock*>(block_.get());
  block->DropCaches(drop_columns);
  return block->rows_;
}

const std::vector<GenomicRegion>& RegionVec::EmptyRows() {
  static const std::vector<GenomicRegion> empty;
  return empty;
}

}  // namespace gdms::gdm
