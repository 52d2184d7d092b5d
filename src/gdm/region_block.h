#ifndef GDMS_GDM_REGION_BLOCK_H_
#define GDMS_GDM_REGION_BLOCK_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "gdm/region.h"
#include "gdm/region_columns.h"
#include "gdm/schema.h"

namespace gdms::gdm {

/// \brief One sample's region rows plus the caches derived from them.
///
/// Blocks are shared between samples: an operator that keeps every region of
/// its input sample (metadata-only SELECT, a region SELECT whose predicate
/// holds on every row, EXTEND, a PROJECT that keeps every attribute) hands
/// the input's block to its output instead of copying the rows, so such an
/// operator costs O(samples) pointer copies and freeing its output only
/// drops reference counts. A block that more than one RegionVec holds is
/// never written: RegionVec copies the rows into a private block before any
/// write. The two caches therefore hold for every sharer:
///
///   - the resident-byte figure, computed when the rows are handed over and
///     again lazily after any write access;
///   - the columnar layout (gdm/region_columns.h), built lazily on the first
///     columns() call and reused by every sample holding the block. Writes
///     that change the row vector drop it; writes through element
///     references do not (see RegionVec).
class RegionBlock {
 public:
  RegionBlock() = default;
  /// Takes the rows and computes their resident-byte figure.
  explicit RegionBlock(std::vector<GenomicRegion> rows);

  const std::vector<GenomicRegion>& rows() const { return rows_; }

  /// Estimated resident bytes of the rows: the region structs (by vector
  /// capacity), each region's Value payload (by capacity) and the heap
  /// block of every string longer than the SSO buffer. Cached; safe to
  /// call concurrently.
  uint64_t ResidentBytes() const;

  /// The columnar (SoA) layout of the rows, built on first use against
  /// `schema`. Every sharer of a block belongs to a dataset with the same
  /// region schema (operators share only when they keep the schema), and
  /// the caller passes that schema every time. Lazy building is
  /// thread-safe: concurrent first callers may each build the columns, but
  /// publication is an atomic compare-exchange, so every caller sees fully
  /// built columns. The reference stays valid until EvictColumns() or a
  /// write through the block's only holder.
  const RegionColumns& columns(const RegionSchema& schema) const;

  /// Resident bytes of the cached columns (0 when not built). Safe to call
  /// concurrently with readers.
  uint64_t ColumnarCacheBytes() const;

  /// Drops the cached columns for every sharer and returns the bytes
  /// freed. The next columns() call rebuilds the same columns from the
  /// untouched rows, so results are bit-identical. Must not race readers
  /// holding references into the columns: the resource shedder calls this
  /// only when no query is running.
  uint64_t EvictColumns() const;

 private:
  friend class RegionVec;

  static constexpr uint64_t kUnknownBytes = UINT64_MAX;

  /// Forgets the resident figure, and the columns too when `columns`,
  /// before a write by the block's only holder.
  void DropCaches(bool columns);

  std::vector<GenomicRegion> rows_;
  mutable std::atomic<uint64_t> resident_bytes_{kUnknownBytes};
  // Published with the std::atomic_* shared_ptr free functions so racing
  // lazy builds resolve to one winner and concurrent byte readers keep the
  // columns alive while they read them.
  mutable std::shared_ptr<const RegionColumns> columns_;
};

/// \brief Copy-on-write handle to a sample's rows (Sample::regions).
///
/// Reads like a `const std::vector<GenomicRegion>`: range-for, size(),
/// operator[] and the conversion to `const std::vector<GenomicRegion>&`
/// read the shared block directly. Copying the handle shares the block.
/// Every non-const member first makes the block private to this handle,
/// copying the rows when another handle shares them, so a write never
/// reaches another sample, and drops the block's resident-byte figure.
/// The columns:
///
///   - members that change the row vector (push_back, resize, erase, ...,
///     and mutable_rows(), the explicit write access) drop them;
///   - element access (non-const operator[], begin(), end()) keeps them,
///     so a read through a non-const sample never frees columns a caller
///     still holds. After writing coordinates or values through element
///     references, call Sample::InvalidateCaches() (SortNow does).
///
/// A reference or iterator returned by a non-const member stays valid until
/// the handle is copied or reassigned; finish writing before sharing the
/// handle.
class RegionVec {
 public:
  using value_type = GenomicRegion;
  using size_type = size_t;
  using iterator = std::vector<GenomicRegion>::iterator;
  using const_iterator = std::vector<GenomicRegion>::const_iterator;

  RegionVec() : block_(std::make_shared<const RegionBlock>()) {}
  RegionVec(std::vector<GenomicRegion> rows)  // NOLINT: vector-like assign
      : block_(std::make_shared<const RegionBlock>(std::move(rows))) {}
  RegionVec(std::initializer_list<GenomicRegion> rows)
      : RegionVec(std::vector<GenomicRegion>(rows)) {}

  // ------------------------------------------------------------- reading

  /// The rows (empty for a moved-from handle).
  const std::vector<GenomicRegion>& rows() const {
    return block_ != nullptr ? block_->rows() : EmptyRows();
  }
  operator const std::vector<GenomicRegion>&() const {  // NOLINT
    return rows();
  }
  size_t size() const { return rows().size(); }
  bool empty() const { return rows().empty(); }
  size_t capacity() const { return rows().capacity(); }
  const_iterator begin() const { return rows().begin(); }
  const_iterator end() const { return rows().end(); }
  const GenomicRegion& operator[](size_t i) const { return rows()[i]; }

  // ------------------------------------------------------------- sharing

  /// The block behind the handle; two handles share storage exactly when
  /// their blocks are equal. Null only for a moved-from handle.
  const RegionBlock* block() const { return block_.get(); }

  /// RegionBlock::ResidentBytes (0 for a moved-from handle).
  uint64_t ResidentBytes() const {
    return block_ != nullptr ? block_->ResidentBytes() : 0;
  }

  // ------------------------------------------------------------- writing

  /// The rows, made private to this handle with every cache dropped.
  std::vector<GenomicRegion>& mutable_rows() { return Writable(true); }

  iterator begin() { return Writable(false).begin(); }
  iterator end() { return Writable(false).end(); }
  GenomicRegion& operator[](size_t i) { return Writable(false)[i]; }
  void push_back(const GenomicRegion& r) { mutable_rows().push_back(r); }
  void push_back(GenomicRegion&& r) { mutable_rows().push_back(std::move(r)); }
  template <typename... Args>
  GenomicRegion& emplace_back(Args&&... args) {
    return mutable_rows().emplace_back(std::forward<Args>(args)...);
  }
  void pop_back() { mutable_rows().pop_back(); }
  void reserve(size_t n) { mutable_rows().reserve(n); }
  void resize(size_t n) { mutable_rows().resize(n); }
  /// `first` and `last` must come from this handle's non-const
  /// begin()/end() (iterators of the private block).
  iterator erase(const_iterator first, const_iterator last) {
    return mutable_rows().erase(first, last);
  }

 private:
  /// The rows of a block private to this handle (copied when shared), with
  /// the resident figure dropped, and the columns too when `drop_columns`.
  std::vector<GenomicRegion>& Writable(bool drop_columns);
  static const std::vector<GenomicRegion>& EmptyRows();

  std::shared_ptr<const RegionBlock> block_;
};

}  // namespace gdms::gdm

#endif  // GDMS_GDM_REGION_BLOCK_H_
