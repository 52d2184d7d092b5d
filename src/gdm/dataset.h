#ifndef GDMS_GDM_DATASET_H_
#define GDMS_GDM_DATASET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gdm/metadata.h"
#include "gdm/region.h"
#include "gdm/region_columns.h"
#include "gdm/schema.h"

namespace gdms::gdm {

/// Sample identifier. Source samples get small ids; derived samples get
/// content-hashed ids so provenance is reproducible (paper, Section 2:
/// "tracing provenance ... is a unique aspect of our approach").
using SampleId = uint64_t;

/// \brief One biological sample: an id, its regions, and its metadata.
///
/// The sample id is the many-to-many connection between regions and metadata
/// (Figure 2). Regions are kept coordinate-sorted by convention; operations
/// that construct samples call SortNow() (or produce sorted output directly).
struct Sample {
  SampleId id = 0;
  Metadata metadata;
  std::vector<GenomicRegion> regions;

  Sample() = default;
  explicit Sample(SampleId sample_id) : id(sample_id) {}

  size_t num_regions() const { return regions.size(); }

  void SortNow() {
    SortRegions(&regions);
    InvalidateCaches();
  }
  bool IsSorted() const { return RegionsSorted(regions); }

  /// The cached columnar (SoA) layout over `regions` (see
  /// gdm/region_columns.h), built lazily against `schema` on first use. Its
  /// chunk directory is the sample's one per-chromosome index: row range
  /// and max region length per chromosome.
  ///
  /// The cache self-invalidates when the region vector's storage or size
  /// changes (append, copy, reassignment); after IN-PLACE coordinate or
  /// value mutation callers must call InvalidateCaches() (SortNow does so).
  /// Lazy building is thread-safe: concurrent first callers may each build
  /// the columns, but publication is an atomic compare-exchange, so every
  /// caller sees fully built columns and the parallel engine can fan out
  /// over untouched samples directly. The returned reference stays valid
  /// until the cache is invalidated — invalidating while other threads read
  /// the sample is a caller contract violation. The caller must pass the
  /// owning dataset's schema every time; a schema change without a
  /// region-storage change is not detected.
  const RegionColumns& columns(const RegionSchema& schema) const;

  /// Resident bytes of the cached columnar layout (0 when not built).
  /// Safe to call concurrently with readers: reads the atomically
  /// published cache pointer only.
  uint64_t ColumnarCacheBytes() const;

  /// Drops the cached columnar layout, returning the bytes freed. The next
  /// columns() call rebuilds the same columns from the untouched row
  /// storage, so results are bit-identical; the resource shedder calls this
  /// between queries under memory pressure. Same caller contract as
  /// InvalidateCaches: must not race readers holding references into the
  /// cache.
  uint64_t EvictColumns() const;

  /// Drops the cached columnar layout; the next columns() call rebuilds it.
  void InvalidateCaches() const {
    std::atomic_store_explicit(&columns_cache_,
                               std::shared_ptr<const RegionColumns>(),
                               std::memory_order_release);
  }

 private:
  // Lazily built cache, published with the std::atomic_* shared_ptr free
  // functions so concurrent lazy builds race benignly (one winner, losers
  // drop their copy).
  mutable std::shared_ptr<const RegionColumns> columns_cache_;
};

/// \brief A named dataset: samples sharing one region schema.
///
/// The GDM constraint (Section 2): "data samples can be included into a named
/// dataset when their genomic regions have the same schema". Validate()
/// enforces it structurally (value arity and types).
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, RegionSchema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const RegionSchema& schema() const { return schema_; }
  RegionSchema* mutable_schema() { return &schema_; }

  const std::vector<Sample>& samples() const { return samples_; }
  std::vector<Sample>* mutable_samples() { return &samples_; }

  size_t num_samples() const { return samples_.size(); }
  const Sample& sample(size_t i) const { return samples_[i]; }
  Sample* mutable_sample(size_t i) { return &samples_[i]; }

  void AddSample(Sample sample) { samples_.push_back(std::move(sample)); }

  /// Total number of regions across samples.
  uint64_t TotalRegions() const;

  /// Total number of metadata entries across samples.
  uint64_t TotalMetadata() const;

  /// Checks the GDM constraint: every region of every sample has exactly
  /// schema().size() values whose types match the schema (NULL always
  /// matches), region coordinates are valid (left <= right), and sample ids
  /// are unique within the dataset.
  Status Validate() const;

  /// Estimated serialized size in bytes (used by the federated protocol's
  /// size estimates and by the E1 experiment's "29 GB" figure).
  uint64_t EstimateBytes() const;

  /// Estimated in-memory (resident) bytes of the row representation:
  /// region structs, their Value payload vectors and string heap, metadata.
  /// The columnar caches are not included.
  uint64_t EstimateResidentBytes() const;

  /// Resident bytes of the samples' built columnar caches (the reclaimable
  /// overlay the resource shedder may drop; 0 when nothing is built).
  uint64_t ColumnarCacheBytes() const;

  /// Evicts every sample's columnar cache (EvictColumns per sample),
  /// returning total bytes freed and counting evicted samples in
  /// `*samples_evicted` when non-null.
  uint64_t EvictColumnarCaches(uint64_t* samples_evicted = nullptr);

  /// Finds a sample by id; nullptr if absent.
  const Sample* FindSample(SampleId id) const;

  /// Renders the first `max_samples` samples / `max_regions` regions per
  /// sample, Figure 2 style (region table + metadata triples).
  std::string Describe(size_t max_samples = 2, size_t max_regions = 5) const;

 private:
  std::string name_;
  RegionSchema schema_;
  std::vector<Sample> samples_;
};

/// Derives a reproducible sample id from an operation tag and parent ids,
/// e.g. DeriveSampleId("MAP", {ref_id, exp_id}).
SampleId DeriveSampleId(const std::string& op_tag,
                        const std::vector<SampleId>& parents);

}  // namespace gdms::gdm

#endif  // GDMS_GDM_DATASET_H_
