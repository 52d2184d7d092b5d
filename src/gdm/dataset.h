#ifndef GDMS_GDM_DATASET_H_
#define GDMS_GDM_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gdm/metadata.h"
#include "gdm/region.h"
#include "gdm/region_block.h"
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
///
/// `regions` is a copy-on-write handle to a shared, immutable RegionBlock
/// (gdm/region_block.h): copying a Sample shares its rows and their cached
/// columns; writing through `regions` first gives the sample a private copy.
struct Sample {
  SampleId id = 0;
  Metadata metadata;
  RegionVec regions;

  Sample() = default;
  explicit Sample(SampleId sample_id) : id(sample_id) {}

  size_t num_regions() const { return regions.size(); }

  void SortNow() { SortRegions(&regions.mutable_rows()); }
  bool IsSorted() const { return RegionsSorted(regions); }

  /// The columnar (SoA) layout of the regions (gdm/region_columns.h),
  /// cached on the region block and so shared by every sample holding the
  /// block (RegionBlock::columns). Its chunk directory is the sample's one
  /// per-chromosome index: row range and max region length per chromosome.
  /// Writes that change the row vector drop the cache (RegionVec); after
  /// writing coordinates or values through element references, call
  /// InvalidateCaches() (SortNow does). The caller must pass the owning
  /// dataset's schema every time.
  const RegionColumns& columns(const RegionSchema& schema) const {
    return regions.block()->columns(schema);
  }

  /// Resident bytes of the block's cached columns (0 when not built).
  uint64_t ColumnarCacheBytes() const {
    return regions.block()->ColumnarCacheBytes();
  }

  /// Drops the block's cached columns, for every sample sharing the block,
  /// returning the bytes freed (RegionBlock::EvictColumns: only while no
  /// query is running).
  uint64_t EvictColumns() const { return regions.block()->EvictColumns(); }

  /// Makes the regions private to this sample and drops their caches; the
  /// next columns() call rebuilds them.
  void InvalidateCaches() { regions.mutable_rows(); }
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
  /// region structs, their Value payload vectors and string heap
  /// (RegionBlock::ResidentBytes, cached per block), and metadata. O(samples
  /// + metadata entries); a block shared by several samples counts once per
  /// sample. The columnar caches are not included.
  uint64_t EstimateResidentBytes() const;

  /// The part of EstimateResidentBytes() this dataset does not share with
  /// `inputs`: every region block no input sample holds, each counted once,
  /// plus all metadata. This is what an operator that read `inputs` and
  /// produced this dataset allocated; the query runner charges it.
  uint64_t EstimateResidentBytesBeyond(
      const std::vector<const Dataset*>& inputs) const;

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
