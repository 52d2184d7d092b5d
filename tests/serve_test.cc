// Tests for the src/serve session layer: query normalization, plan-cache
// hit/rebind result equivalence, result-cache invalidation on dataset
// publish (bit-identical to an uncached run), admission control that sheds
// instead of blocking, queue deadlines, and — the TSan target — concurrent
// sessions hammering the caches while a writer bumps dataset versions.

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "io/gdm_format.h"
#include "obs/resource.h"
#include "serve/plan_cache.h"
#include "serve/serve_catalog.h"
#include "serve/session_manager.h"
#include "sim/generators.h"

namespace gdms::serve {
namespace {

gdm::GenomeAssembly TestGenome() {
  return gdm::GenomeAssembly::HumanLike(4, 40000000);
}

gdm::Dataset Encode(uint64_t seed) {
  sim::PeakDatasetOptions popt;
  popt.num_samples = 2;
  popt.peaks_per_sample = 500;
  return sim::GeneratePeakDataset(TestGenome(), popt, seed);
}

gdm::Dataset Annotations() {
  sim::GeneCatalog genes = sim::GenerateGenes(TestGenome(), 200, 21);
  return sim::GenerateAnnotations(TestGenome(), genes, {}, 21);
}

const char* kCoverQuery =
    "MARKED = SELECT(dataType == 'ChipSeq') ENCODE;\n"
    "ACTIVE = COVER(2, ANY) MARKED;\n"
    "MATERIALIZE ACTIVE;\n";

std::string MapQuery(const std::string& antibody) {
  return "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
         "PEAKS = SELECT(antibody == '" +
         antibody +
         "') ENCODE;\n"
         "R = MAP(peak_count AS COUNT) PROMS PEAKS;\n"
         "MATERIALIZE R;\n";
}

/// Reference run with a plain (uncached, unserved) QueryRunner over the
/// given datasets: the ground truth served results must be bit-identical to.
std::map<std::string, std::string> UncachedRun(
    const std::vector<gdm::Dataset>& datasets, const std::string& gmql) {
  core::QueryRunner runner;
  for (const auto& ds : datasets) runner.RegisterDataset(ds);
  auto results = runner.Run(gmql);
  std::map<std::string, std::string> out;
  for (const auto& [name, ds] : results.ValueOrDie()) {
    out[name] = io::WriteGdmString(ds);
  }
  return out;
}

std::map<std::string, std::string> Serialize(const ResultCache::Results& r) {
  std::map<std::string, std::string> out;
  EXPECT_NE(r, nullptr);
  if (r == nullptr) return out;
  for (const auto& [name, ds] : *r) out[name] = io::WriteGdmString(ds);
  return out;
}

TEST(NormalizeGmql, SameShapeDifferentLiterals) {
  auto a = NormalizeGmql(MapQuery("CTCF")).ValueOrDie();
  auto b = NormalizeGmql(MapQuery("EP300")).ValueOrDie();
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.literals.size(), b.literals.size());
  EXPECT_EQ(a.literals[1], "'CTCF'");
  EXPECT_EQ(b.literals[1], "'EP300'");
  auto c = NormalizeGmql(kCoverQuery).ValueOrDie();
  EXPECT_NE(a.key, c.key);
}

TEST(SessionManager, PlanHitAndRebindReturnCorrectResults) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  catalog.Publish(Annotations());
  ServeOptions opts;
  opts.workers = 2;
  SessionManager manager(&catalog, opts);

  ServeResponse first = manager.Execute(MapQuery("CTCF"));
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_STREQ(first.plan_cache, "miss");

  // Same shape, new literal: a rebind, and its results must match an
  // uncached run with that literal (not the first binding's results).
  ServeResponse rebound = manager.Execute(MapQuery("EP300"));
  ASSERT_TRUE(rebound.status.ok()) << rebound.status.message();
  EXPECT_STREQ(rebound.plan_cache, "rebind");
  EXPECT_EQ(Serialize(rebound.results),
            UncachedRun({Encode(7), Annotations()}, MapQuery("EP300")));

  // Exact repeat: plan hit, identical bytes.
  ServeResponse repeat = manager.Execute(MapQuery("EP300"));
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_STREQ(repeat.plan_cache, "hit");
  EXPECT_TRUE(repeat.result_cache_hit);
  EXPECT_EQ(Serialize(repeat.results), Serialize(rebound.results));
}

TEST(SessionManager, ResultCacheInvalidationServesFreshBytes) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  SessionManager manager(&catalog, opts);

  ServeResponse v1 = manager.Execute(kCoverQuery);
  ASSERT_TRUE(v1.status.ok()) << v1.status.message();
  EXPECT_FALSE(v1.result_cache_hit);
  EXPECT_EQ(Serialize(v1.results), UncachedRun({Encode(7)}, kCoverQuery));

  ServeResponse cached = manager.Execute(kCoverQuery);
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.result_cache_hit);

  // Republish ENCODE with different data: the cached entry must become
  // unreachable and the re-query must match an uncached run on the new
  // version, bit for bit.
  catalog.Publish(Encode(99));
  ServeResponse v2 = manager.Execute(kCoverQuery);
  ASSERT_TRUE(v2.status.ok()) << v2.status.message();
  EXPECT_FALSE(v2.result_cache_hit);
  EXPECT_STREQ(v2.plan_cache, "hit");  // the plan survives, the result doesn't
  EXPECT_EQ(Serialize(v2.results), UncachedRun({Encode(99)}, kCoverQuery));
  EXPECT_NE(Serialize(v2.results), Serialize(v1.results));
  EXPECT_GE(manager.result_cache().stats().invalidations, 1u);
}

TEST(SessionManager, SharedResultBlocksAreNotReclaimable) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  SessionManager manager(&catalog, opts);
  obs::ResourceTracker& tracker = obs::ResourceTracker::Global();

  // A metadata-only SELECT shares every region block with the catalog
  // snapshot, so evicting its cached result frees only its metadata.
  ServeResponse resp = manager.Execute(
      "S = SELECT(dataType == 'ChipSeq') ENCODE;\nMATERIALIZE S;\n");
  ASSERT_TRUE(resp.status.ok()) << resp.status.message();
  ResultCache::Stats cached = manager.result_cache().stats();
  ASSERT_EQ(cached.entries, 1u);
  EXPECT_EQ(cached.bytes, resp.results->at("S").EstimateResidentBytes());
  EXPECT_LT(cached.owned_bytes * 10, cached.bytes);

  // Build the catalog's columns: the reclaimable bytes are those columns
  // plus the result's owned bytes.
  std::shared_ptr<const gdm::Dataset> snap = catalog.Resolve("ENCODE").data;
  for (const auto& s : snap->samples()) s.columns(snap->schema());
  const uint64_t columns = snap->ColumnarCacheBytes();
  ASSERT_GT(columns, 0u);
  EXPECT_EQ(tracker.ReclaimableBytes(), columns + cached.owned_bytes);

  // Over the true figure but under the full one: nothing to shed, and the
  // result stays cached.
  tracker.set_budget_bytes(columns + cached.owned_bytes +
                           (cached.bytes - cached.owned_bytes) / 2);
  EXPECT_EQ(tracker.MaybeShed(), 0u);
  EXPECT_EQ(manager.result_cache().stats().entries, 1u);
  EXPECT_EQ(manager.result_cache().stats().evictions, 0u);

  // Under the catalog's columns: the shed reaches them and ends at or below
  // the budget.
  const uint64_t budget = columns / 2;
  tracker.set_budget_bytes(budget);
  EXPECT_GT(tracker.MaybeShed(), 0u);
  EXPECT_LT(snap->ColumnarCacheBytes(), columns);
  EXPECT_LE(tracker.ReclaimableBytes(), budget);
  tracker.set_budget_bytes(0);
}

TEST(SessionManager, AdmissionShedsInsteadOfBlocking) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_limit = 4;
  opts.result_cache_bytes = 0;  // every admitted query costs real work
  SessionManager manager(&catalog, opts);
  manager.Execute(kCoverQuery);  // warm the plan cache

  std::mutex mu;
  std::map<uint64_t, int> responses;
  std::vector<uint64_t> admitted;
  uint64_t rejected = 0;
  for (int i = 0; i < 64; ++i) {
    auto id = manager.Submit(kCoverQuery, [&](const ServeResponse& resp) {
      std::lock_guard<std::mutex> lock(mu);
      ++responses[resp.id];
    });
    if (id.ok()) {
      admitted.push_back(id.ValueOrDie());
    } else {
      EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  manager.Drain();  // must return: every admitted query answers
  EXPECT_GT(rejected, 0u) << "queue of 4 absorbed a 64-query burst";
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(responses.size(), admitted.size());
  for (uint64_t id : admitted) {
    EXPECT_EQ(responses[id], 1) << "query " << id << " answered != once";
  }
}

TEST(SessionManager, QueueDeadlineShedsWithoutExecuting) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_limit = 64;
  opts.result_cache_bytes = 0;
  SessionManager manager(&catalog, opts);
  manager.Execute(kCoverQuery);

  // Fill the single worker's pipeline with no-deadline work, then submit a
  // query whose deadline will certainly pass while it waits in the queue.
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        manager.Submit(kCoverQuery, [&](const ServeResponse&) { ++done; })
            .ok());
  }
  ServeResponse late = manager.Execute(kCoverQuery, /*deadline_ms=*/0.01);
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.results, nullptr);
  manager.Drain();
  EXPECT_EQ(done.load(), 8);
  EXPECT_GE(manager.stats().deadline_exceeded, 1u);
}

// The TSan workhorse: concurrent submitters hammer the plan and result
// caches while a writer republishes ENCODE. Pinned snapshots mean every
// query must still succeed and answer exactly once.
TEST(SessionManager, ConcurrentSessionsSurviveVersionBumps) {
  ServeCatalog catalog;
  catalog.Publish(Encode(7));
  catalog.Publish(Annotations());
  ServeOptions opts;
  opts.workers = 4;
  opts.queue_limit = 512;
  SessionManager manager(&catalog, opts);

  const std::string queries[] = {MapQuery("CTCF"), MapQuery("EP300"),
                                 std::string(kCoverQuery)};
  std::mutex mu;
  std::map<uint64_t, int> responses;
  std::vector<uint64_t> admitted;
  std::atomic<uint64_t> errors{0};

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto id = manager.Submit(queries[(t + i) % 3],
                                 [&](const ServeResponse& resp) {
                                   if (!resp.status.ok()) ++errors;
                                   std::lock_guard<std::mutex> lock(mu);
                                   ++responses[resp.id];
                                 });
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          admitted.push_back(id.ValueOrDie());
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      catalog.Publish(Encode(i % 2 == 0 ? 7 : 99));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : threads) t.join();
  writer.join();
  manager.Drain();

  EXPECT_EQ(errors.load(), 0u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(admitted.size(),
            static_cast<size_t>(kSubmitters) * kPerThread);
  EXPECT_EQ(responses.size(), admitted.size());
  for (uint64_t id : admitted) EXPECT_EQ(responses.at(id), 1);
  EXPECT_GE(catalog.Version("ENCODE"), 11u);
}

}  // namespace
}  // namespace gdms::serve
