#include "data/mmap_columns.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/partial_sampling_optimizer.h"
#include "core/partition.h"
#include "core/solution.h"
#include "data/scale_generator.h"
#include "data/workload.h"

namespace humo::data {
namespace {

Workload SmallSortedWorkload(size_t n = 5000, uint64_t seed = 42) {
  ScaleWorkloadConfig config;
  config.num_pairs = n;
  config.seed = seed;
  return GenerateScaleWorkload(config);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Bytewise file equality, for the external-sort == in-RAM-sort contract.
bool FilesIdentical(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba((std::istreambuf_iterator<char>(fa)),
                       std::istreambuf_iterator<char>());
  std::vector<char> bb((std::istreambuf_iterator<char>(fb)),
                       std::istreambuf_iterator<char>());
  return ba == bb;
}

void ExpectColumnsEqualWorkload(const MmapColumns& cols, const Workload& w) {
  ASSERT_EQ(cols.num_pairs(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(cols.similarities()[i], w.Similarity(i)) << "pair " << i;
    EXPECT_EQ(cols.left_ids()[i], w.left_id_data()[i]) << "pair " << i;
    EXPECT_EQ(cols.right_ids()[i], w.right_id_data()[i]) << "pair " << i;
    EXPECT_EQ(cols.labels()[i] != 0, w.IsMatch(i)) << "pair " << i;
  }
}

TEST(MmapColumnsTest, WriteThenOpenRoundTripsEveryColumn) {
  const Workload w = SmallSortedWorkload();
  const std::string path = TempPath("roundtrip.humocol");
  ASSERT_TRUE(WriteColumnsFile(w, path).ok());
  auto cols = MmapColumns::Open(path, /*verify_sorted=*/true);
  ASSERT_TRUE(cols.ok()) << cols.status().message();
  ExpectColumnsEqualWorkload(**cols, w);
  std::remove(path.c_str());
}

TEST(MmapColumnsTest, OpenRejectsBadMagicAndTruncation) {
  const Workload w = SmallSortedWorkload(/*n=*/500);
  const std::string path = TempPath("corrupt.humocol");
  ASSERT_TRUE(WriteColumnsFile(w, path).ok());

  // Corrupt the magic.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  EXPECT_FALSE(MmapColumns::Open(path).ok());

  // Rewrite, then truncate the labels column off the end.
  ASSERT_TRUE(WriteColumnsFile(w, path).ok());
  ASSERT_TRUE(MmapColumns::Open(path).ok());
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    const auto size = static_cast<size_t>(f.tellg());
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size - 100)), 0);
  }
  EXPECT_FALSE(MmapColumns::Open(path).ok());
  std::remove(path.c_str());
}

TEST(MmapColumnsTest, VerifySortedCatchesInversions) {
  Workload w;
  w.Add({0, 0, 0.9, false});
  w.Add({1, 1, 0.1, false});  // NOT sorted.
  const std::string path = TempPath("unsorted.humocol");
  ASSERT_TRUE(WriteColumnsFile(w, path).ok());
  EXPECT_TRUE(MmapColumns::Open(path, /*verify_sorted=*/false).ok());
  EXPECT_FALSE(MmapColumns::Open(path, /*verify_sorted=*/true).ok());
  std::remove(path.c_str());
}

TEST(ExternalColumnsWriterTest, MergedFileBitIdenticalToInRamSort) {
  // The full realization, sorted in RAM, written directly.
  ScaleWorkloadConfig config;
  config.num_pairs = 20000;
  config.seed = 7;
  const Workload in_ram = GenerateScaleWorkload(config);
  const std::string golden = TempPath("golden.humocol");
  ASSERT_TRUE(WriteColumnsFile(in_ram, golden).ok());

  // The same pairs streamed through the external sorter in uneven unsorted
  // chunks, with a run size that forces several spill/merge runs.
  const std::string merged = TempPath("merged.humocol");
  ExternalColumnsWriter writer(merged, /*run_pairs=*/3000);
  const size_t kChunks[] = {1, 4999, 2500, 7500, 5000};
  size_t begin = 0;
  for (const size_t chunk : kChunks) {
    const ScaleColumns cols =
        GenerateScaleColumnsRange(config, begin, begin + chunk);
    ASSERT_TRUE(writer
                    .Append(cols.similarities.data(), cols.left_ids.data(),
                            cols.right_ids.data(), cols.labels.data(),
                            chunk)
                    .ok());
    begin += chunk;
  }
  ASSERT_EQ(begin, config.num_pairs);
  auto total = writer.Finish();
  ASSERT_TRUE(total.ok()) << total.status().message();
  EXPECT_EQ(*total, config.num_pairs);

  EXPECT_TRUE(FilesIdentical(golden, merged));
  std::remove(golden.c_str());
  std::remove(merged.c_str());
}

TEST(ExternalColumnsWriterTest, SingleRunSkipsNoPairs) {
  ScaleWorkloadConfig config;
  config.num_pairs = 1000;
  const ScaleColumns cols = GenerateScaleColumns(config);
  const std::string path = TempPath("single_run.humocol");
  ExternalColumnsWriter writer(path, /*run_pairs=*/1 << 20);
  ASSERT_TRUE(writer
                  .Append(cols.similarities.data(), cols.left_ids.data(),
                          cols.right_ids.data(), cols.labels.data(),
                          config.num_pairs)
                  .ok());
  auto total = writer.Finish();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, config.num_pairs);
  auto mapped = MmapColumns::Open(path, /*verify_sorted=*/true);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ((*mapped)->num_pairs(), config.num_pairs);
  std::remove(path.c_str());
}

TEST(WorkloadFromMmapTest, ReadsMatchRamBackedWorkload) {
  const Workload ram = SmallSortedWorkload();
  const std::string path = TempPath("frommap.humocol");
  ASSERT_TRUE(WriteColumnsFile(ram, path).ok());
  auto cols = MmapColumns::Open(path);
  ASSERT_TRUE(cols.ok());
  const Workload mapped = Workload::FromMmap(*cols);
  EXPECT_TRUE(mapped.mmap_backed());
  ASSERT_EQ(mapped.size(), ram.size());
  for (size_t i = 0; i < ram.size(); ++i) {
    EXPECT_EQ(mapped.Similarity(i), ram.Similarity(i));
    EXPECT_EQ(mapped[i].left_id, ram[i].left_id);
    EXPECT_EQ(mapped[i].right_id, ram[i].right_id);
    EXPECT_EQ(mapped.IsMatch(i), ram.IsMatch(i));
  }
  EXPECT_EQ(mapped.CountMatches(), ram.CountMatches());
  // Copies share the mapping and stay valid.
  Workload copy = mapped;
  EXPECT_TRUE(copy.mmap_backed());
  EXPECT_EQ(copy.Similarity(10), ram.Similarity(10));
  std::remove(path.c_str());
}

TEST(WorkloadFromMmapTest, SampCertificationIdenticalToRamBacked) {
  const Workload ram = SmallSortedWorkload(/*n=*/40000, /*seed=*/9);
  const std::string path = TempPath("certify.humocol");
  ASSERT_TRUE(WriteColumnsFile(ram, path).ok());
  auto cols = MmapColumns::Open(path);
  ASSERT_TRUE(cols.ok());
  const Workload mapped = Workload::FromMmap(*cols);

  const core::QualityRequirement req{0.9, 0.9, 0.9};
  auto certify = [&](const Workload& w) {
    core::SubsetPartition p(&w, 200);
    core::Oracle oracle(&w);
    core::PartialSamplingOptions o;
    o.seed = 1000;
    auto sol = core::PartialSamplingOptimizer(o).Optimize(p, req, &oracle);
    EXPECT_TRUE(sol.ok());
    const auto result = core::ApplySolution(p, *sol, &oracle);
    return std::make_pair(*sol, oracle.cost());
  };
  const auto [ram_sol, ram_cost] = certify(ram);
  const auto [map_sol, map_cost] = certify(mapped);
  // The mmap backing is invisible to the optimizer: identical solution and
  // identical oracle cost.
  EXPECT_EQ(ram_sol.h_lo, map_sol.h_lo);
  EXPECT_EQ(ram_sol.h_hi, map_sol.h_hi);
  EXPECT_EQ(ram_cost, map_cost);
  std::remove(path.c_str());
}

TEST(ScaleColumnsRangeTest, ChunkedGenerationMatchesFullRealization) {
  ScaleWorkloadConfig config;
  config.num_pairs = 10000;
  config.seed = 123;
  const ScaleColumns full = GenerateScaleColumns(config);
  const ScaleColumns mid = GenerateScaleColumnsRange(config, 2500, 7500);
  ASSERT_EQ(mid.similarities.size(), 5000u);
  for (size_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(mid.similarities[k], full.similarities[2500 + k]);
    EXPECT_EQ(mid.left_ids[k], full.left_ids[2500 + k]);
    EXPECT_EQ(mid.right_ids[k], full.right_ids[2500 + k]);
    EXPECT_EQ(mid.labels[k], full.labels[2500 + k]);
  }
}

}  // namespace
}  // namespace humo::data
