#include "data/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "data/pair_simulator.h"

namespace humo::data {
namespace {

Workload SmallWorkload() {
  PairSimulatorConfig c;
  c.num_pairs = 500;
  c.num_matches = 50;
  return SimulatePairs(c);
}

TEST(PersistenceTest, CsvRoundTripInMemory) {
  const Workload w = SmallWorkload();
  const std::string text = WorkloadToCsv(w);
  auto loaded = WorkloadFromCsv(text);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ((*loaded)[i].left_id, w[i].left_id);
    EXPECT_EQ((*loaded)[i].right_id, w[i].right_id);
    EXPECT_DOUBLE_EQ((*loaded)[i].similarity, w[i].similarity);
    EXPECT_EQ((*loaded)[i].is_match, w[i].is_match);
  }
}

TEST(PersistenceTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/humo_workload_test.csv";
  const Workload w = SmallWorkload();
  ASSERT_TRUE(SaveWorkloadCsv(w, path).ok());
  auto loaded = LoadWorkloadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), w.size());
  EXPECT_EQ(loaded->CountMatches(), w.CountMatches());
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsMissingColumns) {
  auto r = WorkloadFromCsv("a,b\n1,2\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

/// Loads a one-row workload CSV.
Result<Workload> LoadRow(const std::string& row) {
  return WorkloadFromCsv("left_id,right_id,similarity,label\n" + row + "\n");
}

/// True when the load failed with a message containing `what`.
bool FailsNaming(const Result<Workload>& r, const char* what) {
  return !r.ok() && r.status().code() == StatusCode::kInvalidArgument &&
         r.status().message().find(what) != std::string::npos;
}

TEST(PersistenceTest, RejectsBadSimilarity) {
  // Out of range, not a number (NaN would slip past the [0,1] check and
  // break the similarity sort), empty, or not fully consumed.
  for (const char* sim : {"1.5", "-0.1", "nan", "inf", "", "abc", "0.5x"}) {
    auto r = LoadRow(std::string("1,2,") + sim + ",0");
    EXPECT_TRUE(FailsNaming(r, "row 0: similarity")) << "'" << sim << "'";
  }
}

TEST(PersistenceTest, RejectsBadId) {
  // Signed, wider than 32 bits, empty, or not fully consumed.
  for (const char* id : {"-1", "+1", "4294967296", "", "x7", "7x", " 7"}) {
    const std::string bad = id;
    EXPECT_TRUE(FailsNaming(LoadRow(bad + ",2,0.5,0"), "row 0: left_id"))
        << "'" << id << "'";
    EXPECT_TRUE(FailsNaming(LoadRow("1," + bad + ",0.5,0"), "row 0: right_id"))
        << "'" << id << "'";
  }
  // The largest id still loads.
  auto max = LoadRow("4294967295,0,0.5,1");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].left_id, UINT32_MAX);
}

TEST(PersistenceTest, RejectsBadLabel) {
  auto r = WorkloadFromCsv(
      "left_id,right_id,similarity,label\n1,2,0.5,maybe\n");
  EXPECT_FALSE(r.ok());
}

TEST(PersistenceTest, LoadSortsBySimilarity) {
  auto r = WorkloadFromCsv(
      "left_id,right_id,similarity,label\n"
      "1,1,0.9,1\n"
      "2,2,0.1,0\n"
      "3,3,0.5,0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].similarity, 0.1);
  EXPECT_DOUBLE_EQ((*r)[2].similarity, 0.9);
}

TEST(PersistenceTest, MissingFileErrors) {
  EXPECT_FALSE(LoadWorkloadCsv("/nonexistent/w.csv").ok());
}

TEST(PersistenceTest, EmptyWorkloadRoundTrips) {
  const Workload empty;
  auto loaded = WorkloadFromCsv(WorkloadToCsv(empty));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

}  // namespace
}  // namespace humo::data
