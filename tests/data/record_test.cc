#include "data/record.h"

#include <gtest/gtest.h>

namespace humo::data {
namespace {

TEST(RecordTableTest, AddValidatesArity) {
  RecordTable t({"title", "year"});
  EXPECT_TRUE(t.Add({0, 0, {"a", "2020"}}).ok());
  EXPECT_FALSE(t.Add({1, 1, {"only-one"}}).ok());
  EXPECT_EQ(t.size(), 1u);
}

TEST(RecordTableTest, AccessRecords) {
  RecordTable t({"name"});
  ASSERT_TRUE(t.Add({7, 3, {"x"}}).ok());
  EXPECT_EQ(t[0].id, 7u);
  EXPECT_EQ(t[0].entity_id, 3u);
  EXPECT_EQ(t[0].attributes[0], "x");
}

TEST(RecordTableTest, EmptyTable) {
  RecordTable t({"a"});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.records().empty());
}

}  // namespace
}  // namespace humo::data
