#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace humo {
namespace {

TEST(EnvTest, Int64FallbackWhenUnset) {
  unsetenv("HUMO_TEST_UNSET_VAR");
  EXPECT_EQ(GetEnvInt64("HUMO_TEST_UNSET_VAR", 42), 42);
}

TEST(EnvTest, Int64ParsesValue) {
  setenv("HUMO_TEST_INT_VAR", "123", 1);
  EXPECT_EQ(GetEnvInt64("HUMO_TEST_INT_VAR", 0), 123);
  unsetenv("HUMO_TEST_INT_VAR");
}

TEST(EnvTest, Int64NegativeValue) {
  setenv("HUMO_TEST_INT_VAR", "-7", 1);
  EXPECT_EQ(GetEnvInt64("HUMO_TEST_INT_VAR", 0), -7);
  unsetenv("HUMO_TEST_INT_VAR");
}

TEST(EnvTest, Int64FallbackOnGarbage) {
  setenv("HUMO_TEST_INT_VAR", "12abc", 1);
  EXPECT_EQ(GetEnvInt64("HUMO_TEST_INT_VAR", 5), 5);
  setenv("HUMO_TEST_INT_VAR", "", 1);
  EXPECT_EQ(GetEnvInt64("HUMO_TEST_INT_VAR", 5), 5);
  unsetenv("HUMO_TEST_INT_VAR");
}

}  // namespace
}  // namespace humo
