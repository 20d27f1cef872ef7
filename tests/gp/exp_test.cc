#include "gp/exp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

namespace humo::gp {
namespace {

int64_t Bits(double x) {
  int64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Distance in units in the last place between two non-negative finite
/// doubles (their bit patterns are ordered like their values, across the
/// normal/subnormal boundary too).
int64_t UlpDistance(double a, double b) {
  return std::llabs(Bits(a) - Bits(b));
}

/// n points evenly spaced over [lo, hi].
std::vector<double> Sweep(double lo, double hi, size_t n) {
  std::vector<double> xs(n);
  for (size_t i = 0; i < n; ++i)
    xs[i] =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return xs;
}

TEST(ExpTest, ScalarPortableAndDispatchedRowsGiveTheSameBits) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = Sweep(-760.0, 720.0, 200001);
  const std::vector<double> near_zero = Sweep(-1.0, 1.0, 20001);
  xs.insert(xs.end(), near_zero.begin(), near_zero.end());
  for (double x : {0.0, -0.0, -inf, inf, -708.0, -708.4, -709.0, -745.0,
                   -745.13, -745.14, 709.0, 709.78, 709.79, -1100.0, 1000.0,
                   -1e300, 1e300, 5e-324, -5e-324})
    xs.push_back(x);
  // Odd lengths exercise the scalar tail of each row build.
  for (size_t len : {xs.size(), xs.size() - 1, xs.size() - 2, xs.size() - 3}) {
    std::vector<double> dispatched(len), portable(len);
    ExpRow(xs.data(), dispatched.data(), len);
    internal::ExpRowPortable(xs.data(), portable.data(), len);
    for (size_t i = 0; i < len; ++i) {
      const double scalar = Exp(xs[i]);
      ASSERT_EQ(Bits(dispatched[i]), Bits(scalar)) << "x=" << xs[i];
      ASSERT_EQ(Bits(portable[i]), Bits(scalar)) << "x=" << xs[i];
    }
  }
  // In place, as the kernel rows call it.
  std::vector<double> in_place = xs;
  ExpRow(in_place.data(), in_place.data(), in_place.size());
  for (size_t i = 0; i < xs.size(); ++i)
    ASSERT_EQ(Bits(in_place[i]), Bits(Exp(xs[i]))) << "x=" << xs[i];
}

TEST(ExpTest, WithinTwoUlpOfStdExpOnTheKernelRange) {
  std::vector<double> xs = Sweep(-745.0, 0.0, 2000001);
  // The reduced argument's whole range, densely, and the subnormal tail.
  const std::vector<double> reduced = Sweep(-0.75, 0.0, 500001);
  const std::vector<double> tail = Sweep(-745.0, -700.0, 200001);
  xs.insert(xs.end(), reduced.begin(), reduced.end());
  xs.insert(xs.end(), tail.begin(), tail.end());
  std::vector<double> row(xs.size());
  ExpRow(xs.data(), row.data(), xs.size());
  int64_t worst = 0;
  double worst_x = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const int64_t d = UlpDistance(row[i], std::exp(xs[i]));
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, 2) << "at x=" << worst_x;
}

TEST(ExpTest, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Exp(0.0), 1.0);
  EXPECT_EQ(Exp(-0.0), 1.0);
  EXPECT_EQ(Exp(-inf), 0.0);
  EXPECT_EQ(Exp(-746.0), 0.0);
  EXPECT_EQ(Exp(inf), inf);
  EXPECT_EQ(Exp(710.0), inf);
  EXPECT_TRUE(std::isnan(Exp(nan)));
  EXPECT_TRUE(std::isnan(Exp(-nan)));
  // The smallest subnormal and the largest finite results.
  EXPECT_EQ(Exp(-745.0), std::exp(-745.0));
  EXPECT_GT(Exp(-745.0), 0.0);
  EXPECT_LE(UlpDistance(Exp(709.78), std::exp(709.78)), 2);
  // A NaN lane does not disturb its neighbours in a row.
  const double in[5] = {0.0, nan, -inf, -1.0, nan};
  double out[5];
  ExpRow(in, out, 5);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_EQ(out[2], 0.0);
  EXPECT_EQ(Bits(out[3]), Bits(Exp(-1.0)));
  EXPECT_TRUE(std::isnan(out[4]));
}

}  // namespace
}  // namespace humo::gp
