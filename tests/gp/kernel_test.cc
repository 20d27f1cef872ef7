#include "gp/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace humo::gp {
namespace {

TEST(RbfKernelTest, SelfSimilarityIsSignalVariance) {
  Kernel k(KernelFamily::kRbf, 2.0, 0.1);
  EXPECT_DOUBLE_EQ(k(0.3, 0.3), 2.0);
}

TEST(RbfKernelTest, DecaysWithDistance) {
  Kernel k(KernelFamily::kRbf, 1.0, 0.1);
  EXPECT_GT(k(0.5, 0.55), k(0.5, 0.7));
  EXPECT_GT(k(0.5, 0.7), k(0.5, 0.95));
}

TEST(RbfKernelTest, KnownValue) {
  Kernel k(KernelFamily::kRbf, 1.0, 1.0);
  EXPECT_NEAR(k(0.0, 1.0), std::exp(-0.5), 1e-12);
}

TEST(RbfKernelTest, Symmetric) {
  Kernel k(KernelFamily::kRbf, 1.3, 0.2);
  EXPECT_DOUBLE_EQ(k(0.1, 0.8), k(0.8, 0.1));
}

TEST(Matern32KernelTest, SelfAndDecay) {
  Kernel k(KernelFamily::kMatern32, 1.5, 0.2);
  EXPECT_DOUBLE_EQ(k(0.4, 0.4), 1.5);
  EXPECT_GT(k(0.4, 0.45), k(0.4, 0.9));
}

TEST(Matern52KernelTest, SelfAndDecay) {
  Kernel k(KernelFamily::kMatern52, 1.5, 0.2);
  EXPECT_DOUBLE_EQ(k(0.4, 0.4), 1.5);
  EXPECT_GT(k(0.4, 0.45), k(0.4, 0.9));
}

TEST(MaternKernelsTest, SmootherVariantDecaysSlowerNearZero) {
  Kernel k32(KernelFamily::kMatern32, 1.0, 0.3);
  Kernel k52(KernelFamily::kMatern52, 1.0, 0.3);
  // At small distances the 5/2 kernel stays closer to 1 than 3/2.
  EXPECT_GT(k52(0.0, 0.05), k32(0.0, 0.05));
}

TEST(KernelTest, GramSymmetricIsSymmetric) {
  Kernel k(KernelFamily::kMatern52, 1.0, 0.3);
  const std::vector<double> xs = {0.1, 0.4, 0.9};
  const auto g = k.GramSymmetric(xs);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// The subset model's precomputed prior cross-sums reuse K(v_k, v_j) as
// K(v_j, v_k) and read rows from FillRow where the range accumulator calls
// operator(); both substitutions are exact only if these hold bit for bit.
TEST(KernelTest, SymmetricAndFillRowMatchOperatorBitForBit) {
  std::vector<double> xs;
  for (size_t i = 0; i < 61; ++i) {
    // Irregular, inexactly representable points in [0, 1], with repeats
    // (distance 0) and both ends included.
    xs.push_back(std::fmod(0.1 + 0.6180339887498949 * static_cast<double>(i),
                           1.0));
  }
  xs.push_back(0.0);
  xs.push_back(1.0);
  xs.push_back(xs[7]);
  const Kernel rbf(KernelFamily::kRbf, 0.8, 0.137);
  const Kernel m32(KernelFamily::kMatern32, 1.3, 0.29);
  const Kernel m52(KernelFamily::kMatern52, 0.45, 0.071);
  std::vector<double> row(xs.size());
  for (const Kernel& k : {rbf, m32, m52}) {
    const int family = static_cast<int>(k.family());
    for (size_t a = 0; a < xs.size(); ++a) {
      k.FillRow(xs[a], xs.data(), xs.size(), row.data());
      for (size_t b = 0; b < xs.size(); ++b) {
        const double kab = k(xs[a], xs[b]);
        EXPECT_EQ(Bits(kab), Bits(k(xs[b], xs[a])))
            << "family " << family << " a=" << a << " b=" << b;
        EXPECT_EQ(Bits(row[b]), Bits(kab))
            << "family " << family << " a=" << a << " b=" << b;
      }
    }
  }
}

// Fit's Gram matrix and the grid selector's lane matrices must hold exactly
// the values predictions evaluate through operator().
TEST(KernelTest, GramSymmetricMatchesOperatorBitForBit) {
  std::vector<double> xs;
  for (size_t i = 0; i < 130; ++i)
    xs.push_back(std::fmod(0.3 + 0.7548776662466927 * static_cast<double>(i),
                           1.0));
  for (KernelFamily family : {KernelFamily::kRbf, KernelFamily::kMatern32,
                              KernelFamily::kMatern52}) {
    const Kernel k(family, 0.6, 0.19);
    const auto g = k.GramSymmetric(xs);
    for (size_t a = 0; a < xs.size(); ++a)
      for (size_t b = 0; b < xs.size(); ++b)
        ASSERT_EQ(Bits(g(a, b)), Bits(k(xs[a], xs[b])))
            << "family " << static_cast<int>(family) << " a=" << a
            << " b=" << b;
  }
}

}  // namespace
}  // namespace humo::gp
