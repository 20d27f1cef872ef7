#include "gp/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace humo::gp {
namespace {

TEST(RbfKernelTest, SelfSimilarityIsSignalVariance) {
  RbfKernel k(2.0, 0.1);
  EXPECT_DOUBLE_EQ(k(0.3, 0.3), 2.0);
}

TEST(RbfKernelTest, DecaysWithDistance) {
  RbfKernel k(1.0, 0.1);
  EXPECT_GT(k(0.5, 0.55), k(0.5, 0.7));
  EXPECT_GT(k(0.5, 0.7), k(0.5, 0.95));
}

TEST(RbfKernelTest, KnownValue) {
  RbfKernel k(1.0, 1.0);
  EXPECT_NEAR(k(0.0, 1.0), std::exp(-0.5), 1e-12);
}

TEST(RbfKernelTest, Symmetric) {
  RbfKernel k(1.3, 0.2);
  EXPECT_DOUBLE_EQ(k(0.1, 0.8), k(0.8, 0.1));
}

TEST(Matern32KernelTest, SelfAndDecay) {
  Matern32Kernel k(1.5, 0.2);
  EXPECT_DOUBLE_EQ(k(0.4, 0.4), 1.5);
  EXPECT_GT(k(0.4, 0.45), k(0.4, 0.9));
}

TEST(Matern52KernelTest, SelfAndDecay) {
  Matern52Kernel k(1.5, 0.2);
  EXPECT_DOUBLE_EQ(k(0.4, 0.4), 1.5);
  EXPECT_GT(k(0.4, 0.45), k(0.4, 0.9));
}

TEST(MaternKernelsTest, SmootherVariantDecaysSlowerNearZero) {
  Matern32Kernel k32(1.0, 0.3);
  Matern52Kernel k52(1.0, 0.3);
  // At small distances the 5/2 kernel stays closer to 1 than 3/2.
  EXPECT_GT(k52(0.0, 0.05), k32(0.0, 0.05));
}

TEST(ConstantKernelTest, IgnoresInputs) {
  ConstantKernel k(0.7);
  EXPECT_DOUBLE_EQ(k(0.0, 1.0), 0.7);
  EXPECT_DOUBLE_EQ(k(0.5, 0.5), 0.7);
}

TEST(SumKernelTest, AddsComponents) {
  SumKernel k(std::make_unique<RbfKernel>(1.0, 0.1),
              std::make_unique<ConstantKernel>(0.5));
  EXPECT_DOUBLE_EQ(k(0.2, 0.2), 1.5);
}

TEST(KernelTest, CloneIsIndependentAndEqual) {
  RbfKernel k(1.0, 0.25);
  auto c = k.Clone();
  EXPECT_DOUBLE_EQ((*c)(0.1, 0.6), k(0.1, 0.6));
  EXPECT_NE(c->ToString().find("RBF"), std::string::npos);
}

TEST(KernelTest, GramMatrixShapeAndValues) {
  RbfKernel k(1.0, 0.5);
  const std::vector<double> xs = {0.0, 0.5}, ys = {0.25, 0.75, 1.0};
  const auto g = k.Gram(xs, ys);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.cols(), 3u);
  EXPECT_DOUBLE_EQ(g(1, 0), k(0.5, 0.25));
}

TEST(KernelTest, GramSymmetricIsSymmetric) {
  Matern52Kernel k(1.0, 0.3);
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
  const RbfKernel rbf(0.8, 0.137);
  const Matern32Kernel m32(1.3, 0.29);
  const Matern52Kernel m52(0.45, 0.071);
  const Kernel* kernels[] = {&rbf, &m32, &m52};
  std::vector<double> row(xs.size());
  for (const Kernel* k : kernels) {
    for (size_t a = 0; a < xs.size(); ++a) {
      k->FillRow(xs[a], xs.data(), xs.size(), row.data());
      for (size_t b = 0; b < xs.size(); ++b) {
        const double kab = (*k)(xs[a], xs[b]);
        EXPECT_EQ(Bits(kab), Bits((*k)(xs[b], xs[a])))
            << k->ToString() << " a=" << a << " b=" << b;
        EXPECT_EQ(Bits(row[b]), Bits(kab))
            << k->ToString() << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(KernelTest, ToStringMentionsParameters) {
  RbfKernel k(2.0, 0.125);
  const std::string s = k.ToString();
  EXPECT_NE(s.find("2"), std::string::npos);
  EXPECT_NE(s.find("0.125"), std::string::npos);
}

}  // namespace
}  // namespace humo::gp
