#include "linalg/matrix.h"

#include <gtest/gtest.h>

namespace humo::linalg {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(MatrixTest, MatrixMultiply) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, IdentityIsMultiplicativeNeutral) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix c = a * Matrix::Identity(2);
  EXPECT_DOUBLE_EQ(c.MaxAbsDiff(a), 0.0);
}

TEST(MatrixTest, MatrixVectorMultiply) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Vector v = {1, 1};
  Vector out = a * v;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(MatrixTest, AddToDiagonal) {
  Matrix a = Matrix::Identity(2);
  a.AddToDiagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1.5, 1.0}});
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 1.0);
}

TEST(VectorOpsTest, Dot) {
  Vector a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
}

}  // namespace
}  // namespace humo::linalg
