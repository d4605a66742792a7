// Tests for dense factorizations: Cholesky, QR (plain and pivoted), SVD.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace hatrix::la {
namespace {

class PotrfSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfSizes, ReconstructsSpdMatrix) {
  const index_t n = GetParam();
  Rng rng(21);
  Matrix a = Matrix::random_spd(rng, n);
  Matrix l = Matrix::from_view(a.view());
  potrf(l.view());
  // Zero strict upper, then compare L Lᵀ with A.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  Matrix llt(n, n);
  gemm(1.0, l.view(), Trans::No, l.view(), Trans::Yes, 0.0, llt.view());
  EXPECT_LT(rel_error(a.view(), llt.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SmallToBlocked, PotrfSizes,
                         ::testing::Values(1, 2, 17, 64, 65, 130, 200));

TEST(Potrf, RejectsIndefinite) {
  Matrix a = Matrix::identity(4);
  a(2, 2) = -1.0;
  EXPECT_THROW(potrf(a.view()), Error);
}

TEST(Potrf, RejectsNonSquare) {
  Matrix a(3, 4);
  EXPECT_THROW(potrf(a.view()), Error);
}

TEST(Potrs, SolvesSpdSystem) {
  Rng rng(22);
  const index_t n = 40;
  Matrix a = Matrix::random_spd(rng, n);
  Matrix x_true = Matrix::random_normal(rng, n, 3);
  Matrix b = matmul(a.view(), x_true.view());
  Matrix x = solve_spd(a.view(), b.view());
  EXPECT_LT(rel_error(x_true.view(), x.view()), 1e-10);
}

class QrShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(QrShapes, OrthonormalAndReconstructs) {
  auto [m, n] = GetParam();
  Rng rng(24);
  Matrix a = Matrix::random_normal(rng, m, n);
  auto f = qr(a.view());
  const index_t k = std::min(m, n);
  ASSERT_EQ(f.q.cols(), k);
  ASSERT_EQ(f.r.rows(), k);
  // QᵀQ = I
  Matrix qtq = matmul(f.q.view(), f.q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), qtq.view()), 1e-12);
  // QR = A
  Matrix qr_prod = matmul(f.q.view(), f.r.view());
  EXPECT_LT(rel_error(a.view(), qr_prod.view()), 1e-12);
  // R upper-triangular
  for (index_t j = 0; j < f.r.cols(); ++j)
    for (index_t i = j + 1; i < f.r.rows(); ++i) EXPECT_EQ(f.r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(TallSquareWide, QrShapes,
                         ::testing::Values(std::pair<index_t, index_t>{20, 8},
                                           std::pair<index_t, index_t>{8, 8},
                                           std::pair<index_t, index_t>{8, 20},
                                           std::pair<index_t, index_t>{1, 5},
                                           std::pair<index_t, index_t>{5, 1},
                                           std::pair<index_t, index_t>{100, 37}));

TEST(PivotedQr, ExactRankRecovery) {
  Rng rng(25);
  const index_t m = 40, n = 30, r = 7;
  Matrix u = Matrix::random_normal(rng, m, r);
  Matrix v = Matrix::random_normal(rng, n, r);
  Matrix a = matmul(u.view(), v.view(), Trans::No, Trans::Yes);
  auto f = pivoted_qr(a.view(), std::min(m, n), 1e-8);
  EXPECT_EQ(f.rank, r);
  // Q R Pᵀ must reconstruct A: column perm[j] of A equals (Q R)(:, j).
  Matrix qr_prod = matmul(f.q().view(), f.r.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(a(i, f.perm[static_cast<std::size_t>(j)]), qr_prod(i, j), 1e-9);
}

TEST(PivotedQr, MaxRankCapRespected) {
  Rng rng(26);
  Matrix a = Matrix::random_normal(rng, 30, 30);
  auto f = pivoted_qr(a.view(), 5, 0.0);
  EXPECT_EQ(f.rank, 5);
  const Matrix q = f.q();
  EXPECT_EQ(q.cols(), 5);
  Matrix qtq = matmul(q.view(), q.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(5).view(), qtq.view()), 1e-12);
}

TEST(PivotedQr, DecreasingDiagonalOfR) {
  Rng rng(27);
  Matrix a = Matrix::random_normal(rng, 25, 25);
  auto f = pivoted_qr(a.view(), 25, 0.0);
  for (index_t i = 1; i < f.rank; ++i)
    EXPECT_LE(std::abs(f.r(i, i)), std::abs(f.r(i - 1, i - 1)) + 1e-12);
}

// The HSS builder's rank-escape ladder computes only the ID at the largest
// cap and counts the lower rungs; that is exact only because a lower cap
// runs the same first steps. At caps k1 < k2 the first k1 pivots, reflectors
// and rows of R must match bit for bit. Later pivots only reorder the
// trailing columns of R, so its rows are compared per original column.
TEST(PivotedQr, TruncationIsAPrefixBitwise) {
  Rng rng(28);
  const Matrix random = Matrix::random_normal(rng, 512, 256);
  const Matrix u = Matrix::random_normal(rng, 96, 12);
  const Matrix v = Matrix::random_normal(rng, 40, 12);
  const Matrix deficient = matmul(u.view(), v.view(), Trans::No, Trans::Yes);
  struct Case {
    const Matrix* a;
    index_t k1, k2;
  };
  for (const Case& c : {Case{&random, 40, 80}, Case{&random, 80, 256},
                        Case{&deficient, 6, 12}, Case{&deficient, 12, 40}}) {
    const auto f1 = pivoted_qr(c.a->view(), c.k1, 0.0);
    const auto f2 = pivoted_qr(c.a->view(), c.k2, 0.0);
    ASSERT_EQ(f1.rank, c.k1);
    ASSERT_EQ(f2.rank, c.k2);
    const index_t n = c.a->cols();
    std::vector<index_t> pos2(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j)
      pos2[static_cast<std::size_t>(f2.perm[static_cast<std::size_t>(j)])] = j;
    for (index_t i = 0; i < c.k1; ++i) {
      const auto si = static_cast<std::size_t>(i);
      EXPECT_EQ(f1.perm[si], f2.perm[si]);
      EXPECT_EQ(f1.tau[si], f2.tau[si]);
      for (index_t r = 0; r < c.a->rows(); ++r)
        EXPECT_EQ(f1.packed(r, i), f2.packed(r, i)) << "packed(" << r << "," << i << ")";
      for (index_t j = 0; j < n; ++j) {
        const index_t j2 =
            pos2[static_cast<std::size_t>(f1.perm[static_cast<std::size_t>(j)])];
        EXPECT_EQ(f1.r(i, j), f2.r(i, j2)) << "r(" << i << "," << j << ")";
      }
    }
  }
}

TEST(PivotedQr, ZeroMatrixHasRankZero) {
  Matrix a(10, 10);
  auto f = pivoted_qr(a.view(), 10, 1e-14);
  EXPECT_EQ(f.rank, 0);
}

class SvdShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(SvdShapes, FactorsAreOrthonormalAndReconstruct) {
  auto [m, n] = GetParam();
  Rng rng(28);
  Matrix a = Matrix::random_normal(rng, m, n);
  auto f = svd(a.view());
  const index_t k = std::min(m, n);
  ASSERT_EQ(static_cast<index_t>(f.s.size()), k);
  Matrix utu = matmul(f.u.view(), f.u.view(), Trans::Yes, Trans::No);
  Matrix vtv = matmul(f.v.view(), f.v.view(), Trans::Yes, Trans::No);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), utu.view()), 1e-10);
  EXPECT_LT(rel_error(Matrix::identity(k).view(), vtv.view()), 1e-10);
  // U diag(s) Vᵀ = A
  Matrix us = Matrix::from_view(f.u.view());
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) us(i, j) *= f.s[static_cast<std::size_t>(j)];
  Matrix rec = matmul(us.view(), f.v.view(), Trans::No, Trans::Yes);
  EXPECT_LT(rel_error(a.view(), rec.view()), 1e-10);
  // Descending order.
  for (index_t i = 1; i < k; ++i)
    EXPECT_LE(f.s[static_cast<std::size_t>(i)], f.s[static_cast<std::size_t>(i - 1)] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(TallSquareWide, SvdShapes,
                         ::testing::Values(std::pair<index_t, index_t>{30, 10},
                                           std::pair<index_t, index_t>{12, 12},
                                           std::pair<index_t, index_t>{10, 30},
                                           std::pair<index_t, index_t>{64, 5}));

TEST(Svd, SingularValuesOfKnownMatrix) {
  // diag(3, 2, 1) has singular values 3, 2, 1.
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 2;
  a(2, 2) = 1;
  auto f = svd(a.view());
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, NumericalRankThreshold) {
  std::vector<double> s{10.0, 1.0, 1e-9, 0.0};
  EXPECT_EQ(numerical_rank(s, 1e-6), 2);
  EXPECT_EQ(numerical_rank(s, 1e-12), 3);
}

TEST(Norms, KnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(norm_fro(a.view()), 5.0);
  EXPECT_DOUBLE_EQ(norm_max(a.view()), 4.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(Norms, TwoNormEstimateMatchesLargestSingularValue) {
  Rng rng(29);
  Matrix a = Matrix::random_normal(rng, 20, 15);
  auto f = svd(a.view());
  EXPECT_NEAR(norm2_estimate(a.view(), 100), f.s[0], 1e-6 * f.s[0]);
}

}  // namespace
}  // namespace hatrix::la
