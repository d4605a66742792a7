// Kernel-layer conformance suite: every non-reference backend (Blocked
// always; Vendor when compiled in) is checked against the retained naive
// reference kernels `la::ref::` across the full option space — all
// Trans/Side/UpLo/Diag combinations, odd and power-of-two sizes, zero
// dimensions, non-contiguous (strided) views, and both scalar precisions.
// The backends reorder accumulation, so comparisons are tolerance-based
// (scaled by the inner dimension and the scalar epsilon), not bitwise —
// bit-identity is a within-backend contract, not a cross-backend one. The
// one within-backend check here is panel-width determinism (a panel column
// equals a one-column call, bit for bit); the solve-level consequences are
// tested in test_solve_blocked and test_executor_conformance.
//
// Also exercises the backend dispatch point under concurrency (runs under
// TSan via the `concurrency` label): set_backend() races against kernel
// calls must stay data-race-free and every call must execute a complete,
// correct kernel from one backend or the other.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"

namespace hatrix {
namespace {

using la::Backend;
using la::ConstMatrixView;
using la::ConstMatrixViewF;
using la::Diag;
using la::index_t;
using la::Matrix;
using la::MatrixF;
using la::MatrixView;
using la::MatrixViewF;
using la::Side;
using la::Trans;
using la::UpLo;

/// RAII: select a backend for one scope, restore the previous on exit.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) : prev_(la::backend()) { la::set_backend(b); }
  ~BackendGuard() { la::set_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend prev_;
};

/// The backends under test: everything except the reference oracle itself.
std::vector<Backend> backends_under_test() {
  std::vector<Backend> b{Backend::Blocked};
  if (la::vendor_available()) b.push_back(Backend::Vendor);
  return b;
}

Matrix random_matrix(index_t r, index_t c, Rng& rng) {
  Matrix m(r, c);
  for (index_t j = 0; j < c; ++j)
    for (index_t i = 0; i < r; ++i) m(i, j) = rng.normal();
  return m;
}

MatrixF to_f32(const Matrix& m) {
  MatrixF f(m.rows(), m.cols());
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i) f(i, j) = static_cast<float>(m(i, j));
  return f;
}

/// Well-conditioned triangular factor: unit-scale off-diagonal entries with
/// a dominant diagonal, so trsm solves stay far from overflow in float.
Matrix random_triangular(index_t n, UpLo uplo, Rng& rng) {
  Matrix t(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool in_tri = uplo == UpLo::Lower ? i >= j : i <= j;
      if (!in_tri) continue;
      t(i, j) = i == j ? 4.0 + rng.uniform() : 0.25 * rng.normal();
    }
  return t;
}

/// Max |a - b| over the matrix.
template <typename ViewA, typename ViewB>
double max_diff(ViewA a, ViewB b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  double d = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      d = std::max(d, std::abs(static_cast<double>(a(i, j)) -
                               static_cast<double>(b(i, j))));
  return d;
}

template <typename View>
double max_abs(View a) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      m = std::max(m, std::abs(static_cast<double>(a(i, j))));
  return m;
}

/// Accumulation-order-aware tolerance: eps * inner-dimension * magnitude,
/// with generous constant headroom (backends and the oracle may differ by
/// many reassociations but never by more than O(k) rounding steps).
double tolerance(index_t inner, double magnitude, double eps) {
  return 64.0 * static_cast<double>(std::max<index_t>(inner, 1)) * eps *
         (magnitude + 1.0);
}

constexpr double kEps64 = std::numeric_limits<double>::epsilon();
constexpr double kEps32 = std::numeric_limits<float>::epsilon();

std::string ctx(Backend b, const std::string& what) {
  return std::string(la::backend_name(b)) + ": " + what;
}

// ---------------------------------------------------------------------------
// gemm

struct GemmShape {
  index_t m, n, k;
};

const std::vector<GemmShape>& gemm_shapes() {
  // Odd sizes straddle every micro-kernel edge case (partial MR/NR tiles,
  // partial KC strips); zero dims must be clean no-ops; the tall-skinny
  // shapes mirror the low-rank panel products that dominate the solver.
  static const std::vector<GemmShape> shapes = {
      {0, 5, 3},  {5, 0, 3},   {5, 3, 0},   {1, 1, 1},   {2, 3, 4},
      {7, 5, 9},  {17, 13, 11}, {33, 33, 33}, {64, 64, 64}, {65, 63, 67},
      {129, 40, 17}, {200, 8, 40}, {8, 200, 40}, {176, 1, 256}, {16, 1, 48},
      {65, 1, 67}};
  return shapes;
}

TEST(LinalgConformance, GemmDoubleAllTransCombos) {
  Rng rng(31);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (const auto& s : gemm_shapes()) {
      for (Trans ta : {Trans::No, Trans::Yes}) {
        for (Trans tb : {Trans::No, Trans::Yes}) {
          const Matrix a = ta == Trans::No ? random_matrix(s.m, s.k, rng)
                                           : random_matrix(s.k, s.m, rng);
          const Matrix b = tb == Trans::No ? random_matrix(s.k, s.n, rng)
                                           : random_matrix(s.n, s.k, rng);
          const Matrix c0 = random_matrix(s.m, s.n, rng);
          for (auto [alpha, beta] : {std::pair{1.0, 0.0},
                                     std::pair{-0.5, 2.0},
                                     std::pair{0.0, 1.0}}) {
            Matrix c_ref = c0.f64_copy();
            la::ref::gemm(alpha, a.view(), ta, b.view(), tb, beta, c_ref.view());
            Matrix c_got = c0.f64_copy();
            la::gemm(alpha, a.view(), ta, b.view(), tb, beta, c_got.view());
            const double tol =
                tolerance(s.k, max_abs(c_ref.view()), kEps64);
            EXPECT_LE(max_diff(c_got.view(), c_ref.view()), tol)
                << ctx(be, "gemm d " + std::to_string(s.m) + "x" +
                               std::to_string(s.n) + "x" + std::to_string(s.k))
                << " ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes)
                << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(LinalgConformance, GemmFloatAllTransCombos) {
  Rng rng(32);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (const auto& s : gemm_shapes()) {
      for (Trans ta : {Trans::No, Trans::Yes}) {
        for (Trans tb : {Trans::No, Trans::Yes}) {
          const MatrixF a = to_f32(ta == Trans::No ? random_matrix(s.m, s.k, rng)
                                                   : random_matrix(s.k, s.m, rng));
          const MatrixF b = to_f32(tb == Trans::No ? random_matrix(s.k, s.n, rng)
                                                   : random_matrix(s.n, s.k, rng));
          const MatrixF c0 = to_f32(random_matrix(s.m, s.n, rng));
          MatrixF c_ref(s.m, s.n), c_got(s.m, s.n);
          for (index_t j = 0; j < s.n; ++j)
            for (index_t i = 0; i < s.m; ++i) c_ref(i, j) = c_got(i, j) = c0(i, j);
          la::ref::gemm(1.0F, a.view(), ta, b.view(), tb, 0.5F, c_ref.view());
          la::gemm(1.0F, a.view(), ta, b.view(), tb, 0.5F, c_got.view());
          const double tol = tolerance(s.k, max_abs(c_ref.view()), kEps32);
          EXPECT_LE(max_diff(c_got.view(), c_ref.view()), tol)
              << ctx(be, "gemm f " + std::to_string(s.m) + "x" +
                             std::to_string(s.n) + "x" + std::to_string(s.k))
              << " ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes);
        }
      }
    }
  }
}

TEST(LinalgConformance, GemmNonContiguousViews) {
  // Operands and destination are interior blocks of larger matrices, so
  // every view has ld > rows — the packing paths must honor the stride.
  Rng rng(33);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    const index_t m = 37, n = 29, k = 41, pad = 11;
    Matrix abuf = random_matrix(m + pad, k + pad, rng);
    Matrix bbuf = random_matrix(k + pad, n + pad, rng);
    Matrix cbuf = random_matrix(m + pad, n + pad, rng);
    Matrix cref = cbuf.f64_copy();
    const ConstMatrixView a = abuf.view().block(3, 5, m, k);
    const ConstMatrixView b = bbuf.view().block(7, 2, k, n);
    la::ref::gemm(1.5, a, Trans::No, b, Trans::No, -0.5,
                  cref.view().block(4, 6, m, n));
    la::gemm(1.5, a, Trans::No, b, Trans::No, -0.5,
             cbuf.view().block(4, 6, m, n));
    // The whole buffer must match: the kernel may not write outside its block.
    EXPECT_LE(max_diff(cbuf.view(), cref.view()),
              tolerance(k, max_abs(cref.view()), kEps64))
        << ctx(be, "gemm strided");
  }
}

// ---------------------------------------------------------------------------
// syrk

TEST(LinalgConformance, SyrkBothTransBothPrecisions) {
  Rng rng(34);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (index_t n : {0, 1, 2, 7, 33, 48, 63, 65, 129, 176}) {
      for (index_t k : {0, 1, 5, 40, 67}) {
        for (Trans tr : {Trans::No, Trans::Yes}) {
          const Matrix a = tr == Trans::No ? random_matrix(n, k, rng)
                                           : random_matrix(k, n, rng);
          const Matrix c0 = random_matrix(n, n, rng);
          Matrix c_ref = c0.f64_copy(), c_got = c0.f64_copy();
          la::ref::syrk(1.0, a.view(), tr, 0.5, c_ref.view());
          la::syrk(1.0, a.view(), tr, 0.5, c_got.view());
          EXPECT_LE(max_diff(c_got.view(), c_ref.view()),
                    tolerance(k, max_abs(c_ref.view()), kEps64))
              << ctx(be, "syrk d n=" + std::to_string(n) + " k=" + std::to_string(k))
              << " trans=" << (tr == Trans::Yes);

          const MatrixF af = to_f32(a);
          const MatrixF cf0 = to_f32(c0);
          MatrixF cf_ref(n, n), cf_got(n, n);
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < n; ++i) cf_ref(i, j) = cf_got(i, j) = cf0(i, j);
          la::ref::syrk(1.0F, af.view(), tr, 0.5F, cf_ref.view());
          la::syrk(1.0F, af.view(), tr, 0.5F, cf_got.view());
          EXPECT_LE(max_diff(cf_got.view(), cf_ref.view()),
                    tolerance(k, max_abs(cf_ref.view()), kEps32))
              << ctx(be, "syrk f n=" + std::to_string(n) + " k=" + std::to_string(k))
              << " trans=" << (tr == Trans::Yes);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Panel-width determinism (blas.hpp): on the deterministic backends, column j
// of a gemm or Side::Left trsm result has the same bits whether the call
// carries one column or a whole panel. The ULV solve relies on it — a vector
// solve is its one-column panel sweep. Shapes are the solve's per-node
// products: op(A) of (m-k) x m or k x m against an m-row panel, and the
// (m-k)- or k-order triangular solves, plus one odd shape.

std::vector<Backend> deterministic_backends() {
  return {Backend::Naive, Backend::Blocked};
}

struct SolveShape {
  index_t m, k;
};
const std::vector<SolveShape> kSolveShapes = {{32, 16}, {64, 16}, {256, 80}, {67, 13}};
constexpr index_t kPanel = 64;

void expect_column_bits(ConstMatrixView panel, index_t j, ConstMatrixView col,
                        const std::string& what) {
  ASSERT_EQ(col.rows, panel.rows);
  for (index_t i = 0; i < col.rows; ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(panel(i, j)),
              std::bit_cast<std::uint64_t>(col(i, 0)))
        << what << " column " << j << " row " << i;
}

TEST(LinalgConformance, GemmPanelColumnsMatchOneColumnCallsBitwise) {
  Rng rng(41);
  for (Backend be : deterministic_backends()) {
    BackendGuard guard(be);
    for (const auto& s : kSolveShapes) {
      for (index_t r : {s.m - s.k, s.k}) {
        const Matrix b = random_matrix(s.m, kPanel, rng);
        const Matrix c0 = random_matrix(r, kPanel, rng);
        for (Trans ta : {Trans::No, Trans::Yes}) {
          const Matrix a = ta == Trans::No ? random_matrix(r, s.m, rng)
                                           : random_matrix(s.m, r, rng);
          for (double beta : {0.0, 1.0}) {
            Matrix panel = c0.f64_copy();
            la::gemm(-1.0, a.view(), ta, b.view(), Trans::No, beta, panel.view());
            for (index_t j = 0; j < kPanel; ++j) {
              Matrix col = Matrix::from_view(c0.block(0, j, r, 1));
              la::gemm(-1.0, a.view(), ta, b.block(0, j, s.m, 1), Trans::No, beta,
                       col.view());
              expect_column_bits(panel.view(), j, col.view(),
                                 ctx(be, "gemm " + std::to_string(r) + "x" +
                                             std::to_string(s.m) + " ta=" +
                                             std::to_string(ta == Trans::Yes) +
                                             " beta=" + std::to_string(beta)));
            }
          }
        }
      }
    }
  }
}

TEST(LinalgConformance, TrsmPanelColumnsMatchOneColumnCallsBitwise) {
  // Panel widths straddle the lane kernels' chunking (4·8, 8, then halving
  // down to single columns), so every tile width meets the one-column path.
  Rng rng(42);
  for (Backend be : deterministic_backends()) {
    BackendGuard guard(be);
    for (const auto& s : kSolveShapes) {
      for (index_t r : {s.m - s.k, s.k}) {
        for (UpLo uplo : {UpLo::Lower, UpLo::Upper}) {
          const Matrix t = random_triangular(r, uplo, rng);
          for (index_t w : {1, 5, 8, 13, 64}) {
            const Matrix b0 = random_matrix(r, w, rng);
            for (Trans tr : {Trans::No, Trans::Yes}) {
              Matrix panel = b0.f64_copy();
              la::trsm(Side::Left, uplo, tr, Diag::NonUnit, 1.0, t.view(), panel.view());
              for (index_t j = 0; j < w; ++j) {
                Matrix col = Matrix::from_view(b0.block(0, j, r, 1));
                la::trsm(Side::Left, uplo, tr, Diag::NonUnit, 1.0, t.view(), col.view());
                expect_column_bits(
                    panel.view(), j, col.view(),
                    ctx(be, "trsm n=" + std::to_string(r) + " w=" + std::to_string(w) +
                                " upper=" + std::to_string(uplo == UpLo::Upper) +
                                " trans=" + std::to_string(tr == Trans::Yes)));
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// trsm / trmm: all Side x UpLo x Trans x Diag combinations

TEST(LinalgConformance, TrsmAllSixteenCombos) {
  Rng rng(35);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (index_t n : {0, 1, 3, 17, 48, 64, 65, 129, 176}) {
      for (index_t w : {0, 1, 5, 7, 8, 9, 40, 64}) {
        for (Side side : {Side::Left, Side::Right}) {
          for (UpLo uplo : {UpLo::Lower, UpLo::Upper}) {
            const Matrix t = random_triangular(n, uplo, rng);
            const index_t br = side == Side::Left ? n : w;
            const index_t bc = side == Side::Left ? w : n;
            const Matrix b0 = random_matrix(br, bc, rng);
            for (Trans tr : {Trans::No, Trans::Yes}) {
              for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
                Matrix b_ref = b0.f64_copy(), b_got = b0.f64_copy();
                la::ref::trsm(side, uplo, tr, dg, 1.25, t.view(), b_ref.view());
                la::trsm(side, uplo, tr, dg, 1.25, t.view(), b_got.view());
                EXPECT_LE(max_diff(b_got.view(), b_ref.view()),
                          tolerance(n, max_abs(b_ref.view()), kEps64))
                    << ctx(be, "trsm n=" + std::to_string(n) + " w=" +
                                   std::to_string(w))
                    << " side=" << (side == Side::Right)
                    << " uplo=" << (uplo == UpLo::Upper)
                    << " trans=" << (tr == Trans::Yes)
                    << " diag=" << (dg == Diag::Unit);
              }
            }
          }
        }
      }
    }
  }
}

TEST(LinalgConformance, TrsmFloatCombos) {
  Rng rng(36);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (index_t n : {1, 17, 48, 65, 176}) {
      for (Side side : {Side::Left, Side::Right}) {
        for (UpLo uplo : {UpLo::Lower, UpLo::Upper}) {
          const MatrixF t = to_f32(random_triangular(n, uplo, rng));
          for (index_t w : {7, 8, 9, 16, 17, 64}) {
            const MatrixF b0 = to_f32(random_matrix(side == Side::Left ? n : w,
                                                    side == Side::Left ? w : n, rng));
            for (Trans tr : {Trans::No, Trans::Yes}) {
              for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
                MatrixF b_ref(b0.rows(), b0.cols()), b_got(b0.rows(), b0.cols());
                for (index_t j = 0; j < b0.cols(); ++j)
                  for (index_t i = 0; i < b0.rows(); ++i)
                    b_ref(i, j) = b_got(i, j) = b0(i, j);
                la::ref::trsm(side, uplo, tr, dg, 1.0F, t.view(), b_ref.view());
                la::trsm(side, uplo, tr, dg, 1.0F, t.view(), b_got.view());
                EXPECT_LE(max_diff(b_got.view(), b_ref.view()),
                          tolerance(n, max_abs(b_ref.view()), kEps32))
                    << ctx(be, "trsm f n=" + std::to_string(n) + " w=" +
                                   std::to_string(w))
                    << " side=" << (side == Side::Right)
                    << " uplo=" << (uplo == UpLo::Upper)
                    << " trans=" << (tr == Trans::Yes)
                    << " diag=" << (dg == Diag::Unit);
              }
            }
          }
        }
      }
    }
  }
}

TEST(LinalgConformance, TrmmAllSixteenCombos) {
  Rng rng(37);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (index_t n : {0, 1, 3, 17, 65}) {
      for (Side side : {Side::Left, Side::Right}) {
        for (UpLo uplo : {UpLo::Lower, UpLo::Upper}) {
          const Matrix t = random_triangular(n, uplo, rng);
          const index_t w = 7;
          const Matrix b0 = random_matrix(side == Side::Left ? n : w,
                                          side == Side::Left ? w : n, rng);
          for (Trans tr : {Trans::No, Trans::Yes}) {
            for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
              Matrix b_ref = b0.f64_copy(), b_got = b0.f64_copy();
              la::ref::trmm(side, uplo, tr, dg, 0.75, t.view(), b_ref.view());
              la::trmm(side, uplo, tr, dg, 0.75, t.view(), b_got.view());
              EXPECT_LE(max_diff(b_got.view(), b_ref.view()),
                        tolerance(n, max_abs(b_ref.view()), kEps64))
                  << ctx(be, "trmm n=" + std::to_string(n))
                  << " side=" << (side == Side::Right)
                  << " uplo=" << (uplo == UpLo::Upper)
                  << " trans=" << (tr == Trans::Yes)
                  << " diag=" << (dg == Diag::Unit);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// potrf

TEST(LinalgConformance, PotrfAgainstUnblockedReference) {
  Rng rng(38);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (index_t n : {1, 2, 7, 33, 48, 63, 64, 65, 129, 176, 200}) {
      // SPD by construction: B·Bᵀ + n·I keeps the condition number modest so
      // the two factorizations agree to working accuracy.
      const Matrix b = random_matrix(n, n, rng);
      Matrix a(n, n);
      la::ref::gemm(1.0, b.view(), Trans::No, b.view(), Trans::Yes, 0.0, a.view());
      for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

      Matrix l_ref = a.f64_copy(), l_got = a.f64_copy();
      la::ref::potrf(l_ref.view());
      la::potrf(l_got.view());
      EXPECT_LE(max_diff(l_got.view(), l_ref.view()),
                tolerance(n, max_abs(l_ref.view()), kEps64))
          << ctx(be, "potrf n=" + std::to_string(n));
      // Strict upper triangle explicitly zeroed by both.
      for (index_t j = 1; j < n; ++j)
        for (index_t i = 0; i < j; ++i)
          EXPECT_EQ(l_got(i, j), 0.0) << ctx(be, "potrf upper not zeroed");

      MatrixF af = to_f32(a);
      MatrixF lf_ref(n, n), lf_got(n, n);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) lf_ref(i, j) = lf_got(i, j) = af(i, j);
      la::ref::potrf(lf_ref.view());
      la::potrf(lf_got.view());
      EXPECT_LE(max_diff(lf_got.view(), lf_ref.view()),
                tolerance(n, max_abs(lf_ref.view()), kEps32))
          << ctx(be, "potrf f n=" + std::to_string(n));
    }
  }
}

TEST(LinalgConformance, PotrfThrowsOnIndefinite) {
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    Matrix a(3, 3);
    a(0, 0) = 1.0;
    a(1, 1) = -1.0;  // negative pivot
    a(2, 2) = 1.0;
    EXPECT_THROW(la::potrf(a.view()), Error) << ctx(be, "potrf indefinite");
  }
}

TEST(LinalgConformance, PotrfReportsGlobalPivot) {
  // Column 80 lies in the second 64-row diagonal block; the error names the
  // pivot in the whole matrix, not within its block.
  Rng rng(39);
  const index_t n = 100;
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    const Matrix b = random_matrix(n, n, rng);
    Matrix a(n, n);
    la::ref::gemm(1.0, b.view(), Trans::No, b.view(), Trans::Yes, 0.0, a.view());
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    a(80, 80) = -1.0;
    try {
      la::potrf(a.view());
      ADD_FAILURE() << ctx(be, "indefinite matrix factorized");
    } catch (const la::NotPositiveDefiniteError& e) {
      EXPECT_EQ(e.pivot(), 80) << ctx(be, e.what());
      EXPECT_EQ(e.level(), -1);
      EXPECT_NE(std::string(e.what()).find("pivot 80"), std::string::npos) << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Householder QR family: the blocked compact-WY core against the unblocked
// reference. Both apply the same reflectors, so they agree up to rounding;
// the comparison still allows a sign flip per column of Q (row of R).

/// ‖QᵀQ − I‖_F for a matrix with orthonormal columns.
double orthogonality_error(ConstMatrixView q) {
  Matrix qtq(q.cols, q.cols);
  la::ref::gemm(1.0, q, Trans::Yes, q, Trans::No, 0.0, qtq.view());
  for (index_t i = 0; i < q.cols; ++i) qtq(i, i) -= 1.0;
  return la::norm_fro(qtq.view());
}

/// ‖A − Q·R‖_F.
double factorization_error(ConstMatrixView a, ConstMatrixView q, ConstMatrixView r) {
  Matrix res = Matrix::from_view(a);
  la::ref::gemm(-1.0, q, Trans::No, r, Trans::No, 1.0, res.view());
  return la::norm_fro(res.view());
}

/// max |got − ref| after flipping each column of `got` to the sign of the
/// matching reference column (its largest-magnitude entry decides).
double max_diff_up_to_column_signs(ConstMatrixView got, ConstMatrixView ref) {
  EXPECT_EQ(got.rows, ref.rows);
  EXPECT_EQ(got.cols, ref.cols);
  double d = 0.0;
  for (index_t j = 0; j < ref.cols; ++j) {
    index_t imax = 0;
    for (index_t i = 1; i < ref.rows; ++i)
      if (std::abs(ref(i, j)) > std::abs(ref(imax, j))) imax = i;
    const double sign = ref.rows > 0 && got(imax, j) * ref(imax, j) < 0.0 ? -1.0 : 1.0;
    for (index_t i = 0; i < ref.rows; ++i)
      d = std::max(d, std::abs(sign * got(i, j) - ref(i, j)));
  }
  return d;
}

void expect_qr_conforms(ConstMatrixView a, const std::string& what) {
  const index_t m = a.rows, n = a.cols, k = std::min(m, n);
  const auto got = la::qr(a);
  const auto ref = la::ref::qr(a);
  ASSERT_EQ(got.q.rows(), m) << what;
  ASSERT_EQ(got.q.cols(), k) << what;
  ASSERT_EQ(got.r.rows(), k) << what;
  ASSERT_EQ(got.r.cols(), n) << what;
  const double anorm = la::norm_fro(a);
  EXPECT_LE(orthogonality_error(got.q.view()), 10.0 * static_cast<double>(m) * kEps64)
      << what;
  EXPECT_LE(factorization_error(a, got.q.view(), got.r.view()), 10.0 * kEps64 * anorm)
      << what;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < k; ++i) EXPECT_EQ(got.r(i, j), 0.0) << what;
  EXPECT_LE(max_diff_up_to_column_signs(got.q.view(), ref.q.view()),
            tolerance(m, 1.0, kEps64))
      << what << ": Q vs ref";
  const Matrix rt_got = la::transpose(got.r.view()), rt_ref = la::transpose(ref.r.view());
  EXPECT_LE(max_diff_up_to_column_signs(rt_got.view(), rt_ref.view()),
            tolerance(m, max_abs(a), kEps64))
      << what << ": R vs ref";
}

TEST(LinalgConformance, QrBlockedMatchesReference) {
  // k = min(m, n) on both sides of the 32-column panel and of one WY
  // block, plus wide (m < n) and square inputs.
  const std::vector<std::pair<index_t, index_t>> shapes = {
      {5, 0},   {7, 1},    {40, 31},  {64, 32},  {50, 33},  {256, 80},
      {160, 80}, {97, 97}, {120, 97}, {20, 50}, {33, 120}, {80, 200}};
  Rng rng(40);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (auto [m, n] : shapes) {
      const Matrix a = random_matrix(m, n, rng);
      expect_qr_conforms(a.view(), ctx(be, "qr " + std::to_string(m) + "x" +
                                               std::to_string(n)));
    }
  }
}

TEST(LinalgConformance, QrRankDeficientZeroColumnsInsideWyBlocks) {
  // Zero columns give tau = 0 reflectors (H = I) in the first, second and
  // last panel; T must carry a zero row and column for each.
  Rng rng(41);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    Matrix a = random_matrix(100, 75, rng);
    for (index_t j : {0, 5, 6, 31, 40, 63, 64, 74})
      for (index_t i = 0; i < a.rows(); ++i) a(i, j) = 0.0;
    expect_qr_conforms(a.view(), ctx(be, "qr zero columns"));
    const auto f = la::qr(a.view());
    for (index_t j : {0, 5, 6, 31, 40, 63, 64, 74}) EXPECT_EQ(f.r(j, j), 0.0);
  }
}

TEST(LinalgConformance, OrthComplementBlockedMatchesReference) {
  const std::vector<std::pair<index_t, index_t>> shapes = {
      {64, 0},  {64, 64}, {40, 1},   {100, 31}, {100, 32},
      {100, 33}, {256, 80}, {160, 80}, {200, 97}};
  Rng rng(42);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (auto [m, k] : shapes) {
      const std::string what =
          ctx(be, "orth_complement " + std::to_string(m) + "x" + std::to_string(k));
      const Matrix u = la::ref::qr(random_matrix(m, k, rng).view()).q;
      const Matrix got = la::orth_complement(u.view());
      const Matrix ref = la::ref::orth_complement(u.view());
      ASSERT_EQ(got.rows(), m) << what;
      ASSERT_EQ(got.cols(), m - k) << what;
      const double tol = 10.0 * static_cast<double>(m) * kEps64;
      EXPECT_LE(orthogonality_error(got.view()), tol) << what;
      // [Q_c U] is orthogonal: the complement is orthogonal to col(U).
      Matrix utq(k, m - k);
      la::ref::gemm(1.0, u.view(), Trans::Yes, got.view(), Trans::No, 0.0, utq.view());
      EXPECT_LE(la::norm_fro(utq.view()), tol) << what;
      EXPECT_LE(max_diff_up_to_column_signs(got.view(), ref.view()),
                tolerance(m, 1.0, kEps64))
          << what << ": vs ref";
    }
  }
}

TEST(LinalgConformance, PivotedQrFormsOrthonormalQ) {
  // A·P = Q·R for untruncated factorizations, on the reflector-by-reflector
  // path (rank <= 32) and the WY path.
  struct Case {
    index_t m, n, max_rank;
  };
  Rng rng(43);
  for (Backend be : backends_under_test()) {
    BackendGuard guard(be);
    for (Case c : {Case{40, 30, 30}, Case{30, 45, 30}, Case{120, 70, 70},
                   Case{70, 120, 70}}) {
      const std::string what = ctx(be, "pivoted_qr " + std::to_string(c.m) + "x" +
                                           std::to_string(c.n));
      const Matrix a = random_matrix(c.m, c.n, rng);
      const auto f = la::pivoted_qr(a.view(), c.max_rank, 0.0);
      ASSERT_EQ(f.rank, c.max_rank) << what;
      const Matrix q = f.q();
      ASSERT_EQ(q.rows(), c.m) << what;
      ASSERT_EQ(q.cols(), f.rank) << what;
      EXPECT_LE(orthogonality_error(q.view()), 10.0 * static_cast<double>(c.m) * kEps64)
          << what;
      const Matrix ap = la::gather_cols(a.view(), f.perm);
      EXPECT_LE(factorization_error(ap.view(), q.view(), f.r.view()),
                10.0 * kEps64 * la::norm_fro(a.view()))
          << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend dispatch

TEST(LinalgConformance, BackendNamesRoundTrip) {
  EXPECT_EQ(la::backend_from_name("naive"), Backend::Naive);
  EXPECT_EQ(la::backend_from_name("blocked"), Backend::Blocked);
  EXPECT_EQ(la::backend_from_name("vendor"), Backend::Vendor);
  EXPECT_THROW((void)la::backend_from_name("accelerated"), Error);
  EXPECT_STREQ(la::backend_name(Backend::Naive), "naive");
  EXPECT_STREQ(la::backend_name(Backend::Blocked), "blocked");
  EXPECT_STREQ(la::backend_name(Backend::Vendor), "vendor");
}

TEST(LinalgConformance, VendorSelectionWithoutLibraryThrows) {
  if (la::vendor_available()) GTEST_SKIP() << "vendor BLAS compiled in";
  EXPECT_THROW(la::set_backend(Backend::Vendor), Error);
}

TEST(LinalgConformance, BackendDispatchIsThreadSafe) {
  // The dispatch point is one atomic load per kernel call; flipping the
  // backend from another thread mid-stream must never tear a kernel. Every
  // result must be the (identical) bit pattern both deterministic backends
  // produce for this k<=inner-kernel-width problem, or at least match the
  // oracle to tolerance.
  const Backend prev = la::backend();
  Rng rng(39);
  const index_t n = 48;
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  Matrix c_ref(n, n);
  la::ref::gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c_ref.view());
  const double tol = tolerance(n, max_abs(c_ref.view()), kEps64);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      la::set_backend((i++ % 2) == 0 ? Backend::Naive : Backend::Blocked);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int it = 0; it < 50; ++it) {
        Matrix c(n, n);
        la::gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view());
        if (max_diff(c.view(), c_ref.view()) > tol)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true);
  flipper.join();
  la::set_backend(prev);
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hatrix
