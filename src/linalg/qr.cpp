#include "linalg/qr.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <utility>

#include "common/flops.hpp"
#include "linalg/blas.hpp"

namespace hatrix::la {

namespace {

// Panel width of the blocked factorization, and the reflector count at or
// below which Q is applied reflector by reflector: one panel's T and the
// three gemm calls of a WY update cost more than they save there.
constexpr index_t kPanel = 32;

// Generate a Householder reflector for x (length m): H = I - tau v vᵀ with
// v[0] = 1, such that H x = (beta, 0, ..., 0). Returns {tau, beta}; v is
// written over x[1:].
struct Reflector {
  double tau;
  double beta;
};

Reflector make_reflector(double* x, index_t m) {
  double sigma = 0.0;
  for (index_t i = 1; i < m; ++i) sigma += x[i] * x[i];
  const double alpha = x[0];
  double norm = std::sqrt(alpha * alpha + sigma);
  // The plain sum of squares can underflow (tiny columns) or overflow (huge
  // ones). Like LAPACK dlarfg, only then recompute the norm with scaling, so
  // columns in the normal range keep their exact bits.
  if (!(sigma >= DBL_MIN) || !std::isfinite(norm)) {
    double scale = 0.0;
    for (index_t i = 1; i < m; ++i) scale = std::max(scale, std::abs(x[i]));
    if (scale == 0.0) return {0.0, alpha};  // already e1-aligned; H = I
    double ssq = 0.0;
    for (index_t i = 1; i < m; ++i) {
      const double r = x[i] / scale;
      ssq += r * r;
    }
    norm = std::hypot(alpha, scale * std::sqrt(ssq));
  }
  const double beta = alpha >= 0.0 ? -norm : norm;
  const double v0 = alpha - beta;
  for (index_t i = 1; i < m; ++i) x[i] /= v0;
  const double tau = (beta - alpha) / beta;
  return {tau, beta};
}

// Apply H = I - tau v vᵀ (v[0] implicit 1, stored in col below diag) to the
// block C (m x n) from the left: C := H C. Four columns share one pass over
// v, so four independent dot-product chains overlap; each column still sums
// in row order, so the result is bit-identical to one column at a time.
void apply_reflector(const double* v, double tau, MatrixView c) {
  if (tau == 0.0) return;
  const index_t m = c.rows, n = c.cols;
  flops::add(static_cast<std::uint64_t>(4) * m * n);
  index_t j = 0;
  for (; j + 4 <= n; j += 4) {
    double* c0 = &c(0, j);
    double* c1 = c0 + c.ld;
    double* c2 = c1 + c.ld;
    double* c3 = c2 + c.ld;
    double s0 = c0[0], s1 = c1[0], s2 = c2[0], s3 = c3[0];
    for (index_t i = 1; i < m; ++i) {
      s0 += v[i] * c0[i];
      s1 += v[i] * c1[i];
      s2 += v[i] * c2[i];
      s3 += v[i] * c3[i];
    }
    s0 *= tau;
    s1 *= tau;
    s2 *= tau;
    s3 *= tau;
    c0[0] -= s0;
    c1[0] -= s1;
    c2[0] -= s2;
    c3[0] -= s3;
    for (index_t i = 1; i < m; ++i) {
      c0[i] -= v[i] * s0;
      c1[i] -= v[i] * s1;
      c2[i] -= v[i] * s2;
      c3[i] -= v[i] * s3;
    }
  }
  for (; j < n; ++j) {
    double s = c(0, j);
    for (index_t i = 1; i < m; ++i) s += v[i] * c(i, j);
    s *= tau;
    c(0, j) -= s;
    for (index_t i = 1; i < m; ++i) c(i, j) -= v[i] * s;
  }
}

// Unblocked Householder QR in place (LAPACK geqr2 layout): R on and above
// the diagonal, reflector j below it with v_j[0] = 1 implicit, tau[j].
void geqr2(MatrixView a, double* tau) {
  const index_t m = a.rows, n = a.cols;
  for (index_t j = 0; j < std::min(m, n); ++j) {
    double* col = &a(j, j);
    const auto refl = make_reflector(col, m - j);
    tau[j] = refl.tau;
    if (j + 1 < n) apply_reflector(col, refl.tau, a.block(j, j + 1, m - j, n - j - 1));
    a(j, j) = refl.beta;
  }
}

// Reflectors [j0, j0 + jb) of a packed factorization in compact-WY form:
// H_j0 ... H_{j0+jb-1} = I - Y T Yᵀ on rows j0..m.
struct WyBlock {
  index_t j0 = 0;
  Matrix y;  ///< explicit unit-lower-trapezoidal Y, (m - j0) x jb
  Matrix t;  ///< jb x jb upper triangular
};

// Builds Y from the packed vectors and T as LAPACK larft does (forward,
// columnwise). The Gram matrix YᵀY comes from one gemm; a reflector with
// tau = 0 gets a zero row and column of T.
WyBlock wy_block(ConstMatrixView packed, const double* tau, index_t j0, index_t jb) {
  const index_t mr = packed.rows - j0;
  WyBlock b{j0, Matrix(mr, jb), Matrix(jb, jb)};
  for (index_t j = 0; j < jb; ++j) {
    b.y(j, j) = 1.0;
    for (index_t i = j + 1; i < mr; ++i) b.y(i, j) = packed(j0 + i, j0 + j);
  }
  Matrix& t = b.t;
  gemm(1.0, b.y.view(), Trans::Yes, b.y.view(), Trans::No, 0.0, t.view());
  flops::add(static_cast<std::uint64_t>(jb) * jb * jb / 3);
  std::vector<double> w(static_cast<std::size_t>(jb));
  // T(0:i, i) = -tau_i T(0:i, 0:i) Yᵀ y_i, where (Yᵀ y_i)[p] = (YᵀY)(p, i)
  // still sits in column i above the diagonal.
  for (index_t i = 0; i < jb; ++i) {
    for (index_t p = 0; p < i; ++p) w[static_cast<std::size_t>(p)] = t(p, i);
    for (index_t p = 0; p < i; ++p) {
      double s = 0.0;
      for (index_t q = p; q < i; ++q) s += t(p, q) * w[static_cast<std::size_t>(q)];
      t(p, i) = -tau[j0 + i] * s;
    }
    t(i, i) = tau[j0 + i];
    for (index_t p = i + 1; p < jb; ++p) t(p, i) = 0.0;
  }
  return b;
}

// C := (I - Y op(T) Yᵀ) C through three gemms (LAPACK larfb, left side).
void apply_wy(const WyBlock& b, Trans trans, MatrixView c) {
  const index_t jb = b.t.rows(), n = c.cols;
  Matrix w(jb, n), tw(jb, n);
  gemm(1.0, b.y.view(), Trans::Yes, c, Trans::No, 0.0, w.view());
  gemm(1.0, b.t.view(), trans, w.view(), Trans::No, 0.0, tw.view());
  gemm(-1.0, b.y.view(), Trans::No, tw.view(), Trans::No, 1.0, c);
}

// Blocked Householder QR in place, in geqr2's layout: panels of kPanel
// columns factored by geqr2, each followed by one WY update of the trailing
// columns. Returns every panel's WY block for apply_q. At most kPanel
// reflectors is exactly geqr2 and returns no blocks.
std::vector<WyBlock> geqrf(MatrixView a, double* tau) {
  const index_t m = a.rows, n = a.cols, k = std::min(m, n);
  std::vector<WyBlock> wy;
  if (k <= kPanel) {
    geqr2(a, tau);
    return wy;
  }
  for (index_t j0 = 0; j0 < k; j0 += kPanel) {
    const index_t jb = std::min(kPanel, k - j0);
    geqr2(a.block(j0, j0, m - j0, jb), tau + j0);
    wy.push_back(wy_block(a, tau, j0, jb));
    if (j0 + jb < n)
      apply_wy(wy.back(), Trans::Yes, a.block(j0, j0 + jb, m - j0, n - j0 - jb));
  }
  return wy;
}

// C := Q C for Q = H_0 ... H_{k-1} (C has packed.rows rows), by the WY
// blocks last first, or reflector by reflector when there are none (k <=
// kPanel). With `leading_identity`, C is the first columns of the identity,
// so the reflectors from j on leave C's columns before j alone (LAPACK
// orgqr's saving).
void apply_q(ConstMatrixView packed, const double* tau, index_t k,
             const std::vector<WyBlock>& wy, MatrixView c, bool leading_identity) {
  const index_t m = packed.rows, n = c.cols;
  if (wy.empty()) {
    for (index_t j = k - 1; j >= 0; --j) {
      const index_t c0 = leading_identity ? j : 0;
      apply_reflector(&packed(j, j), tau[j], c.block(j, c0, m - j, n - c0));
    }
    return;
  }
  for (auto b = wy.rbegin(); b != wy.rend(); ++b) {
    const index_t c0 = leading_identity ? b->j0 : 0;
    apply_wy(*b, Trans::No, c.block(b->j0, c0, m - b->j0, n - c0));
  }
}

// R (k x n) from a packed factorization: its upper trapezoid.
Matrix upper_r(ConstMatrixView packed, index_t k) {
  Matrix r(k, packed.cols);
  for (index_t j = 0; j < packed.cols; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = packed(i, j);
  return r;
}

// The first k columns of H_0 ... H_{k-1}: the Q of A = Q·R.
Matrix leading_q(ConstMatrixView packed, const double* tau, index_t k,
                 const std::vector<WyBlock>& wy) {
  Matrix q(packed.rows, k);
  for (index_t j = 0; j < k; ++j) q(j, j) = 1.0;
  apply_q(packed, tau, k, wy, q.view(), /*leading_identity=*/true);
  return q;
}

// Columns k..m of H_0 ... H_{k-1}: they span the complement of the
// factored columns, because U = Q[:, :k] R.
Matrix complement(ConstMatrixView packed, const double* tau, index_t k,
                  const std::vector<WyBlock>& wy) {
  const index_t m = packed.rows;
  Matrix q(m, m - k);
  for (index_t j = 0; j < m - k; ++j) q(k + j, j) = 1.0;
  apply_q(packed, tau, k, wy, q.view(), /*leading_identity=*/false);
  return q;
}

}  // namespace

QrResult qr(ConstMatrixView a) {
  const index_t k = std::min(a.rows, a.cols);
  Matrix work = Matrix::from_view(a);
  std::vector<double> tau(static_cast<std::size_t>(k));
  const auto wy = geqrf(work.view(), tau.data());
  return {leading_q(work.view(), tau.data(), k, wy), upper_r(work.view(), k)};
}

Matrix PivotedQrResult::q() const {
  std::vector<WyBlock> wy;
  if (rank > kPanel)
    for (index_t j0 = 0; j0 < rank; j0 += kPanel)
      wy.push_back(wy_block(packed.view(), tau.data(), j0, std::min(kPanel, rank - j0)));
  return leading_q(packed.view(), tau.data(), rank, wy);
}

PivotedQrResult pivoted_qr(ConstMatrixView a, index_t max_rank, double tol) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min({m, n, std::max<index_t>(max_rank, 0)});
  Matrix work = Matrix::from_view(a);

  PivotedQrResult out;
  out.perm.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) out.perm[static_cast<std::size_t>(j)] = j;

  out.tau.reserve(static_cast<std::size_t>(kmax));
  // Trailing column norms, downdated LAPACK dgeqp3-style: keep the norm when
  // it was last recomputed exactly, and recompute when the accumulated
  // downdates could be dominated by cancellation.
  std::vector<double> colnorm(static_cast<std::size_t>(n), 0.0);
  std::vector<double> colnorm_ref(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < m; ++i) s += work(i, j) * work(i, j);
    colnorm[static_cast<std::size_t>(j)] = std::sqrt(s);
    colnorm_ref[static_cast<std::size_t>(j)] = colnorm[static_cast<std::size_t>(j)];
  }

  index_t k = 0;
  for (; k < kmax; ++k) {
    // Pivot: column with the largest remaining norm.
    index_t p = k;
    for (index_t j = k + 1; j < n; ++j)
      if (colnorm[static_cast<std::size_t>(j)] > colnorm[static_cast<std::size_t>(p)])
        p = j;
    if (colnorm[static_cast<std::size_t>(p)] <= tol) break;
    if (p != k) {
      for (index_t i = 0; i < m; ++i) std::swap(work(i, k), work(i, p));
      std::swap(colnorm[static_cast<std::size_t>(k)], colnorm[static_cast<std::size_t>(p)]);
      std::swap(colnorm_ref[static_cast<std::size_t>(k)], colnorm_ref[static_cast<std::size_t>(p)]);
      std::swap(out.perm[static_cast<std::size_t>(k)], out.perm[static_cast<std::size_t>(p)]);
    }

    MatrixView col = work.block(k, k, m - k, 1);
    auto refl = make_reflector(col.data, m - k);
    out.tau.push_back(refl.tau);
    if (k + 1 < n)
      apply_reflector(col.data, refl.tau, work.block(k, k + 1, m - k, n - k - 1));
    work(k, k) = refl.beta;

    for (index_t j = k + 1; j < n; ++j) {
      auto& cn = colnorm[static_cast<std::size_t>(j)];
      if (cn == 0.0) continue;
      double temp = std::abs(work(k, j)) / cn;
      temp = std::max(0.0, (1.0 + temp) * (1.0 - temp));
      const double ratio = cn / colnorm_ref[static_cast<std::size_t>(j)];
      // When the downdated norm has lost ~half the mantissa relative to the
      // reference norm, recompute it exactly from the trailing rows.
      if (temp * ratio * ratio <= 1e-14) {
        double s = 0.0;
        for (index_t i = k + 1; i < m; ++i) s += work(i, j) * work(i, j);
        cn = std::sqrt(s);
        colnorm_ref[static_cast<std::size_t>(j)] = cn;
      } else {
        cn *= std::sqrt(temp);
      }
    }
  }
  out.rank = k;
  out.r = upper_r(work.view(), k);
  out.packed = Matrix::from_view(work.block(0, 0, m, k));
  return out;
}

Matrix orth_complement(ConstMatrixView u) {
  HATRIX_CHECK(u.cols <= u.rows, "orth_complement: more columns than rows");
  Matrix work = Matrix::from_view(u);
  std::vector<double> tau(static_cast<std::size_t>(u.cols));
  const auto wy = geqrf(work.view(), tau.data());
  return complement(work.view(), tau.data(), u.cols, wy);
}

namespace ref {

QrResult qr(ConstMatrixView a) {
  const index_t k = std::min(a.rows, a.cols);
  Matrix work = Matrix::from_view(a);
  std::vector<double> tau(static_cast<std::size_t>(k));
  geqr2(work.view(), tau.data());
  return {leading_q(work.view(), tau.data(), k, {}), upper_r(work.view(), k)};
}

Matrix orth_complement(ConstMatrixView u) {
  HATRIX_CHECK(u.cols <= u.rows, "orth_complement: more columns than rows");
  Matrix work = Matrix::from_view(u);
  std::vector<double> tau(static_cast<std::size_t>(u.cols));
  geqr2(work.view(), tau.data());
  return complement(work.view(), tau.data(), u.cols, {});
}

}  // namespace ref

}  // namespace hatrix::la
