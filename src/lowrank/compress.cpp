#include "lowrank/compress.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace hatrix::lr {

LowRank compress(la::ConstMatrixView a, index_t max_rank, double tol) {
  const double abs_tol = tol > 0.0 ? tol * la::norm_fro(a) : 0.0;
  auto f = la::pivoted_qr(a, max_rank, abs_tol);
  // A P = Q R  =>  A = Q (R Pᵀ); V rows follow the inverse permutation.
  Matrix v(a.cols, f.rank);
  for (index_t j = 0; j < a.cols; ++j) {
    const index_t orig = f.perm[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < f.rank; ++i) v(orig, i) = f.r(i, j);
  }
  return LowRank(f.q(), std::move(v));
}

LowRank truncated_svd(la::ConstMatrixView a, index_t max_rank, double tol) {
  auto f = la::svd(a);
  const double cutoff = tol > 0.0 && !f.s.empty() ? tol * f.s.front() : 0.0;
  index_t k = 0;
  while (k < static_cast<index_t>(f.s.size()) && k < max_rank &&
         f.s[static_cast<std::size_t>(k)] > cutoff)
    ++k;
  Matrix u(a.rows, k), v(a.cols, k);
  for (index_t j = 0; j < k; ++j) {
    const double s = f.s[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < a.rows; ++i) u(i, j) = f.u(i, j);
    for (index_t i = 0; i < a.cols; ++i) v(i, j) = f.v(i, j) * s;
  }
  return LowRank(std::move(u), std::move(v));
}

LowRank recompress(const LowRank& a, index_t max_rank, double tol) {
  if (a.rank() == 0) return a;
  // A = U Vᵀ = (Qu Ru)(Qv Rv)ᵀ = Qu (Ru Rvᵀ) Qvᵀ; SVD the small core.
  auto fu = la::qr(a.u.view());
  auto fv = la::qr(a.v.view());
  Matrix core = la::matmul(fu.r.view(), fv.r.view(), la::Trans::No, la::Trans::Yes);
  LowRank small = truncated_svd(core.view(), max_rank, tol);
  return LowRank(la::matmul(fu.q.view(), small.u.view()),
                 la::matmul(fv.q.view(), small.v.view()));
}

LowRank lr_add_round(double alpha, const LowRank& a, double beta, const LowRank& b,
                     index_t max_rank, double tol) {
  HATRIX_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "lr_add_round shape mismatch");
  // Stack factors: alpha A + beta B = [Ua Ub] [alpha Va beta Vb]ᵀ.
  Matrix u = la::hconcat({a.u.view(), b.u.view()});
  Matrix va = Matrix::from_view(a.v.view());
  la::scale(va.view(), alpha);
  Matrix vb = Matrix::from_view(b.v.view());
  la::scale(vb.view(), beta);
  Matrix v = la::hconcat({va.view(), vb.view()});
  return recompress(LowRank(std::move(u), std::move(v)), max_rank, tol);
}

}  // namespace hatrix::lr
