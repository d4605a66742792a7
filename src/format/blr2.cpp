#include "format/blr2.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"

namespace hatrix::fmt {

BLR2Matrix::BLR2Matrix(index_t n, index_t num_blocks) : n_(n) {
  HATRIX_CHECK(n > 0 && num_blocks > 0 && num_blocks <= n, "bad BLR2 dimensions");
  nodes_.resize(static_cast<std::size_t>(num_blocks));
  couplings_.resize(static_cast<std::size_t>(num_blocks * (num_blocks - 1) / 2));
}

BLR2Matrix::Node& BLR2Matrix::node(index_t i) {
  HATRIX_CHECK(i >= 0 && i < num_blocks(), "node out of range");
  return nodes_[static_cast<std::size_t>(i)];
}

const BLR2Matrix::Node& BLR2Matrix::node(index_t i) const {
  return const_cast<BLR2Matrix*>(this)->node(i);
}

Matrix& BLR2Matrix::coupling(index_t i, index_t j) {
  HATRIX_CHECK(i > j && i < num_blocks() && j >= 0, "coupling wants i > j");
  return couplings_[static_cast<std::size_t>(i * (i - 1) / 2 + j)];
}

const Matrix& BLR2Matrix::coupling(index_t i, index_t j) const {
  return const_cast<BLR2Matrix*>(this)->coupling(i, j);
}

void BLR2Matrix::matvec(const std::vector<double>& x, std::vector<double>& y) const {
  HATRIX_CHECK(static_cast<index_t>(x.size()) == n_, "matvec dimension mismatch");
  y.assign(static_cast<std::size_t>(n_), 0.0);
  const index_t p = num_blocks();

  // Compressed inputs per block: xc_i = U_iᵀ x_i. F64Block promotes
  // FP32-demoted bases/couplings on the fly (free for FP64 storage).
  std::vector<std::vector<double>> xc(static_cast<std::size_t>(p));
  for (index_t i = 0; i < p; ++i) {
    const Node& nd = node(i);
    xc[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(nd.rank), 0.0);
    la::gemv(1.0, la::F64Block(nd.basis).view(), la::Trans::Yes,
             x.data() + nd.begin, 0.0, xc[static_cast<std::size_t>(i)].data());
  }

  for (index_t i = 0; i < p; ++i) {
    const Node& nd = node(i);
    // Diagonal block.
    la::gemv(1.0, nd.diag.view(), la::Trans::No, x.data() + nd.begin, 1.0,
             y.data() + nd.begin);
    // Off-diagonal couplings accumulated in compressed coordinates.
    std::vector<double> yc(static_cast<std::size_t>(nd.rank), 0.0);
    for (index_t j = 0; j < p; ++j) {
      if (j == i) continue;
      const Matrix& s = i > j ? coupling(i, j) : coupling(j, i);
      if (s.empty()) continue;
      const auto& xj = xc[static_cast<std::size_t>(j)];
      la::gemv(1.0, la::F64Block(s).view(), i > j ? la::Trans::No : la::Trans::Yes,
               xj.data(), 1.0, yc.data());
    }
    la::gemv(1.0, la::F64Block(nd.basis).view(), la::Trans::No, yc.data(), 1.0,
             y.data() + nd.begin);
  }
}

Matrix BLR2Matrix::dense() const {
  Matrix a(n_, n_);
  const index_t p = num_blocks();
  for (index_t i = 0; i < p; ++i) {
    const Node& ni = node(i);
    la::copy(ni.diag.view(), a.block(ni.begin, ni.begin, ni.block_size(), ni.block_size()));
    for (index_t j = 0; j < i; ++j) {
      const Node& nj = node(j);
      const Matrix& s = coupling(i, j);
      Matrix us = la::matmul(la::F64Block(ni.basis).view(), la::F64Block(s).view());
      Matrix lower = la::matmul(us.view(), la::F64Block(nj.basis).view(),
                                la::Trans::No, la::Trans::Yes);
      la::copy(lower.view(), a.block(ni.begin, nj.begin, ni.block_size(), nj.block_size()));
      Matrix upper = la::transpose(lower.view());
      la::copy(upper.view(), a.block(nj.begin, ni.begin, nj.block_size(), ni.block_size()));
    }
  }
  return a;
}

std::int64_t BLR2Matrix::memory_bytes() const {
  std::int64_t total = 0;
  for (const auto& nd : nodes_) total += nd.basis.bytes() + nd.diag.bytes();
  for (const auto& s : couplings_) total += s.bytes();
  return total;
}

std::int64_t BLR2Matrix::lowrank_bytes() const {
  std::int64_t total = 0;
  for (const auto& nd : nodes_) total += nd.basis.bytes();
  for (const auto& s : couplings_) total += s.bytes();
  return total;
}

void BLR2Matrix::demote_lowrank() {
  for (auto& nd : nodes_) nd.basis.demote_storage();
  for (auto& s : couplings_) s.demote_storage();
  mixed_ = true;
}

BLR2Matrix build_blr2(const BlockAccessor& acc, const HSSOptions& opts) {
  const index_t n = acc.size();
  const index_t p = (n + opts.leaf_size - 1) / opts.leaf_size;
  BLR2Matrix m(n, p);

  // Even partition into p blocks (sizes differ by at most one).
  for (index_t i = 0; i < p; ++i) {
    m.node(i).begin = i * n / p;
    m.node(i).end = (i + 1) * n / p;
  }

  Rng rng(opts.seed);
  for (index_t i = 0; i < p; ++i) {
    auto& nd = m.node(i);
    const index_t b = nd.block_size();
    nd.diag = acc.block(nd.begin, nd.begin, b, b);

    // Basis of the off-diagonal block row, exactly as Eq. (2): pivoted QR of
    // the (sampled) row block.
    std::vector<index_t> rows(static_cast<std::size_t>(b));
    for (index_t r = 0; r < b; ++r) rows[static_cast<std::size_t>(r)] = nd.begin + r;
    std::vector<index_t> cols;
    const index_t comp = n - b;
    if (opts.sample_cols == 0 || opts.sample_cols >= comp) {
      cols.reserve(static_cast<std::size_t>(comp));
      for (index_t j = 0; j < nd.begin; ++j) cols.push_back(j);
      for (index_t j = nd.end; j < n; ++j) cols.push_back(j);
    } else {
      std::unordered_set<index_t> chosen;
      while (static_cast<index_t>(chosen.size()) < opts.sample_cols) {
        index_t j = rng.index(comp);
        if (j >= nd.begin) j += b;
        chosen.insert(j);
      }
      cols.assign(chosen.begin(), chosen.end());
      std::sort(cols.begin(), cols.end());
    }
    Matrix f = acc.gather(rows, cols);
    const double abs_tol = opts.tol > 0.0 ? opts.tol * la::norm_fro(f.view()) : 0.0;
    auto pq = la::pivoted_qr(f.view(), opts.max_rank, abs_tol);
    nd.basis = pq.q();
    nd.rank = pq.rank;
  }

  // Exact skeleton couplings S_ij = U_iᵀ A_ij U_j for the strict lower part.
  for (index_t i = 0; i < p; ++i) {
    const auto& ni = m.node(i);
    for (index_t j = 0; j < i; ++j) {
      const auto& nj = m.node(j);
      Matrix aij = acc.block(ni.begin, nj.begin, ni.block_size(), nj.block_size());
      Matrix tmp = la::matmul(ni.basis.view(), aij.view(), la::Trans::Yes, la::Trans::No);
      m.coupling(i, j) = la::matmul(tmp.view(), nj.basis.view());
    }
  }
  // Construction is pure FP64; demotion is a single pass over the finished
  // matrix (same policy as the HSS builders).
  if (opts.precision == PrecisionMode::MixedFP32) m.demote_lowrank();
  return m;
}

}  // namespace hatrix::fmt
