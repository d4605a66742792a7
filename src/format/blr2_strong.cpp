#include "format/blr2_strong.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"

namespace hatrix::fmt {

StrongBLR2Matrix::StrongBLR2Matrix(index_t n, index_t num_blocks) : n_(n) {
  HATRIX_CHECK(n > 0 && num_blocks > 0 && num_blocks <= n,
               "bad StrongBLR2 dimensions");
  nodes_.resize(static_cast<std::size_t>(num_blocks));
  const std::size_t pairs =
      static_cast<std::size_t>(num_blocks * (num_blocks - 1) / 2);
  admissible_.assign(pairs, false);
  couplings_.resize(pairs);
  near_.resize(pairs);
}

std::size_t StrongBLR2Matrix::pair_index(index_t i, index_t j) const {
  HATRIX_CHECK(i > j && i < num_blocks() && j >= 0, "pair wants i > j");
  return static_cast<std::size_t>(i * (i - 1) / 2 + j);
}

StrongBLR2Matrix::Node& StrongBLR2Matrix::node(index_t i) {
  HATRIX_CHECK(i >= 0 && i < num_blocks(), "node out of range");
  return nodes_[static_cast<std::size_t>(i)];
}

const StrongBLR2Matrix::Node& StrongBLR2Matrix::node(index_t i) const {
  return const_cast<StrongBLR2Matrix*>(this)->node(i);
}

bool StrongBLR2Matrix::admissible(index_t i, index_t j) const {
  if (i == j) return false;
  return admissible_[pair_index(std::max(i, j), std::min(i, j))];
}

void StrongBLR2Matrix::set_admissible(index_t i, index_t j, bool value) {
  admissible_[pair_index(std::max(i, j), std::min(i, j))] = value;
}

Matrix& StrongBLR2Matrix::coupling(index_t i, index_t j) {
  return couplings_[pair_index(i, j)];
}

const Matrix& StrongBLR2Matrix::coupling(index_t i, index_t j) const {
  return couplings_[pair_index(i, j)];
}

Matrix& StrongBLR2Matrix::near_block(index_t i, index_t j) {
  return near_[pair_index(i, j)];
}

const Matrix& StrongBLR2Matrix::near_block(index_t i, index_t j) const {
  return near_[pair_index(i, j)];
}

void StrongBLR2Matrix::matvec(const std::vector<double>& x,
                              std::vector<double>& y) const {
  HATRIX_CHECK(static_cast<index_t>(x.size()) == n_, "matvec dimension mismatch");
  y.assign(static_cast<std::size_t>(n_), 0.0);
  const index_t p = num_blocks();

  std::vector<std::vector<double>> xc(static_cast<std::size_t>(p));
  for (index_t i = 0; i < p; ++i) {
    const Node& nd = node(i);
    xc[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(nd.rank), 0.0);
    // F64Block promotes FP32-demoted far-field data on the fly (free for
    // FP64 storage); diagonals and near-field blocks are always FP64.
    if (nd.rank > 0)
      la::gemv(1.0, la::F64Block(nd.basis).view(), la::Trans::Yes,
               x.data() + nd.begin, 0.0, xc[static_cast<std::size_t>(i)].data());
  }

  for (index_t i = 0; i < p; ++i) {
    const Node& ni = node(i);
    la::gemv(1.0, ni.diag.view(), la::Trans::No, x.data() + ni.begin, 1.0,
             y.data() + ni.begin);
    std::vector<double> yc(static_cast<std::size_t>(ni.rank), 0.0);
    for (index_t j = 0; j < p; ++j) {
      if (j == i) continue;
      const Node& nj = node(j);
      if (admissible(i, j)) {
        const Matrix& s = i > j ? coupling(i, j) : coupling(j, i);
        if (s.empty()) continue;
        la::gemv(1.0, la::F64Block(s).view(), i > j ? la::Trans::No : la::Trans::Yes,
                 xc[static_cast<std::size_t>(j)].data(), 1.0, yc.data());
      } else {
        const Matrix& d = i > j ? near_block(i, j) : near_block(j, i);
        if (d.empty()) continue;
        la::gemv(1.0, d.view(), i > j ? la::Trans::No : la::Trans::Yes,
                 x.data() + nj.begin, 1.0, y.data() + ni.begin);
      }
    }
    if (ni.rank > 0)
      la::gemv(1.0, la::F64Block(ni.basis).view(), la::Trans::No, yc.data(),
               1.0, y.data() + ni.begin);
  }
}

Matrix StrongBLR2Matrix::dense() const {
  Matrix a(n_, n_);
  const index_t p = num_blocks();
  for (index_t i = 0; i < p; ++i) {
    const Node& ni = node(i);
    la::copy(ni.diag.view(),
             a.block(ni.begin, ni.begin, ni.block_size(), ni.block_size()));
    for (index_t j = 0; j < i; ++j) {
      const Node& nj = node(j);
      Matrix lower;
      if (admissible(i, j)) {
        Matrix us = la::matmul(la::F64Block(ni.basis).view(),
                               la::F64Block(coupling(i, j)).view());
        lower = la::matmul(us.view(), la::F64Block(nj.basis).view(),
                           la::Trans::No, la::Trans::Yes);
      } else {
        lower = Matrix::from_view(near_block(i, j).view());
      }
      la::copy(lower.view(),
               a.block(ni.begin, nj.begin, ni.block_size(), nj.block_size()));
      Matrix upper = la::transpose(lower.view());
      la::copy(upper.view(),
               a.block(nj.begin, ni.begin, nj.block_size(), ni.block_size()));
    }
  }
  return a;
}

std::int64_t StrongBLR2Matrix::memory_bytes() const {
  std::int64_t total = 0;
  for (const auto& nd : nodes_) total += nd.basis.bytes() + nd.diag.bytes();
  for (const auto& s : couplings_) total += s.bytes();
  for (const auto& d : near_) total += d.bytes();
  return total;
}

std::int64_t StrongBLR2Matrix::lowrank_bytes() const {
  std::int64_t total = 0;
  for (const auto& nd : nodes_) total += nd.basis.bytes();
  for (const auto& s : couplings_) total += s.bytes();
  return total;
}

void StrongBLR2Matrix::demote_lowrank() {
  for (auto& nd : nodes_) nd.basis.demote_storage();
  for (auto& s : couplings_) s.demote_storage();
  mixed_ = true;
}

double StrongBLR2Matrix::admissible_fraction() const {
  if (admissible_.empty()) return 0.0;
  std::size_t count = 0;
  for (bool a : admissible_)
    if (a) ++count;
  return static_cast<double>(count) / static_cast<double>(admissible_.size());
}

StrongBLR2Matrix build_strong_blr2(const BlockAccessor& acc,
                                   const geom::ClusterTree& tree,
                                   const HSSOptions& opts, double eta) {
  const index_t n = acc.size();
  HATRIX_CHECK(tree.size() == n, "tree/accessor size mismatch");
  const int L = tree.max_level();
  const index_t p = tree.num_nodes(L);
  StrongBLR2Matrix m(n, p);

  for (index_t i = 0; i < p; ++i) {
    m.node(i).begin = tree.node(L, i).begin;
    m.node(i).end = tree.node(L, i).end;
  }

  // Geometric admissibility pattern.
  for (index_t i = 0; i < p; ++i)
    for (index_t j = 0; j < i; ++j)
      m.set_admissible(i, j, geom::strongly_admissible(tree, L, i, j, eta));

  // Bases from the admissible (far-field) columns of each block row.
  for (index_t i = 0; i < p; ++i) {
    auto& nd = m.node(i);
    const index_t b = nd.block_size();
    nd.diag = acc.block(nd.begin, nd.begin, b, b);

    std::vector<index_t> rows(static_cast<std::size_t>(b));
    for (index_t r = 0; r < b; ++r) rows[static_cast<std::size_t>(r)] = nd.begin + r;
    std::vector<index_t> cols;
    for (index_t j = 0; j < p; ++j) {
      if (j == i || !m.admissible(i, j)) continue;
      for (index_t c = m.node(j).begin; c < m.node(j).end; ++c) cols.push_back(c);
    }
    if (cols.empty()) {
      nd.rank = 0;
      nd.basis = Matrix(b, 0);
      continue;
    }
    Matrix f = acc.gather(rows, cols);
    const double abs_tol = opts.tol > 0.0 ? opts.tol * la::norm_fro(f.view()) : 0.0;
    auto pq = la::pivoted_qr(f.view(), opts.max_rank, abs_tol);
    nd.basis = pq.q();
    nd.rank = pq.rank;
  }

  // Couplings on admissible pairs, dense storage on the near field.
  for (index_t i = 0; i < p; ++i) {
    const auto& ni = m.node(i);
    for (index_t j = 0; j < i; ++j) {
      const auto& nj = m.node(j);
      Matrix aij = acc.block(ni.begin, nj.begin, ni.block_size(), nj.block_size());
      if (m.admissible(i, j)) {
        Matrix tmp = la::matmul(ni.basis.view(), aij.view(), la::Trans::Yes,
                                la::Trans::No);
        m.coupling(i, j) = la::matmul(tmp.view(), nj.basis.view());
      } else {
        m.near_block(i, j) = std::move(aij);
      }
    }
  }
  if (opts.precision == PrecisionMode::MixedFP32) m.demote_lowrank();
  return m;
}

}  // namespace hatrix::fmt
