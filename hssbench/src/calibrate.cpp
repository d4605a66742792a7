#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace hssbench {

namespace {

using hatrix::la::Matrix;
namespace la = hatrix::la;

// Median seconds per call of `fn`, over at least three calls and at least
// `min_seconds` of calls.
double median_call_seconds(const std::function<void()>& fn, double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::vector<double> t;
  const auto start = clock::now();
  while (t.size() < 3 ||
         std::chrono::duration<double>(clock::now() - start).count() < min_seconds) {
    const auto t0 = clock::now();
    fn();
    t.push_back(std::chrono::duration<double>(clock::now() - t0).count());
  }
  std::nth_element(t.begin(), t.begin() + static_cast<long>(t.size() / 2), t.end());
  return t[t.size() / 2];
}

// Orthonormal m x k block (the shape of a node basis).
Matrix orthonormal(hatrix::Rng& rng, la::index_t m, la::index_t k) {
  return la::qr(Matrix::random_normal(rng, m, k).view()).q;
}

}  // namespace

std::map<std::string, double> calibrate(const CalibShapes& shapes, double min_seconds,
                                        SpanRecorder* rec) {
  const double m = static_cast<double>(shapes.leaf);
  const double k = static_cast<double>(shapes.rank);
  const double s = static_cast<double>(shapes.samples);
  const la::index_t mi = shapes.leaf, ki = shapes.rank, si = shapes.samples;
  hatrix::Rng rng(2023);

  // Nominal flop counts (Householder QR with k reflectors on an r x c block:
  // 4rck - 2(r + c)k^2 + 4k^3/3).
  const double f_pivoted_qr = 4 * s * m * k - 2 * (s + m) * k * k + 4 * k * k * k / 3;
  const double f_qr = 4 * m * k * k - 4 * k * k * k / 3;  // R plus explicit Q
  const double f_orth = 2 * m * k * k - 2 * k * k * k / 3 + 4 * m * k * (m - k);
  const double f_gemm = 2 * m * m * m;
  const double f_potrf = (m - k) * (m - k) * (m - k) / 3;
  const double f_trsm = k * (m - k) * (m - k);

  const Matrix sample = Matrix::random_normal(rng, si, mi);
  const Matrix tall = Matrix::random_normal(rng, mi, ki);
  const Matrix basis = orthonormal(rng, mi, ki);
  const Matrix ga = Matrix::random_normal(rng, mi, mi);
  const Matrix gb = Matrix::random_normal(rng, mi, mi);
  const Matrix spd = Matrix::random_spd(rng, mi - ki);
  Matrix lower = Matrix::from_view(spd.view());
  la::potrf(lower.view());
  const Matrix rhs = Matrix::random_normal(rng, ki, mi - ki);

  struct Case {
    const char* name;
    double flops;
    std::function<void()> call;
  };
  const std::vector<Case> cases = {
      {"pivoted_qr", f_pivoted_qr, [&] { (void)la::pivoted_qr(sample.view(), ki); }},
      {"qr", f_qr, [&] { (void)la::qr(tall.view()); }},
      {"orth_complement", f_orth, [&] { (void)la::orth_complement(basis.view()); }},
      {"gemm", f_gemm,
       [&] {
         Matrix c(mi, mi);
         la::gemm(1.0, ga.view(), la::Trans::No, gb.view(), la::Trans::No, 0.0, c.view());
       }},
      {"potrf", f_potrf,
       [&] {
         Matrix a = Matrix::from_view(spd.view());
         la::potrf(a.view());
       }},
      {"trsm", f_trsm,
       [&] {
         Matrix b = Matrix::from_view(rhs.view());
         la::trsm(la::Side::Right, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit,
                  1.0, lower.view(), b.view());
       }},
  };

  std::map<std::string, double> rates;
  for (const auto& c : cases) {
    ScopedSpan span(rec, std::string("calibrate.") + c.name, Layer::Linalg);
    rates[c.name] = c.flops / median_call_seconds(c.call, min_seconds) / 1e9;
  }
  return rates;
}

}  // namespace hssbench
