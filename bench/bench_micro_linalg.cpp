// Micro-benchmarks of the dense kernels behind every factorization, plus
// the cost-model calibration data (the sustained flop rate the simulator's
// CostModel::calibrated() would pick on this host). Self-timed — each case
// repeats until it has accumulated enough wall time for a stable average —
// and the results land in BENCH_linalg.json next to the solve-throughput
// numbers so kernel regressions show up in version control. The Green's-
// function kernels are rated too, in nanoseconds per evaluated entry.
//
//   ./bench_micro_linalg [--min-time 0.2] [--json BENCH_linalg.json] [--csv]
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "format/accessor.hpp"
#include "geometry/domain.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "lowrank/compress.hpp"

namespace {

using namespace hatrix;
using la::Matrix;

struct Case {
  std::string name;
  la::index_t n = 0;
  double seconds_per_iter = 0.0;
  std::int64_t iterations = 0;
  double gflops = 0.0;        ///< 0 when no flop count applies
  double ns_per_entry = 0.0;  ///< kernel-evaluation rows only
  std::string shape;          ///< operand shape when `n` alone does not give it
};

/// Run `body` repeatedly until `min_time` seconds have accumulated (at least
/// 3 iterations), returning the average seconds per iteration.
Case timed(const std::string& name, la::index_t n, double flops_per_iter,
           double min_time, const std::function<void()>& body) {
  body();  // warm-up (first touch, page faults)
  WallTimer timer;
  std::int64_t iters = 0;
  do {
    body();
    ++iters;
  } while ((timer.seconds() < min_time || iters < 3) && iters < 1000000);
  Case c;
  c.name = name;
  c.n = n;
  c.iterations = iters;
  c.seconds_per_iter = timer.seconds() / static_cast<double>(iters);
  if (flops_per_iter > 0.0) c.gflops = flops_per_iter / c.seconds_per_iter / 1e9;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double min_time = cli.get_double("min-time", 0.2);
  const std::string json_path = cli.get_string("json", "BENCH_linalg.json");
  const bool csv = cli.has("csv");
  cli.reject_unknown();

  std::vector<Case> cases;

  for (la::index_t n : {64, 128, 256}) {
    Rng rng(1);
    Matrix a = Matrix::random_normal(rng, n, n);
    Matrix b = Matrix::random_normal(rng, n, n);
    Matrix c(n, n);
    cases.push_back(timed("gemm", n, 2.0 * n * n * n, min_time, [&] {
      la::gemm(1.0, a.view(), la::Trans::No, b.view(), la::Trans::No, 0.0, c.view());
    }));
  }

  // Tall-skinny panel products: the m x r (r = rank) basis updates that
  // dominate the HSS build and ULV sweeps. Small inner dimension, so these
  // measure the packing overhead the square cases amortize away.
  for (la::index_t m : {1024, 4096}) {
    const la::index_t r = 40, k = 40;
    Rng rng(7);
    Matrix a = Matrix::random_normal(rng, m, k);
    Matrix b = Matrix::random_normal(rng, k, r);
    Matrix c(m, r);
    cases.push_back(timed("gemm_tall", m, 2.0 * m * r * k, min_time, [&] {
      la::gemm(1.0, a.view(), la::Trans::No, b.view(), la::Trans::No, 0.0, c.view());
    }));
  }

  // FP32 gemm: the storage precision of mixed-mode low-rank blocks. Twice
  // the lanes per vector register, so the target is ~2x the FP64 rate.
  for (la::index_t n : {64, 256}) {
    Rng rng(8);
    Matrix ad = Matrix::random_normal(rng, n, n);
    Matrix bd = Matrix::random_normal(rng, n, n);
    la::MatrixF a(n, n), b(n, n), c(n, n);
    for (la::index_t j = 0; j < n; ++j)
      for (la::index_t i = 0; i < n; ++i) {
        a(i, j) = static_cast<float>(ad(i, j));
        b(i, j) = static_cast<float>(bd(i, j));
      }
    cases.push_back(timed("gemm_f32", n, 2.0 * n * n * n, min_time, [&] {
      la::gemm(1.0F, a.view(), la::Trans::No, b.view(), la::Trans::No, 0.0F,
               c.view());
    }));
  }

  for (la::index_t n : {64, 128, 256, 512}) {
    Rng rng(2);
    Matrix a = Matrix::random_spd(rng, n);
    cases.push_back(timed("potrf", n, n * n * n / 3.0, min_time, [&] {
      Matrix work = Matrix::from_view(a.view());
      la::potrf(work.view());
    }));
  }

  {
    const la::index_t n = 256;
    Rng rng(9);
    Matrix ad = Matrix::random_spd(rng, n);
    la::MatrixF a(n, n);
    for (la::index_t j = 0; j < n; ++j)
      for (la::index_t i = 0; i < n; ++i) a(i, j) = static_cast<float>(ad(i, j));
    la::MatrixF work(n, n);
    cases.push_back(timed("potrf_f32", n, n * n * n / 3.0, min_time, [&] {
      for (la::index_t j = 0; j < n; ++j)
        for (la::index_t i = 0; i < n; ++i) work(i, j) = a(i, j);
      la::potrf(work.view());
    }));
  }

  // syrk: the Schur-complement update of every partial factorization.
  for (la::index_t n : {64, 128, 256}) {
    Rng rng(10);
    Matrix a = Matrix::random_normal(rng, n, n);
    Matrix c(n, n);
    cases.push_back(timed("syrk", n, 2.0 * n * n * n, min_time, [&] {
      la::syrk(1.0, a.view(), la::Trans::No, 0.0, c.view());
    }));
  }

  for (la::index_t n : {128, 256, 512}) {
    Rng rng(3);
    Matrix a = Matrix::random_spd(rng, n);
    la::potrf(a.view());
    Matrix b = Matrix::random_normal(rng, n, n);
    cases.push_back(timed("trsm", n, static_cast<double>(n) * n * n, min_time, [&] {
      Matrix x = Matrix::from_view(b.view());
      la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::No, la::Diag::NonUnit,
               1.0, a.view(), x.view());
    }));
  }

  // The ULV panel solve's triangular solves: L_RR (order m - k) against a
  // 64-column panel, forward (NoTrans) and backward (Trans), at the
  // yukawa_fine (leaf 64, rank 16) and yukawa_coarse (leaf 256, rank 80)
  // shapes.
  for (const auto& [name, trans] :
       {std::pair{"trsm_fwd", la::Trans::No}, std::pair{"trsm_bwd", la::Trans::Yes}}) {
    for (la::index_t n : {48, 176}) {
      const la::index_t rhs = 64;
      Rng rng(13);
      Matrix l = Matrix::random_spd(rng, n);
      la::potrf(l.view());
      Matrix b = Matrix::random_normal(rng, n, rhs);
      Matrix x(n, rhs);
      cases.push_back(timed(name, n, static_cast<double>(n) * n * rhs, min_time, [&] {
        la::copy(b.view(), x.view());
        la::trsm(la::Side::Left, la::UpLo::Lower, trans, la::Diag::NonUnit, 1.0,
                 l.view(), x.view());
      }));
      cases.back().shape = std::to_string(n) + "x" + std::to_string(rhs) +
                           (trans == la::Trans::No ? " L-N" : " L-T");
    }
  }

  // The QR family at the pipeline's shapes (leaf 256, rank 80, 512
  // samples): `qr` orthonormalizes a leaf's (256 x 80) and a merged node's
  // (160 x 80) interpolation factor, `orth_complement` is the ULV
  // diag_product's complement of a 256 x 80 basis, and `pivoted_qr` is the
  // row ID of a 512 x 256 sample block truncated at rank 80. Rates use the
  // nominal Householder counts (k reflectors on an r x c block:
  // 4rck - 2(r + c)k^2 + 4k^3/3, plus forming Q where one is returned).
  for (la::index_t m : {256, 160}) {
    const double k = 80.0, md = static_cast<double>(m);
    Rng rng(4);
    Matrix a = Matrix::random_normal(rng, m, 80);
    cases.push_back(timed("qr", m, 4 * md * k * k - 4 * k * k * k / 3, min_time,
                          [&] { auto f = la::qr(a.view()); }));
    cases.back().shape = std::to_string(m) + "x80";
  }
  {
    const double m = 256.0, k = 80.0;
    Rng rng(11);
    Matrix u = la::qr(Matrix::random_normal(rng, 256, 80).view()).q;
    cases.push_back(timed("orth_complement", 256,
                          2 * m * k * k - 2 * k * k * k / 3 + 4 * m * k * (m - k),
                          min_time, [&] { Matrix c = la::orth_complement(u.view()); }));
    cases.back().shape = "256x80";
  }
  {
    const double s = 512.0, m = 256.0, k = 80.0;
    Rng rng(12);
    Matrix a = Matrix::random_normal(rng, 512, 256);
    cases.push_back(timed("pivoted_qr", 256,
                          4 * s * m * k - 2 * (s + m) * k * k + 4 * k * k * k / 3,
                          min_time, [&] { auto f = la::pivoted_qr(a.view(), 80, 0.0); }));
    cases.back().shape = "512x256 k=80";
  }

  // Kernel evaluation at the builder's gather shape: a 256-row leaf against
  // a 512-column far-field sample, over scattered sites (the kriging
  // geometry), through the same KernelAccessor::gather the builder calls.
  for (const char* kname : {"yukawa", "matern"}) {
    const la::index_t rows = 256, cols = 512;
    Rng rng(14);
    const geom::Domain d = geom::random2d(2048, rng);
    const auto kernel = kernels::make_kernel(kname);
    const kernels::KernelMatrix km(*kernel, d.points);
    const fmt::KernelAccessor acc(km);
    std::vector<la::index_t> ri(static_cast<std::size_t>(rows));
    std::vector<la::index_t> ci(static_cast<std::size_t>(cols));
    for (la::index_t i = 0; i < rows; ++i) ri[static_cast<std::size_t>(i)] = i;
    for (la::index_t j = 0; j < cols; ++j) ci[static_cast<std::size_t>(j)] = rows + 3 * j;
    cases.push_back(timed(std::string("kernel_") + kname, rows, 0.0, min_time,
                          [&] { Matrix f = acc.gather(ri, ci); }));
    cases.back().ns_per_entry =
        cases.back().seconds_per_iter / static_cast<double>(rows * cols) * 1e9;
    cases.back().shape = "256x512 gather";
  }

  for (la::index_t n : {32, 64, 128}) {
    Rng rng(5);
    Matrix a = Matrix::random_normal(rng, n, n);
    cases.push_back(
        timed("svd", n, 0.0, min_time, [&] { auto f = la::svd(a.view()); }));
  }

  for (la::index_t n : {256, 1024}) {
    Rng rng(6);
    lr::LowRank a(Matrix::random_normal(rng, n, 32), Matrix::random_normal(rng, n, 32));
    lr::LowRank b(Matrix::random_normal(rng, n, 32), Matrix::random_normal(rng, n, 32));
    cases.push_back(timed("lr_add_round", n, 0.0, min_time, [&] {
      auto s = lr::lr_add_round(1.0, a, -1.0, b, 32, 1e-10);
    }));
  }

  TextTable table({"kernel", "n", "us/iter", "iters", "GFLOP/s", "ns/entry"});
  BenchJson json("micro_linalg");
  for (const auto& c : cases) {
    table.add_row({c.name, std::to_string(c.n),
                   fmt_fixed(c.seconds_per_iter * 1e6, 1),
                   std::to_string(c.iterations),
                   c.gflops > 0.0 ? fmt_fixed(c.gflops, 2) : "-",
                   c.ns_per_entry > 0.0 ? fmt_fixed(c.ns_per_entry, 2) : "-"});
    auto& row = json.row()
                    .add("kernel", c.name)
                    .add("n", static_cast<std::int64_t>(c.n))
                    .add("seconds_per_iter", c.seconds_per_iter)
                    .add("iterations", c.iterations)
                    .add("gflops", c.gflops);
    if (c.ns_per_entry > 0.0) row.add("ns_per_entry", c.ns_per_entry);
    if (!c.shape.empty()) row.add("shape", c.shape);
  }
  std::printf("%s\n", csv ? table.to_csv().c_str() : table.to_string().c_str());
  if (!json_path.empty()) {
    if (json.write(json_path))
      std::printf("wrote %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
  }
  return 0;
}
