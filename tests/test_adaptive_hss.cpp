// Tests for the adaptive (guarded) HSS construction: the adaptive low-rank
// compressors, the accuracy guard's probe, the typed under-resolution
// error, the construction task graph, and sequential/parallel equivalence.
// The full-scale N=8192 regression lives in test_hss_guard_regression.cpp
// (slow label).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "lowrank/adaptive.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

TEST(AdaptiveRsvd, DiscoversRankAndMeetsTolerance) {
  Rng rng(17);
  // Exactly rank-12 matrix plus noise well below the tolerance.
  Matrix u = Matrix::random_normal(rng, 120, 12);
  Matrix v = Matrix::random_normal(rng, 90, 12);
  Matrix a = la::matmul(u.view(), v.view(), la::Trans::No, la::Trans::Yes);
  auto res = lr::rsvd_adaptive(a.view(), 64, 1e-8, rng);
  EXPECT_LE(res.lr.rank(), 40);  // did not blow through the budget
  EXPECT_GE(res.lr.rank(), 12);
  EXPECT_LT(lr::approx_error(res.lr, a.view()), 1e-7);
  EXPECT_LE(res.residual, 1e-8);
}

TEST(AdaptiveRsvd, ReportsResidualWhenRankCapped) {
  Rng rng(18);
  // Full-rank random matrix, cap far below: the probe must report failure.
  Matrix a = Matrix::random_normal(rng, 80, 80);
  auto res = lr::rsvd_adaptive(a.view(), 10, 1e-10, rng);
  EXPECT_EQ(res.lr.rank(), 10);
  EXPECT_GT(res.residual, 1e-3);  // honest: tolerance was not reached
}

TEST(AdaptiveAca, ProbeVerifiedResidual) {
  geom::Domain d = geom::grid2d(400);
  auto kernel = kernels::make_kernel("yukawa");
  kernels::KernelMatrix km(*kernel, d.points);
  // Off-diagonal block [0,100) x [200, 400): admissible, low rank.
  lr::EntryFn entry = [&](index_t i, index_t j) { return km.entry(i, 200 + j); };
  Rng rng(19);
  auto res = lr::aca_adaptive(entry, 100, 200, 60, 1e-6, rng);
  Matrix ref(100, 200);
  for (index_t i = 0; i < 100; ++i)
    for (index_t j = 0; j < 200; ++j) ref(i, j) = entry(i, j);
  EXPECT_LT(lr::approx_error(res.lr, ref.view()), 1e-5);
  EXPECT_LE(res.residual, 1e-6);
}

TEST(InterpResidual, ExactInterpolationIsZero) {
  Rng rng(20);
  Matrix p = Matrix::random_normal(rng, 6, 9);
  // X = identity, sel = all rows: interpolation reproduces P exactly.
  Matrix x = Matrix::identity(6);
  std::vector<index_t> sel{0, 1, 2, 3, 4, 5};
  EXPECT_NEAR(lr::interp_residual(p.view(), x.view(), sel), 0.0, 1e-14);
  // Empty selection: residual is 1 (nothing explained).
  EXPECT_NEAR(lr::interp_residual(p.view(), Matrix(6, 0).view(), {}), 1.0, 1e-14);
}

// Shared kernel-matrix fixture on a tree-ordered geometry.
struct Problem {
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  Problem(index_t n, index_t leaf, const std::string& kname,
          double nugget = 0.0, bool scattered = false, std::uint64_t seed = 11) {
    geom::Domain domain;
    if (scattered) {
      Rng rng(seed);
      domain = geom::random2d(n, rng);
    } else {
      domain = geom::grid2d(n);
    }
    tree = std::make_unique<geom::ClusterTree>(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points(), nugget);
  }
};

TEST(GuardedBuild, SmoothKernelPassesWithoutGrowth) {
  Problem p(2048, 256, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc,
      {.leaf_size = 256, .max_rank = 40, .sample_cols = 400, .guard_tol = 1e-4},
      graph);
  for (const auto& t : graph.tasks()) t.work();
  auto rep = fmt::build_report(dag);
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);
  // The smooth kernel is well captured by the initial sample: the guard
  // should accept everywhere without (much) growth, and accuracy holds.
  EXPECT_LE(rep.total_growths, 2);
  EXPECT_LE(rep.worst_residual, 1e-4);
  Matrix a = p.km->dense();
  EXPECT_LT(la::rel_error(a.view(), h.dense().view()), 1e-4);
}

TEST(GuardedBuild, GrowthTriggersOnShortCorrelationMatern) {
  // Scattered sites + short correlation: the fixed sample misses near-range
  // interactions; the guard must detect it and grow the sample.
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc,
      {.leaf_size = 256, .max_rank = 60, .sample_cols = 128, .guard_tol = 1e-4},
      graph);
  for (const auto& t : graph.tasks()) t.work();
  auto rep = fmt::build_report(dag);
  EXPECT_GT(rep.total_growths, 0);
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);
  EXPECT_GT(rep.max_samples, 128);
  EXPECT_EQ(h.size(), 2048);
}

TEST(GuardedBuild, TypedErrorWhenCapReached) {
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  try {
    fmt::HSSMatrix h = fmt::build_hss(
        acc, {.leaf_size = 256, .max_rank = 60, .sample_cols = 64,
              .guard_tol = 1e-8, .max_sample_cols = 128});
    FAIL() << "expected BasisUnderResolvedError";
  } catch (const fmt::BasisUnderResolvedError& e) {
    EXPECT_GE(e.sample_cols(), 64);
    EXPECT_GT(e.residual(), e.tol());
    EXPECT_DOUBLE_EQ(e.tol(), 1e-8);
    EXPECT_NE(std::string(e.what()).find("under-resolved"), std::string::npos);
  }
}

TEST(GuardedBuild, TypedErrorPropagatesThroughExecutor) {
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  EXPECT_THROW(
      fmt::build_hss_parallel(acc,
                              {.leaf_size = 256, .max_rank = 60, .sample_cols = 64,
                               .guard_tol = 1e-8, .max_sample_cols = 128},
                              4),
      fmt::BasisUnderResolvedError);
}

TEST(GuardedBuild, RankEscapeLiftsRankPastCapWhenFloorBinds) {
  // max_rank far below what the matern blocks need: the probe residual pins
  // at the rank-truncation floor no matter how many columns are sampled.
  // With the escape enabled the guard raises the offending nodes' rank caps
  // and the build succeeds; with it disabled the same configuration runs the
  // sample to its cap and throws.
  Problem p(2048, 256, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  const fmt::HSSOptions opts{.leaf_size = 256, .max_rank = 20,
                             .sample_cols = 256, .guard_tol = 1e-4,
                             .max_sample_cols = 1024};

  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(acc, opts, graph);
  for (const auto& t : graph.tasks()) t.work();
  auto rep = fmt::build_report(dag);
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);

  EXPECT_GT(rep.rank_escapes, 0);
  EXPECT_GT(h.max_rank_used(), opts.max_rank);
  // The guard's decisions, recorded from the build that re-ran the row ID at
  // every rung of the escape ladder: computing only the last rung must not
  // change any of them.
  EXPECT_EQ(rep.rank_escapes, 39);
  EXPECT_EQ(rep.total_growths, 28);
  EXPECT_EQ(rep.max_samples, 1120);
  EXPECT_EQ(h.max_rank_used(), 240);
  // The escaped build must actually deliver guard-level accuracy.
  Matrix a = p.km->dense();
  EXPECT_LT(la::rel_error(a.view(), h.dense().view()), 1e-3);

  fmt::HSSOptions no_escape = opts;
  no_escape.rank_escape = false;
  EXPECT_THROW(fmt::build_hss(acc, no_escape), fmt::BasisUnderResolvedError);
}

TEST(ExactBuild, FullRankCapGivesIdentityBasesAndExactMatrix) {
  // Exact construction (no sampling) with a rank cap at or above every
  // node's row count: each row ID keeps all rows, so it is the identity and
  // the HSS matrix reproduces the dense operator to rounding.
  Problem p(512, 64, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  const fmt::HSSOptions opts{.leaf_size = 64, .max_rank = 256, .sample_cols = 0};
  fmt::HSSMatrix h = fmt::build_hss(acc, opts);

  const int leaf = h.max_level();
  for (index_t i = 0; i < h.num_nodes(leaf); ++i) {
    const auto& nd = h.node(leaf, i);
    ASSERT_EQ(nd.rank, nd.block_size());
    const Matrix eye = Matrix::identity(nd.block_size());
    for (index_t c = 0; c < nd.rank; ++c)
      for (index_t r = 0; r < nd.block_size(); ++r)
        ASSERT_EQ(nd.basis(r, c), eye(r, c)) << "leaf " << i;
  }
  Matrix a = p.km->dense();
  EXPECT_LE(la::rel_error(a.view(), h.dense().view()), 1e-12);
}

TEST(BuildDag, StructureMatchesTree) {
  Problem p(1024, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc, {.leaf_size = 128, .max_rank = 20}, graph);
  // L = 3: 8 leaf COMPRESS, 6 internal TRANSFER (levels 1-2), 7 MERGE_SAMPLE
  // couplings (levels 1-3).
  EXPECT_EQ(graph.num_tasks(), 8 + 6 + 7);
  // Longest chain: COMPRESS -> TRANSFER(2) -> TRANSFER(1) -> MERGE_SAMPLE(1).
  EXPECT_EQ(graph.critical_path_length(), 4);
  ASSERT_TRUE(dag.state != nullptr);
}

TEST(BuildDag, ParallelExecutionMatchesSequentialExactly) {
  Problem p(1024, 128, "matern", 1e-4, /*scattered=*/true);
  fmt::KernelAccessor acc(*p.km);
  const fmt::HSSOptions opts{.leaf_size = 128, .max_rank = 30,
                             .sample_cols = 200, .guard_tol = 1e-4};
  fmt::HSSMatrix seq = fmt::build_hss(acc, opts);
  fmt::HSSMatrix par = fmt::build_hss_parallel(acc, opts, 4);
  // Per-node deterministic sampling streams: the parallel build must be the
  // same matrix, independent of scheduling.
  EXPECT_EQ(seq.max_rank_used(), par.max_rank_used());
  EXPECT_LT(la::rel_error(seq.dense().view(), par.dense().view()), 1e-15);
}

TEST(BuildDag, TraceIsConsistentAcrossWorkers) {
  Problem p(1024, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  rt::TaskGraph graph;
  fmt::HSSBuildDag dag = fmt::emit_hss_build_dag(
      acc, {.leaf_size = 128, .max_rank = 20, .sample_cols = 200}, graph);
  rt::ThreadPoolExecutor ex(4);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  fmt::HSSMatrix h = fmt::extract_built_hss(dag);
  EXPECT_EQ(h.size(), 1024);
}

}  // namespace
}  // namespace hatrix
