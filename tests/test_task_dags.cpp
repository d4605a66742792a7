// Tests for the task-decomposed factorizations: the HSS-ULV DAG (Fig. 8)
// and the tile-Cholesky DAGs (Fig. 6 / LORAPO), executed through both the
// asynchronous and fork-join executors against the sequential references.
// HSS-ULV and BLR Cholesky must match their sequential factorizations bit
// for bit: those run the same DAGs in insertion order.
#include <gtest/gtest.h>

#include "blrchol/blr_cholesky_tasks.hpp"
#include "blrchol/tile_cholesky.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "runtime/fork_join_executor.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

struct Problem {
  geom::Domain domain;
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  Problem(index_t n, index_t leaf, const std::string& kname = "yukawa") {
    domain = geom::grid2d(n);
    tree = std::make_unique<geom::ClusterTree>(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points());
  }
};

/// Exact equality, entry for entry: the sequential factorization runs the
/// same DAG in insertion order, and every schedule computes each block with
/// the same operations in the same order.
void expect_same_bits(la::ConstMatrixView got, la::ConstMatrixView ref,
                      const std::string& what) {
  ASSERT_EQ(got.rows, ref.rows) << what;
  ASSERT_EQ(got.cols, ref.cols) << what;
  for (index_t j = 0; j < ref.cols; ++j)
    for (index_t i = 0; i < ref.rows; ++i)
      ASSERT_EQ(got(i, j), ref(i, j)) << what << " differs at (" << i << "," << j << ")";
}

void expect_same_factors(const fmt::HSSMatrix& h, const ulv::HSSULV& got,
                         const ulv::HSSULV& ref) {
  for (int l = h.max_level(); l >= 1; --l)
    for (index_t i = 0; i < h.num_nodes(l); ++i) {
      const std::string node = "(" + std::to_string(l) + "," + std::to_string(i) + ")";
      const auto& g = got.factor(l, i);
      const auto& r = ref.factor(l, i);
      expect_same_bits(g.q_comp.view(), r.q_comp.view(), "q_comp" + node);
      expect_same_bits(g.l_rr.view(), r.l_rr.view(), "l_rr" + node);
      expect_same_bits(g.l_sr.view(), r.l_sr.view(), "l_sr" + node);
    }
  expect_same_bits(got.root_factor().view(), ref.root_factor().view(), "root");
}

class HssUlvDagExec : public ::testing::TestWithParam<int> {};

TEST_P(HssUlvDagExec, MatchesSequentialFactorization) {
  const int workers = GetParam();
  Problem p(1024, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 40, .tol = 0.0});

  rt::TaskGraph graph;
  auto dag = ulv::emit_hss_ulv_dag(h, graph, /*with_work=*/true);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  auto f_tasks = ulv::extract_factorization(dag);

  auto f_seq = ulv::HSSULV::factorize(h);
  expect_same_factors(h, f_tasks, f_seq);
}

INSTANTIATE_TEST_SUITE_P(Workers, HssUlvDagExec, ::testing::Values(1, 2, 4));

TEST(HssUlvDag, ForkJoinExecutorSameResult) {
  Problem p(512, 64, "matern");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 25, .tol = 0.0});

  rt::TaskGraph graph;
  auto dag = ulv::emit_hss_ulv_dag(h, graph, true);
  rt::ForkJoinExecutor ex(2);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");
  auto f_tasks = ulv::extract_factorization(dag);

  auto f_seq = ulv::HSSULV::factorize(h);
  expect_same_factors(h, f_tasks, f_seq);
}

TEST(HssUlvDag, TaskCountIsLinearInNodes) {
  Problem p(2048, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(
      acc, {.leaf_size = 128, .max_rank = 20, .tol = 0.0, .sample_cols = 200});
  rt::TaskGraph graph;
  (void)ulv::emit_hss_ulv_dag(h, graph, false);
  // 2 tasks per node at levels L..1 + 1 merge per pair + root.
  std::int64_t expect = 0;
  for (int l = h.max_level(); l >= 1; --l)
    expect += 2 * h.num_nodes(l) + h.num_pairs(l);
  expect += 1;
  EXPECT_EQ(graph.num_tasks(), expect);
}

TEST(HssUlvDag, CriticalPathGrowsWithLevelsNotNodes) {
  // The HSS-ULV critical path is O(levels): diag->factor->merge per level.
  Problem p1(1024, 128, "yukawa");
  Problem p2(4096, 128, "yukawa");
  fmt::KernelAccessor a1(*p1.km), a2(*p2.km);
  fmt::HSSOptions opts{.leaf_size = 128, .max_rank = 15, .tol = 0.0,
                       .sample_cols = 150};
  auto h1 = fmt::build_hss(a1, opts);
  auto h2 = fmt::build_hss(a2, opts);
  rt::TaskGraph g1, g2;
  (void)ulv::emit_hss_ulv_dag(h1, g1, false);
  (void)ulv::emit_hss_ulv_dag(h2, g2, false);
  // 4x the nodes, only +2 levels: critical path grows by exactly 3 per level.
  EXPECT_EQ(g2.critical_path_length() - g1.critical_path_length(),
            3 * (h2.max_level() - h1.max_level()));
}

class DenseCholDagExec : public ::testing::TestWithParam<int> {};

TEST_P(DenseCholDagExec, MatchesTileCholesky) {
  const int workers = GetParam();
  Rng rng(103);
  Matrix a = Matrix::random_spd(rng, 160);
  rt::TaskGraph graph;
  auto dag = blrchol::emit_dense_cholesky_dag(a.view(), 160, 48, graph, true);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");

  Matrix ref = Matrix::from_view(a.view());
  blrchol::tile_cholesky(ref.view(), 48);
  // The DAG path leaves the strict upper triangle untouched; compare lower.
  for (index_t j = 0; j < 160; ++j)
    for (index_t i = j; i < 160; ++i)
      EXPECT_NEAR((*dag.state)(i, j), ref(i, j), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Workers, DenseCholDagExec, ::testing::Values(1, 3));

TEST(DenseCholDag, TaskAndEdgeCounts) {
  rt::TaskGraph graph;
  (void)blrchol::emit_dense_cholesky_dag({}, 4 * 32, 32, graph, false);
  // p=4 tiles: POTRF p + TRSM p(p-1)/2 + SYRK p(p-1)/2 + GEMM p(p-1)(p-2)/6.
  EXPECT_EQ(graph.num_tasks(), 4 + 6 + 6 + 4);
  EXPECT_GT(graph.num_edges(), 0);
}

class BlrCholDagExec : public ::testing::TestWithParam<int> {};

TEST_P(BlrCholDagExec, MatchesSequentialBlrCholesky) {
  const int workers = GetParam();
  Problem p(1024, 256, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 256, .max_rank = 256, .tol = 1e-9});

  rt::TaskGraph graph;
  blrchol::BLRCholOptions opts{.max_rank = 256, .tol = 1e-12};
  auto dag = blrchol::emit_blr_cholesky_dag(blr, graph, true, opts);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");

  auto f_seq = blrchol::BLRCholesky::factorize(blr, opts);
  const fmt::BLRMatrix& ref = f_seq.factor();
  const fmt::BLRMatrix& got = *dag.state;
  ASSERT_EQ(got.num_tiles(), ref.num_tiles());
  for (index_t i = 0; i < ref.num_tiles(); ++i) {
    const std::string tile = "(" + std::to_string(i);
    expect_same_bits(got.diag(i).view(), ref.diag(i).view(), "D" + tile + ")");
    for (index_t j = 0; j < i; ++j) {
      const std::string ij = tile + "," + std::to_string(j) + ")";
      expect_same_bits(got.tile(i, j).u.view(), ref.tile(i, j).u.view(), "U" + ij);
      expect_same_bits(got.tile(i, j).v.view(), ref.tile(i, j).v.view(), "V" + ij);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, BlrCholDagExec, ::testing::Values(1, 4));

TEST(BlrCholDag, DeepTrailingUpdateDependencies) {
  // LORAPO's weakness: the GEMM update chain makes the critical path grow
  // with the tile count (contrast with HssUlvDag.CriticalPathGrows...).
  Problem p(2048, 128, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto blr = fmt::build_blr(acc, {.tile_size = 128, .max_rank = 64, .tol = 1e-6});
  rt::TaskGraph graph;
  (void)blrchol::emit_blr_cholesky_dag(blr, graph, false);
  // p = 16 tiles: critical path >= 3 p - 2 (POTRF->TRSM->SYRK/GEMM per step).
  EXPECT_GE(graph.critical_path_length(), 3 * 16 - 2);
}

}  // namespace
}  // namespace hatrix
