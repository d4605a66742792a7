// Tests for the BLR²-ULV task DAG (Alg. 1 through the runtime).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/blr2.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "runtime/dag_dataflow.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"
#include "ulv/blr2_ulv_tasks.hpp"

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
/// same DAG in insertion order, so every schedule yields the same bits.
void expect_same_bits(const Matrix& got, const Matrix& ref) {
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  for (index_t j = 0; j < ref.cols(); ++j)
    for (index_t i = 0; i < ref.rows(); ++i)
      ASSERT_EQ(got(i, j), ref(i, j)) << "differs at (" << i << "," << j << ")";
}

class Blr2DagWorkers : public ::testing::TestWithParam<int> {};

TEST_P(Blr2DagWorkers, MatchesSequentialAlg1) {
  const int workers = GetParam();
  Problem p(1024, 128, "laplace2d");
  fmt::KernelAccessor acc(*p.km);
  auto m = fmt::build_blr2(acc, {.leaf_size = 128, .max_rank = 40, .tol = 0.0});

  rt::TaskGraph graph;
  auto dag = ulv::emit_blr2_ulv_dag(m, graph, /*with_work=*/true);
  rt::ThreadPoolExecutor ex(workers);
  auto stats = ex.run(graph);
  EXPECT_EQ(rt::validate_trace(graph, stats), "");

  // The sequential reference: the same DAG in insertion order, which is
  // what BLR2ULV::factorize runs. Every factor block matches bit for bit.
  rt::TaskGraph seq_graph;
  auto seq = ulv::emit_blr2_ulv_dag(m, seq_graph, /*with_work=*/true);
  rt::run_in_order(seq_graph);
  ASSERT_EQ(dag.state->factors.size(), seq.state->factors.size());
  for (std::size_t i = 0; i < seq.state->factors.size(); ++i) {
    const auto& got = dag.state->factors[i];
    const auto& ref = seq.state->factors[i];
    expect_same_bits(got.q_comp, ref.q_comp);
    expect_same_bits(got.l_rr, ref.l_rr);
    expect_same_bits(got.l_sr, ref.l_sr);
  }
  expect_same_bits(dag.state->merged_l, seq.state->merged_l);

  // BLR2ULV keeps its blocks private; its solves match bit for bit too.
  auto f_tasks = ulv::extract_blr2_factorization(dag);
  auto f_seq = ulv::BLR2ULV::factorize(m);
  Rng rng(402);
  Matrix b = Matrix::random_normal(rng, 1024, 8);
  expect_same_bits(f_tasks.solve(b), f_seq.solve(b));
}

INSTANTIATE_TEST_SUITE_P(Workers, Blr2DagWorkers, ::testing::Values(1, 4));

TEST(Blr2Dag, TaskCountIsLinearInBlocks) {
  Problem p(2048, 256);
  fmt::KernelAccessor acc(*p.km);
  auto m = fmt::build_blr2(
      acc, {.leaf_size = 256, .max_rank = 20, .tol = 0.0, .sample_cols = 200});
  rt::TaskGraph graph;
  (void)ulv::emit_blr2_ulv_dag(m, graph, false);
  EXPECT_EQ(graph.num_tasks(), 2 * m.num_blocks() + 2);
}

TEST(Blr2Dag, MergeBottleneckGrowsWithN) {
  // Alg. 1's defect (Sec. 3.1): the final dense Cholesky is of size
  // (N/leaf)*rank, so its cost grows cubically with N — the HSS-ULV's merge
  // keeps it constant-size per level instead.
  auto root_dim = [](index_t n) {
    Problem p(n, 256, "yukawa");
    fmt::KernelAccessor acc(*p.km);
    auto m = fmt::build_blr2(
        acc, {.leaf_size = 256, .max_rank = 30, .tol = 0.0, .sample_cols = 200});
    rt::TaskGraph graph;
    (void)ulv::emit_blr2_ulv_dag(m, graph, false);
    // Last task is the merged Cholesky; dims[0] is its dimension.
    return graph.tasks().back().dims[0];
  };
  EXPECT_GE(root_dim(4096), 2 * root_dim(2048) - 2);
}

}  // namespace
}  // namespace hatrix
