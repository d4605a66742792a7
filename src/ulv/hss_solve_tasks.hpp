#pragma once
/// \file hss_solve_tasks.hpp
/// \brief The HSS-ULV solve (Eq. 17) expressed as a task graph.
///
/// The solve has the same level-parallel structure as the factorization:
/// per node, FORWARD(l,i) rotates and eliminates the local RHS; the two
/// children's skeleton RHS pieces merge into the parent (GATHER); after the
/// dense root solve, SCATTER/BACKWARD walk back down. Dependencies again
/// only cross levels through the gather/scatter, so an asynchronous runtime
/// overlaps the sweeps of independent subtrees.
///
/// Tasks operate on whole RHS panels (n x nrhs) and run the same per-node
/// steps (forward_step_panel / backward_step_panel) as the sequential sweep
/// HSSULV::solve(ConstMatrixView); the single-vector overload is the
/// nrhs = 1 case of the same DAG, as HSSULV's vector solve is the one-column
/// case of its sweep.

#include <memory>

#include "runtime/task_graph.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::ulv {

/// Mutable state shared by the solve task closures. One state per emitted
/// DAG; the shared factorization itself is only ever read.
struct HSSSolveTaskState {
  const fmt::HSSMatrix* a = nullptr;
  const HSSULV* factor = nullptr;
  la::ConstMatrixView b;                           // the caller's RHS panel
  std::vector<std::vector<Matrix>> rhs;            // [level][node] gathered B panel
  std::vector<std::vector<NodeForwardPanel>> fwd;  // [level][node]
  std::vector<std::vector<Matrix>> sol;            // [level][node] local X panel
  Matrix x;  // final solution (n x nrhs), allocated by ROOT_SOLVE

  /// Column `j` of the solution panel as a plain vector (convenience for
  /// the single-RHS overload and tests).
  [[nodiscard]] std::vector<double> x_col(la::index_t j = 0) const;
};

struct HSSSolveDag {
  std::shared_ptr<HSSSolveTaskState> state;
};

/// Emit the blocked multi-RHS solve DAG for the panel `b` (n x nrhs) into
/// `graph`; run it with any executor, then read `dag.state->x`. The result
/// is bit-identical to `factor.solve(b)`. Emission copies nothing: the leaf
/// FORWARD tasks read their rows of `b` in place, so `b` (like `factor`)
/// must stay alive and unchanged until the graph has run.
HSSSolveDag emit_hss_solve_dag(const HSSULV& factor, la::ConstMatrixView b,
                               rt::TaskGraph& graph);

/// Single-RHS convenience overload: the nrhs = 1 panel DAG over `b`'s
/// storage, which must outlive running the graph. Read the solution via
/// `dag.state->x_col()`.
HSSSolveDag emit_hss_solve_dag(const HSSULV& factor, const std::vector<double>& b,
                               rt::TaskGraph& graph);

}  // namespace hatrix::ulv
