#pragma once
// Dense-kernel calibration at a workload's own block shapes.
//
// Each rate is a fixed nominal flop count divided by the median time of one
// call, so a re-implementation of a kernel (blocked Householder, a different
// pivoting scheme) changes the time but never the definition of the rate.

#include <cstdint>
#include <map>
#include <string>

#include "spans.hpp"

namespace hssbench {

/// The block shapes a workload's construction and factorization run on.
struct CalibShapes {
  std::int64_t leaf = 0;     ///< m: leaf block rows
  std::int64_t rank = 0;     ///< k: basis rank
  std::int64_t samples = 0;  ///< s: sampled far-field columns
};

/// GFLOP/s per kernel ("pivoted_qr", "qr", "orth_complement", "gemm",
/// "potrf", "trsm"), each timed for at least `min_seconds`. Every kernel's
/// calls are one span in the linalg layer when `rec` is non-null.
std::map<std::string, double> calibrate(const CalibShapes& shapes, double min_seconds,
                                        SpanRecorder* rec);

}  // namespace hssbench
