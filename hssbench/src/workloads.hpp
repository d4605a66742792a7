#pragma once
// The benchmark's workloads: each runs the full user pipeline (set-up ->
// HSS construction -> ULV factorization -> solves) in a closed loop with one
// client, and checks its outputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace hssbench {

/// One workload's fixed configuration.
struct Config {
  std::string name;
  bool kriging = false;  ///< Matérn kriging through the solver cache, else Yukawa DAGs
  std::int64_t n = 0;
  std::int64_t leaf = 0;
  std::int64_t rank = 0;
  std::int64_t samples = 0;
  std::int64_t max_samples = 0;  ///< cap on the guard's grown sample (0: none)
  int workers = 1;           ///< executor threads (kriging: the sequential user path)
  std::int64_t panel = 0;       ///< right-hand-side columns per request
  std::int64_t batch = 0;       ///< columns per blocked solve call (kriging)
  std::int64_t singles = 0;     ///< single-vector solves per request
  int requests = 1;          ///< requests per round (kriging: 1 miss, then hits)
  int panel_reps = 1;        ///< panel solves per request (Yukawa)
  int setup_reps = 1;        ///< timed set-ups per round; the last one is used
  double residual_bound = 0.0;  ///< ~3x the largest residual measured at full N
};

/// The configuration of `name`; `tiny` shrinks N for the self-test. Throws
/// hatrix::Error on an unknown name.
Config workload_config(const std::string& name, bool tiny);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;          ///< per-layer run: alternate traced and untraced rounds
  bool corrupt_solution = false;  ///< perturb the solution before the residual check
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  long long rounds = 0;
  std::vector<std::string> problems;  ///< failed checks and request errors
  /// End-to-end metrics (untraced rounds) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;  ///< the samples behind each metric
};

/// Run `cfg` for about `opt.seconds`. Spans of traced rounds go to `rec`.
RunResult run_workload(const Config& cfg, const RunOptions& opt, SpanRecorder& rec);

}  // namespace hssbench
