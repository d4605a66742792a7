// End-to-end HSS-ULV benchmark: set-up -> HSS construction -> ULV
// factorization -> solves, on one named workload, with its outputs checked.
//
//   hssbench --workload NAME --seed N --seconds S --trace 0|1
//            [--commit ID] [--trace-out FILE] [--tiny]
//            [--samples S] [--max-samples S] [--corrupt-solution]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md). Every metric is printed as one JSON row that carries the
// run's provenance; the last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}. --tiny and the flags after
// it exist for the self-test: they shrink N, override the workload's
// compression options, or perturb the checked solution.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "linalg/blas.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-test compares them).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"build_s", "s"},
    {"factor_s", "s"},
    {"solves_per_s", "1/s"},
    {"solve1_p50_ms", "ms"},
    {"solve1_p90_ms", "ms"},
    {"time_to_solution_s", "s"},
    {"peak_mb", "MB"},
    {"factor_mb", "MB"},
    {"residual", "ratio"},
    {"ok_ops", "share"},
};

const std::vector<MetricDef> kPerLayer = {
    {"linalg.build_gflop", "GFLOP"},
    {"linalg.factor_gflop", "GFLOP"},
    {"linalg.solve_gflop", "GFLOP"},
    {"linalg.build_gflops", "GFLOP/s"},
    {"linalg.factor_gflops", "GFLOP/s"},
    {"linalg.pivoted_qr_gflops", "GFLOP/s"},
    {"linalg.qr_gflops", "GFLOP/s"},
    {"linalg.orth_complement_gflops", "GFLOP/s"},
    {"linalg.gemm_gflops", "GFLOP/s"},
    {"linalg.potrf_gflops", "GFLOP/s"},
    {"linalg.trsm_gflops", "GFLOP/s"},
    {"format.compress_s", "s"},
    {"format.transfer_s", "s"},
    {"format.merge_sample_s", "s"},
    {"format.self_s", "s"},
    {"format.max_rank", "count"},
    {"format.max_samples", "count"},
    {"format.guard_growths", "count"},
    {"format.rank_escapes", "count"},
    {"format.hss_mb", "MB"},
    {"format.lowrank_mb", "MB"},
    {"format.guard_accept_ratio", "ratio"},
    {"ulv.diag_product_s", "s"},
    {"ulv.partial_factor_s", "s"},
    {"ulv.merge_s", "s"},
    {"ulv.root_s", "s"},
    {"ulv.fwd_solve_s", "s"},
    {"ulv.bwd_solve_s", "s"},
    {"ulv.self_s", "s"},
    {"ulv.factor_mb", "MB"},
    {"kernels.entries", "count"},
    {"kernels.eval_s", "s"},
    {"kernels.ns_per_entry", "ns"},
    {"runtime.build.emit_s", "s"},
    {"runtime.build.discovery_s", "s"},
    {"runtime.build.parallel_eff", "ratio"},
    {"runtime.factor.emit_s", "s"},
    {"runtime.factor.discovery_s", "s"},
    {"runtime.factor.parallel_eff", "ratio"},
    {"runtime.solve.emit_s", "s"},
    {"runtime.solve.discovery_s", "s"},
    {"runtime.solve.parallel_eff", "ratio"},
    {"runtime.tasks", "count"},
    {"runtime.cp_util", "ratio"},
    {"runtime.self_s", "s"},
    {"hatrix.cache_hits", "count"},
    {"hatrix.cache_misses", "count"},
    {"hatrix.hit_lookup_ms", "ms"},
    {"hatrix.self_s", "s"},
    {"geometry.tree_s", "s"},
    {"trace.overhead_s", "s"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    hatrix::Cli cli(argc, argv);
    const std::string workload = cli.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const double seconds = cli.get_double("seconds", 10.0);
    const bool traced = cli.get_int("trace", 0) != 0;
    const std::string commit = cli.get_string("commit", "unknown");
    const std::string trace_out = cli.get_string("trace-out", "");
    const bool tiny = cli.has("tiny");
    const bool corrupt = cli.has("corrupt-solution");
    const std::int64_t samples = cli.get_int("samples", 0);
    const std::int64_t max_samples = cli.get_int("max-samples", 0);
    cli.reject_unknown();

    hssbench::Config cfg = hssbench::workload_config(workload, tiny);
    if (samples > 0) cfg.samples = samples;
    cfg.max_samples = max_samples;
    hssbench::SpanRecorder rec;
    const hssbench::RunResult res = hssbench::run_workload(
        cfg, {.seed = seed, .seconds = seconds, .traced = traced,
              .corrupt_solution = corrupt},
        rec);
    if (traced && !trace_out.empty()) {
      std::ofstream out(trace_out);
      out << rec.to_chrome_json();
    }

    for (const auto& p : res.problems) std::fprintf(stderr, "hssbench: %s\n", p.c_str());

    // Provenance carried by every row.
    char prov[512];
    std::snprintf(
        prov, sizeof prov,
        "\"workload\":%s,\"seed\":%llu,\"nproc\":%u,\"workers\":%d,\"backend\":%s,"
        "\"build_type\":%s,\"native_arch\":%s,\"commit\":%s,\"n\":%lld,\"rounds\":%lld",
        json_string(cfg.name).c_str(), static_cast<unsigned long long>(seed),
        std::thread::hardware_concurrency(), cfg.workers,
        json_string(hatrix::la::backend_name(hatrix::la::backend())).c_str(),
        json_string(HSSBENCH_BUILD_TYPE).c_str(), HSSBENCH_NATIVE_ARCH ? "true" : "false",
        json_string(commit).c_str(), static_cast<long long>(cfg.n), res.rounds);

    const auto& defs = traced ? kPerLayer : kEndToEnd;
    std::string metrics;
    // Each row also gives the spread of the samples behind its value.
    auto row = [&](const char* name, const char* unit, double v) {
      const auto it = res.samples.find(name);
      const std::vector<double> none;
      const auto& s = it == res.samples.end() ? none : it->second;
      const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
      std::printf(
          "{\"metric\":%s,\"value\":%s,\"unit\":%s,\"samples\":%zu,\"min\":%s,"
          "\"max\":%s,%s}\n",
          json_string(name).c_str(), json_number(v).c_str(), json_string(unit).c_str(),
          s.size(), json_number(s.empty() ? v : *lo).c_str(),
          json_number(s.empty() ? v : *hi).c_str(), prov);
    };
    for (const auto& d : defs) {
      // A metric of a layer the workload never enters reads 0 (the
      // per-layer metrics of the cache on the Yukawa workloads, say).
      const auto it = res.metrics.find(d.name);
      const double v = it == res.metrics.end() ? 0.0 : it->second;
      row(d.name, d.unit, v);
      if (!metrics.empty()) metrics += ", ";
      metrics += json_string(d.name) + ": {\"value\": " + json_number(v) +
                 ", \"unit\": " + json_string(d.unit) + "}";
    }
    // Extra rows, outside the result object: the share of failed requests
    // (published there as ok_ops) and the residual of the seed's own panel.
    if (!traced) {
      for (const MetricDef d : {MetricDef{"failed_ops", "share"},
                                MetricDef{"panel_residual", "ratio"}}) {
        const auto it = res.metrics.find(d.name);
        row(d.name, d.unit, it == res.metrics.end() ? 0.0 : it->second);
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                res.correct ? "true" : "false", res.attempted, res.failed, metrics.c_str());
    std::fflush(stdout);
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hssbench: %s\n", e.what());
    return 2;
  }
}
