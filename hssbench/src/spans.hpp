#pragma once
// In-memory span recording for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer: run -> round -> request -> phase -> (executor run |
// accessor call | cache lookup | calibration call), plus one span per task
// body the executor runs. Spans stay in memory and are written out once,
// when the run ends. A layer's self time is the duration of its spans minus
// the part of each span's interval that its child spans cover.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "format/accessor.hpp"
#include "runtime/task_graph.hpp"

namespace hssbench {

namespace rt = hatrix::rt;

/// The library modules the pipeline runs through, plus the benchmark's own
/// code ("bench": phase bookkeeping, input generation, checks).
enum class Layer { Bench, Geometry, Kernels, Linalg, Format, Ulv, Runtime, Hatrix };

const char* layer_name(Layer l);

struct Span {
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 for the run span
  std::string name;
  Layer layer = Layer::Bench;
  std::uint64_t thread = 0;  ///< small per-thread index, for the trace file
  double t0 = 0.0;           ///< seconds since the recorder was created
  double t1 = 0.0;
};

/// Thread-safe span store. Ids are allocated up front so a span's children
/// can name it as their parent before it is closed.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] double now() const;
  [[nodiscard]] std::int64_t new_id() { return next_id_.fetch_add(1); }
  void record(std::int64_t id, std::int64_t parent, std::string name, Layer layer,
              double t0, double t1);

  /// Self time (duration minus the union of the children's intervals) summed
  /// per (layer, span name), over the spans that descend from `root`.
  [[nodiscard]] std::map<std::pair<Layer, std::string>, double> self_times(
      std::int64_t root) const;

  /// Chrome/Perfetto trace-event JSON of every recorded span.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// The span that spans opened on the calling thread are parented to (set
/// around task bodies and phases; -1 when none).
std::int64_t current_parent();

/// Opens a span on construction, records it on destruction, and makes it the
/// calling thread's current parent while it is open. A null recorder makes
/// it a no-op, so untraced code paths share the same call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::string name_;
  Layer layer_;
  std::int64_t id_ = -1;
  std::int64_t saved_parent_ = -1;
  double t0_ = 0.0;
};

/// A copy of `graph` whose task bodies each record a span (named by the task
/// kind, in `layer`) parented to `parent`. Dependencies are re-derived from
/// the same access declarations in the same insertion order, so the copy has
/// the original's task ids and edges.
rt::TaskGraph traced_copy(const rt::TaskGraph& graph, SpanRecorder& rec,
                          Layer layer, std::int64_t parent);

/// Counting, timing decorator over a BlockAccessor: every call is one span
/// in the kernels layer, and the entries it evaluated and the time it took
/// are summed in atomic counters (calls arrive from worker threads).
class TracingAccessor final : public hatrix::fmt::BlockAccessor {
 public:
  TracingAccessor(const hatrix::fmt::BlockAccessor& inner, SpanRecorder& rec)
      : inner_(&inner), rec_(&rec) {}

  [[nodiscard]] hatrix::la::index_t size() const override { return inner_->size(); }
  void fill_block(hatrix::la::index_t row0, hatrix::la::index_t col0,
                  hatrix::la::MatrixView out) const override;
  [[nodiscard]] hatrix::la::Matrix gather(
      const std::vector<hatrix::la::index_t>& rows,
      const std::vector<hatrix::la::index_t>& cols) const override;

  [[nodiscard]] std::int64_t entries() const { return entries_.load(); }
  [[nodiscard]] double eval_seconds() const { return 1e-9 * static_cast<double>(ns_.load()); }

 private:
  void count(std::int64_t entries, double t0, double t1, const char* what) const;

  const hatrix::fmt::BlockAccessor* inner_;
  SpanRecorder* rec_;
  mutable std::atomic<std::int64_t> entries_{0};
  mutable std::atomic<std::int64_t> ns_{0};
};

}  // namespace hssbench
