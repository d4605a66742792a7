#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hssbench {

namespace {

thread_local std::int64_t tl_parent = -1;

std::uint64_t thread_index() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t index = next.fetch_add(1);
  return index;
}

// Length of the union of [a, b) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Bench: return "bench";
    case Layer::Geometry: return "geometry";
    case Layer::Kernels: return "kernels";
    case Layer::Linalg: return "linalg";
    case Layer::Format: return "format";
    case Layer::Ulv: return "ulv";
    case Layer::Runtime: return "runtime";
    case Layer::Hatrix: return "hatrix";
  }
  return "?";
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void SpanRecorder::record(std::int64_t id, std::int64_t parent, std::string name,
                          Layer layer, double t0, double t1) {
  Span s{id, parent, std::move(name), layer, thread_index(), t0, t1};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::map<std::pair<Layer, std::string>, double> SpanRecorder::self_times(
    std::int64_t root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::int64_t, std::size_t> index;
  std::map<std::int64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    index[spans_[i].id] = i;
    children[spans_[i].parent].push_back(i);
  }
  std::map<std::pair<Layer, std::string>, double> out;
  auto it = index.find(root);
  if (it == index.end()) return out;
  std::vector<std::size_t> stack{it->second};
  while (!stack.empty()) {
    const Span& s = spans_[stack.back()];
    stack.pop_back();
    std::vector<std::pair<double, double>> iv;
    if (auto c = children.find(s.id); c != children.end()) {
      for (std::size_t k : c->second) {
        iv.emplace_back(spans_[k].t0, spans_[k].t1);
        stack.push_back(k);
      }
    }
    out[{s.layer, s.name}] += (s.t1 - s.t0) - covered(std::move(iv), s.t0, s.t1);
  }
  return out;
}

std::string SpanRecorder::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld}}",
                  i ? ",\n" : "", s.name.c_str(), layer_name(s.layer), s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.thread),
                  static_cast<long long>(s.id), static_cast<long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::int64_t current_parent() { return tl_parent; }

ScopedSpan::ScopedSpan(SpanRecorder* rec, std::string name, Layer layer)
    : rec_(rec), name_(std::move(name)), layer_(layer) {
  if (!rec_) return;
  id_ = rec_->new_id();
  saved_parent_ = tl_parent;
  tl_parent = id_;
  t0_ = rec_->now();
}

ScopedSpan::~ScopedSpan() {
  if (!rec_) return;
  rec_->record(id_, saved_parent_, std::move(name_), layer_, t0_, rec_->now());
  tl_parent = saved_parent_;
}

rt::TaskGraph traced_copy(const rt::TaskGraph& graph, SpanRecorder& rec,
                          Layer layer, std::int64_t parent) {
  rt::TaskGraph out;
  for (const auto& d : graph.data()) {
    out.register_data(d.name, d.bytes, d.owner);
    if (d.input) out.mark_input(d.id);
    if (d.output) out.mark_output(d.id);
  }
  out.set_release_hook(graph.release_hook());
  for (const auto& t : graph.tasks()) {
    rt::Task copy = t;
    if (t.work) {
      copy.work = [&rec, layer, parent, kind = t.kind, work = t.work] {
        const std::int64_t id = rec.new_id();
        const std::int64_t saved = tl_parent;
        tl_parent = id;
        const double t0 = rec.now();
        struct Close {
          SpanRecorder& rec;
          std::int64_t id, parent, saved;
          const std::string& kind;
          Layer layer;
          double t0;
          ~Close() {
            rec.record(id, parent, kind, layer, t0, rec.now());
            tl_parent = saved;
          }
        } close{rec, id, parent, saved, kind, layer, t0};
        work();
      };
    }
    out.insert_task(std::move(copy));
  }
  return out;
}

void TracingAccessor::count(std::int64_t entries, double t0, double t1,
                            const char* what) const {
  entries_.fetch_add(entries);
  ns_.fetch_add(static_cast<std::int64_t>((t1 - t0) * 1e9));
  rec_->record(rec_->new_id(), current_parent(), what, Layer::Kernels, t0, t1);
}

void TracingAccessor::fill_block(hatrix::la::index_t row0, hatrix::la::index_t col0,
                                 hatrix::la::MatrixView out) const {
  const double t0 = rec_->now();
  inner_->fill_block(row0, col0, out);
  count(out.rows * out.cols, t0, rec_->now(), "fill_block");
}

hatrix::la::Matrix TracingAccessor::gather(
    const std::vector<hatrix::la::index_t>& rows,
    const std::vector<hatrix::la::index_t>& cols) const {
  const double t0 = rec_->now();
  hatrix::la::Matrix m = inner_->gather(rows, cols);
  count(static_cast<std::int64_t>(rows.size() * cols.size()), t0, rec_->now(), "gather");
  return m;
}

}  // namespace hssbench
