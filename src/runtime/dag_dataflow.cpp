#include "runtime/dag_dataflow.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>

namespace hatrix::rt {

namespace {

std::string task_label(const TaskGraph& g, TaskId t) {
  return g.tasks()[static_cast<std::size_t>(t)].name + " (#" + std::to_string(t) +
         ")";
}

std::string data_label(const TaskGraph& g, DataId d) {
  return "\"" + g.data(d).name + "\" (data #" + std::to_string(d) + ")";
}

/// One declared access in per-handle chain order.
struct Event {
  TaskId task;
  Access mode;
};

/// Per-handle event chains in DTD (task-insertion, then declaration) order —
/// the exact order the dependency inference consumed them in.
std::vector<std::vector<Event>> event_chains(const TaskGraph& graph) {
  std::vector<std::vector<Event>> ev(graph.data().size());
  for (const auto& t : graph.tasks())
    for (const auto& [d, mode] : t.accesses)
      ev[static_cast<std::size_t>(d)].push_back({t.id, mode});
  return ev;
}

/// Distinct tasks touching a handle, preserving first-touch order. Chains
/// are short (single-digit accessors on the production DAGs), so the
/// quadratic dedup beats sorting.
std::vector<TaskId> distinct_tasks(const std::vector<Event>& chain) {
  std::vector<TaskId> out;
  for (const Event& e : chain)
    if (std::find(out.begin(), out.end(), e.task) == out.end())
      out.push_back(e.task);
  return out;
}

}  // namespace

DagUseBeforeDefError::DagUseBeforeDefError(TaskId t, std::string t_name,
                                           DataId res, std::string res_name)
    : Error("dag_dataflow: use before def — task " + t_name + " (#" +
            std::to_string(t) + ") reads resource \"" + res_name + "\" (data #" +
            std::to_string(res) +
            ") which no earlier task writes and which is not marked a graph "
            "input (TaskGraph::mark_input)"),
      task(t),
      resource(res),
      task_name(std::move(t_name)),
      resource_name(std::move(res_name)) {}

ReleasePlan release_plan(const TaskGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  const auto ev = event_chains(graph);
  ReleasePlan plan;
  plan.initial_uses.assign(graph.data().size(), 0);
  plan.task_data.assign(n, {});
  for (std::size_t d = 0; d < ev.size(); ++d) {
    if (graph.data()[d].output) continue;  // outputs are never released
    const auto owners = distinct_tasks(ev[d]);
    plan.initial_uses[d] = static_cast<int>(owners.size());
    for (TaskId t : owners)
      plan.task_data[static_cast<std::size_t>(t)].push_back(
          static_cast<DataId>(d));
  }
  return plan;
}

void run_in_order(const TaskGraph& graph) {
  const ReleaseHook& hook = graph.release_hook();
  const ReleasePlan plan = hook ? release_plan(graph) : ReleasePlan{};
  std::vector<int> remaining(plan.initial_uses);
  for (std::size_t t = 0; t < graph.tasks().size(); ++t) {
    if (graph.tasks()[t].work) graph.tasks()[t].work();
    if (!hook) continue;
    for (DataId d : plan.task_data[t])
      if (--remaining[static_cast<std::size_t>(d)] == 0) hook(d);
  }
}

DagDataflowReport analyze_dag(const TaskGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  const auto nd = graph.data().size();
  const auto ev = event_chains(graph);

  DagDataflowReport rep;
  rep.stats.tasks = graph.num_tasks();
  rep.stats.edges = graph.num_edges();
  rep.lifetimes.resize(nd);
  for (std::size_t d = 0; d < nd; ++d)
    rep.lifetimes[d].data = static_cast<DataId>(d);

  // --- Depth/width statistics (as in verify_dag; insertion order is
  // topological, non-forward test splices are skipped like
  // critical_path_length does).
  if (n > 0) {
    std::vector<std::int64_t> depth(n, 1);
    for (std::size_t t = 0; t < n; ++t)
      for (TaskId s : graph.successors()[t])
        if (s > static_cast<TaskId>(t) && s < graph.num_tasks())
          depth[static_cast<std::size_t>(s)] =
              std::max(depth[static_cast<std::size_t>(s)], depth[t] + 1);
    rep.stats.critical_path = *std::max_element(depth.begin(), depth.end());
    std::vector<std::int64_t> width(
        static_cast<std::size_t>(rep.stats.critical_path), 0);
    for (std::size_t t = 0; t < n; ++t)
      ++width[static_cast<std::size_t>(depth[t] - 1)];
    rep.stats.max_width = *std::max_element(width.begin(), width.end());
    rep.stats.avg_width = static_cast<double>(rep.stats.tasks) /
                          static_cast<double>(rep.stats.critical_path);
  }

  // --- Def-use chains: use-before-def (fatal), write-after-last-read, dead
  // stores. A value is an (producer task, handle) pair; "dead" means no task
  // ever consumes it and the handle is not a graph output.
  std::vector<std::vector<std::pair<TaskId, bool>>> dead_writes(n);
  auto record_write = [&](TaskId t, DataId d) {
    dead_writes[static_cast<std::size_t>(t)].emplace_back(d, false);
  };
  auto mark_dead = [&](TaskId t, DataId d) {
    for (auto& [res, dead] : dead_writes[static_cast<std::size_t>(t)])
      if (res == d) dead = true;
  };

  for (std::size_t d = 0; d < nd; ++d) {
    const auto& chain = ev[d];
    if (chain.empty()) continue;
    const DataHandle& h = graph.data()[d];

    TaskId def = -1;        // first writing task
    TaskId producer = -1;   // task that produced the current value
    Access producer_mode = Access::Write;
    bool consumed = true;   // current value has been read (or none exists)

    for (const Event& e : chain) {
      if (e.mode == Access::Read) {
        if (def < 0 && !h.input)
          throw DagUseBeforeDefError(
              e.task, graph.tasks()[static_cast<std::size_t>(e.task)].name,
              static_cast<DataId>(d), h.name);
        consumed = true;
      } else {
        // ReadWrite consumes the prior value (it reads before mutating); a
        // pure Write clobbers it, so an unconsumed prior value is wasted.
        if (e.mode == Access::Write && producer >= 0 && !consumed) {
          mark_dead(producer, static_cast<DataId>(d));
          rep.warnings.push_back(
              {DagWarningKind::WriteAfterLastRead, e.task, static_cast<DataId>(d),
               graph.tasks()[static_cast<std::size_t>(e.task)].name, h.name,
               "dag_dataflow: task " + task_label(graph, e.task) +
                   " overwrites resource " + data_label(graph, static_cast<DataId>(d)) +
                   " whose value from " + task_label(graph, producer) +
                   " was never read"});
        }
        if (def < 0) def = e.task;
        producer = e.task;
        producer_mode = e.mode;
        consumed = false;
        record_write(e.task, static_cast<DataId>(d));
      }
    }

    auto& life = rep.lifetimes[d];
    life.def = def;
    life.last_use = chain.back().task;
    life.uses = static_cast<std::int64_t>(distinct_tasks(chain).size());

    if (!consumed && producer >= 0 && !h.output) {
      // A trailing non-def ReadWrite is an in-place update chain whose
      // final state the caller inspects directly (tile-Cholesky panels,
      // rotated-buffer clears): not a dead store. The def itself, or a pure
      // Write, produced a value nothing will ever see.
      const bool exempt = producer != def && producer_mode == Access::ReadWrite;
      if (!exempt) {
        mark_dead(producer, static_cast<DataId>(d));
        rep.warnings.push_back(
            {DagWarningKind::DeadStore, producer, static_cast<DataId>(d),
             graph.tasks()[static_cast<std::size_t>(producer)].name, h.name,
             "dag_dataflow: dead store — the final value of resource " +
                 data_label(graph, static_cast<DataId>(d)) + " written by " +
                 task_label(graph, producer) +
                 " is never read and the handle is not marked a graph output "
                 "(TaskGraph::mark_output)"});
      }
    }
  }

  // --- Dead tasks: every produced value is dead and no write is an
  // in-place (non-def ReadWrite) update. Reads alone never keep a task
  // alive — a task whose outputs all go unread did nothing observable.
  for (std::size_t t = 0; t < n; ++t) {
    const auto& writes = dead_writes[t];
    if (writes.empty()) continue;
    bool all_dead = true;
    for (const auto& [d, dead] : writes)
      if (!dead) {
        all_dead = false;
        break;
      }
    if (!all_dead) continue;
    rep.warnings.push_back(
        {DagWarningKind::DeadTask, static_cast<TaskId>(t), writes.front().first,
         graph.tasks()[t].name, graph.data(writes.front().first).name,
         "dag_dataflow: dead task — every value " +
             task_label(graph, static_cast<TaskId>(t)) +
             " produces is never consumed"});
  }

  // --- Zero-byte handles poison every byte statistic downstream.
  for (std::size_t d = 0; d < nd; ++d) {
    if (ev[d].empty() || graph.data()[d].bytes > 0) continue;
    rep.warnings.push_back(
        {DagWarningKind::ZeroBytes, -1, static_cast<DataId>(d), "",
         graph.data()[d].name,
         "dag_dataflow: resource " + data_label(graph, static_cast<DataId>(d)) +
             " is accessed but registered with bytes == 0 — peak-memory and "
             "traffic accounting undercounts it"});
  }

  // --- Exact peak along the serial insertion order: a handle materializes
  // at its first touch (inputs at time zero) and retires when its last
  // accessor finishes, outputs never.
  std::vector<int> remaining(nd, 0);
  std::vector<char> live(nd, 0);
  std::int64_t resident = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    if (ev[d].empty()) continue;
    remaining[d] = static_cast<int>(rep.lifetimes[d].uses);
    rep.stats.data_bytes += graph.data()[d].bytes;
    if (graph.data()[d].input) {
      live[d] = 1;
      resident += graph.data()[d].bytes;
    }
  }
  std::int64_t peak = resident;
  for (std::size_t t = 0; t < n; ++t) {
    const auto& acc = graph.tasks()[t].accesses;
    for (const auto& [d, mode] : acc) {
      (void)mode;
      const auto di = static_cast<std::size_t>(d);
      if (!live[di]) {
        live[di] = 1;
        resident += graph.data()[di].bytes;
      }
    }
    peak = std::max(peak, resident);
    // Decrement once per distinct handle; a task may declare two accesses
    // to the same handle.
    for (std::size_t i = 0; i < acc.size(); ++i) {
      const DataId d = acc[i].first;
      bool seen = false;
      for (std::size_t j = 0; j < i; ++j)
        if (acc[j].first == d) {
          seen = true;
          break;
        }
      if (seen) continue;
      const auto di = static_cast<std::size_t>(d);
      if (--remaining[di] == 0 && !graph.data()[di].output) {
        resident -= graph.data()[di].bytes;
        live[di] = 0;
      }
    }
  }
  rep.stats.peak_bytes_serial = peak;

  // --- Peak bound over any edge-consistent schedule. Ancestor bitsets (the
  // race check's representation): handle h can be live while task t runs
  // unless t provably precedes h's materialization (t ≺ def(h)) or h is
  // provably retired (every accessor ≺ t, and h is neither an output nor
  // touched by t itself).
  if (n > 0) {
    const std::size_t words = (n + 63) / 64;
    std::vector<std::vector<TaskId>> preds(n);
    for (std::size_t t = 0; t < n; ++t)
      for (TaskId s : graph.successors()[t])
        if (s > static_cast<TaskId>(t) && s < graph.num_tasks())
          preds[static_cast<std::size_t>(s)].push_back(static_cast<TaskId>(t));
    std::vector<std::uint64_t> anc(n * words, 0);
    for (std::size_t t = 0; t < n; ++t) {
      std::uint64_t* row = anc.data() + t * words;
      for (TaskId p : preds[t]) {
        const auto pi = static_cast<std::size_t>(p);
        const std::uint64_t* prow = anc.data() + pi * words;
        for (std::size_t w = 0; w < words; ++w) row[w] |= prow[w];
        row[pi / 64] |= std::uint64_t{1} << (pi % 64);
      }
    }
    auto before = [&](TaskId a, TaskId b) {
      const auto ai = static_cast<std::size_t>(a);
      return ((anc[static_cast<std::size_t>(b) * words + ai / 64] >> (ai % 64)) &
              1) != 0;
    };

    std::vector<std::vector<TaskId>> accessors(nd);
    for (std::size_t d = 0; d < nd; ++d) accessors[d] = distinct_tasks(ev[d]);

    std::int64_t peak_any = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const auto tid = static_cast<TaskId>(t);
      std::int64_t r = 0;
      for (std::size_t d = 0; d < nd; ++d) {
        if (ev[d].empty()) continue;
        const DataHandle& h = graph.data()[d];
        const TaskId def = rep.lifetimes[d].def;
        if (!h.input && def >= 0 && def != tid && before(tid, def))
          continue;  // not yet materialized while t runs
        if (!h.output) {
          bool retired = true;
          for (TaskId a : accessors[d])
            if (a == tid || !before(a, tid)) {
              retired = false;
              break;
            }
          if (retired) continue;
        }
        r += h.bytes;
      }
      peak_any = std::max(peak_any, r);
    }
    rep.stats.peak_bytes_any = peak_any;
  }

  rep.plan = release_plan(graph);
  return rep;
}

RankUsage analyze_dag_ranks(const TaskGraph& graph,
                            const std::vector<int>& task_owner, int num_procs) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  HATRIX_CHECK(task_owner.size() == n, "mapping/graph size mismatch");
  HATRIX_CHECK(num_procs >= 1, "bad process count");
  for (int o : task_owner)
    HATRIX_CHECK(o >= 0 && o < num_procs, "task owner out of range");

  RankUsage out;
  out.footprint_bytes.assign(static_cast<std::size_t>(num_procs), 0);
  out.sent_bytes.assign(static_cast<std::size_t>(num_procs), 0);

  // Footprint: a touched block is resident on its owner plus every rank
  // whose tasks touch it (the received copy a message-passing backend must
  // hold while the task runs).
  const auto ev = event_chains(graph);
  std::vector<char> on_rank(static_cast<std::size_t>(num_procs), 0);
  for (std::size_t d = 0; d < ev.size(); ++d) {
    if (ev[d].empty()) continue;
    const DataHandle& h = graph.data()[d];
    std::fill(on_rank.begin(), on_rank.end(), 0);
    on_rank[static_cast<std::size_t>(h.owner)] = 1;
    for (const Event& e : ev[d])
      on_rank[static_cast<std::size_t>(
          task_owner[static_cast<std::size_t>(e.task)])] = 1;
    for (int r = 0; r < num_procs; ++r)
      if (on_rank[static_cast<std::size_t>(r)])
        out.footprint_bytes[static_cast<std::size_t>(r)] += h.bytes;
  }

  // Traffic: the simulator's data-flow walk — last writer per handle, one
  // message per cross-rank (producer → consumer task) pair aggregating all
  // blocks it supplies (matches distsim::count_messages exactly).
  std::vector<TaskId> last_writer(graph.data().size(), -1);
  for (const auto& t : graph.tasks()) {
    std::map<TaskId, std::int64_t> incoming;
    for (const auto& [d, mode] : t.accesses) {
      const TaskId w = last_writer[static_cast<std::size_t>(d)];
      if (w >= 0 && w != t.id) incoming[w] += graph.data(d).bytes;
      if (is_write(mode)) last_writer[static_cast<std::size_t>(d)] = t.id;
    }
    const int pd = task_owner[static_cast<std::size_t>(t.id)];
    for (const auto& [w, bytes] : incoming) {
      const int ps = task_owner[static_cast<std::size_t>(w)];
      if (ps == pd) continue;
      out.sent_bytes[static_cast<std::size_t>(ps)] += bytes;
      out.cross_bytes += bytes;
      ++out.cross_messages;
    }
  }
  return out;
}

bool analyze_dag_default() {
  if (const char* env = std::getenv("HATRIX_ANALYZE_DAG")) {
    const std::string v(env);
    if (v == "0" || v == "false" || v == "off" || v == "OFF") return false;
    return true;
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

}  // namespace hatrix::rt
