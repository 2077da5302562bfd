// pipebench: end-to-end benchmark of the provenance pipeline.
//
//   pipebench --workload image_online|xgboost_online|query_mix --seed N
//             --seconds S --trace 0|1 --workdir DIR
//   pipebench --smoke --workdir DIR
//
// image_online / xgboost_online repeat whole pipeline rounds for S seconds:
// an instrumented, durable Cluster::run tailed by a LiveIngestor, a publish
// into a fresh segment-backed StoreCatalog, a closed loop of clients through
// QueryServer on the new epoch, and a cold open of the store. query_mix
// builds a multi-run segment store from bare runs in set-up, then repeats
// episodes for S seconds: each cold-opens a copy of the store and serves a
// closed loop of clients while a writer publishes held-back runs through
// the same live pipeline and compacts once. Each timing or rate is the
// best of the run's rounds, writes or query windows (see bench.hpp).
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, the per-layer
// table with --trace 1; the table is also printed above it). --smoke runs
// every workload at toy size through the same checks, then feeds the
// checks deliberately altered results and requires them to be rejected.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "live.hpp"
#include "queries.hpp"
#include "query/client.hpp"
#include "query/plan.hpp"
#include "query/server.hpp"
#include "workloads/image_processing.hpp"
#include "workloads/registry.hpp"
#include "workloads/xgboost.hpp"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using recup::analysis::DataFrame;
using recup::query::Epoch;
using recup::query::StoreCatalog;

const Clock::time_point kProcessStart = Clock::now();

// --- Inputs -----------------------------------------------------------------

/// Workload sizes. The benchmark generates every input from these and the
/// seed; `smoke` shrinks them to toys.
struct Sizes {
  std::size_t ip_images = 19;      ///< ImageProcessing at 1/8 of Table I
  std::size_t xgb_partitions = 8;  ///< XGBOOST at 1/8 of Table I
  std::size_t xgb_rounds = 9;
  /// Query figures are taken per window of this many consecutive answers
  /// of a client, so forty lie beyond each window's p99: one window per
  /// pipeline round, and in query_mix the first answers at each epoch.
  std::size_t window_answers = 4000;
  // Pipeline workloads.
  std::size_t min_rounds = 3;
  // query_mix.
  std::size_t store_runs = 8;  ///< bare runs in the store (half of each)
  std::size_t store_ip_images = 38;  ///< 1/4 of Table I
  std::size_t store_xgb_partitions = 30;  ///< 1/2 of Table I
  std::size_t store_xgb_rounds = 35;
  /// Each episode's writer publishes `writes` held-back runs live, each
  /// once the clients completed `window_answers` queries since the
  /// previous one (the window after each publish holds no write);
  /// compaction runs once, after write `compact_after`. Store size and
  /// memory are taken after the last write and the window that follows it
  /// (the episode's end).
  std::size_t writes = 3;
  std::size_t compact_after = 2;
  std::size_t min_episodes = 2;
};

/// Length of each client's seeded query list (clients wrap around it).
constexpr std::size_t kMixLength = 20000;

/// One closed-loop client and one server worker. With two of each, or two
/// clients on one worker, the busy threads (plus the writer and the ingest
/// tail) filled the 4 cores, and the publish and the query figures spread
/// about twice as much between runs.
constexpr std::size_t kClients = 1;
constexpr std::size_t kServerWorkers = 1;

Sizes smoke_sizes() {
  Sizes z;
  z.ip_images = 4;
  z.xgb_partitions = 3;
  z.xgb_rounds = 2;
  z.window_answers = 10;
  z.min_rounds = 1;
  z.store_runs = 2;
  z.store_ip_images = 4;
  z.store_xgb_partitions = 3;
  z.store_xgb_rounds = 2;
  z.writes = 2;
  return z;
}

recup::workloads::Workload image_workload(std::uint64_t seed, const Sizes& z) {
  recup::workloads::ImageProcessingParams p;
  p.images = z.ip_images;
  p.extra_chunk_images = z.ip_images * 2 / 3;
  return recup::workloads::make_image_processing(seed, p);
}

recup::workloads::Workload xgboost_workload(std::uint64_t seed,
                                            const Sizes& z) {
  recup::workloads::XgboostParams p;
  p.partitions = z.xgb_partitions;
  p.boosting_rounds = z.xgb_rounds;
  return recup::workloads::make_xgboost(seed, p);
}

LiveInput live_input(bool xgboost, std::uint64_t seed, std::uint32_t index,
                     const Sizes& z, fs::path dir) {
  LiveInput in;
  const std::uint64_t s = mix_seed(seed, index);
  in.workload = xgboost ? xgboost_workload(mix_seed(s, 0), z)
                        : image_workload(mix_seed(s, 0), z);
  in.cluster_seed = mix_seed(s, 1);
  in.graph_seed = mix_seed(s, 2);
  in.run_index = index;
  in.dir = std::move(dir);
  return in;
}

double max_task_duration(const recup::dtr::RunData& run) {
  double m = 0.0;
  for (const auto& t : run.tasks) m = std::max(m, t.end_time - t.start_time);
  return m;
}

recup::segstore::SegmentStoreConfig store_config(const fs::path& dir,
                                                 bool read_only) {
  recup::segstore::SegmentStoreConfig c;
  c.dir = dir.string();
  c.read_only = read_only;
  return c;
}

// --- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void fail(const std::string& what) { errors.push_back(what); }
  void fail_all(const std::vector<std::string>& what) {
    errors.insert(errors.end(), what.begin(), what.end());
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Resident set size now, from /proc/self/statm.
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0.0;
  double pages_resident = 0.0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Bytes on disk of the store's committed version: the segment files its
/// manifest references, plus the manifest. Replaced segments that a pinned
/// reader still holds are left out, so the figure does not depend on when
/// garbage collection ran.
std::uint64_t committed_bytes(StoreCatalog& catalog, const fs::path& dir) {
  const auto files = catalog.segment_store()->version()->files();
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    if (e.path().extension() != ".rsg" ||
        files.count(fs::relative(e.path(), dir).string()) > 0) {
      total += e.file_size();
    }
  }
  return total;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Closed-loop clients ----------------------------------------------------

struct Sample {
  double latency_ms = 0.0;
  double server_ms = 0.0;  ///< the server's own handling time
  Epoch epoch = 0;
  Clock::time_point done;
  std::size_t text = 0;  ///< index into the client's query list
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;  ///< exact digest of the answer
  std::shared_ptr<const DataFrame> frame;  ///< may be dropped once digested
};

/// FNV-1a over a frame's column names, types and cell bytes: equal digests
/// for bitwise-equal answers.
std::uint64_t frame_digest(const DataFrame& f) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t c = 0; c < f.width(); ++c) {
    const auto& col = f.col(c);
    mix(col.name().data(), col.name().size() + 1);
    const auto type = col.type();
    mix(&type, sizeof type);
    for (std::size_t r = 0; r < f.rows(); ++r) {
      if (type == recup::analysis::ColumnType::kInt64) {
        const std::int64_t v = col.i64(r);
        mix(&v, sizeof v);
      } else if (type == recup::analysis::ColumnType::kDouble) {
        const double v = col.f64(r);
        mix(&v, sizeof v);
      } else {
        mix(col.str(r).data(), col.str(r).size() + 1);
      }
    }
  }
  return h;
}

Sample ask(recup::query::QueryClient& client, const std::string& text,
           std::size_t index) {
  Sample s;
  s.text = index;
  const auto t0 = Clock::now();
  recup::query::QueryResponse r = client.query(text);
  s.done = Clock::now();
  s.latency_ms = 1e3 * seconds_between(t0, s.done);
  s.server_ms = r.elapsed_ms;
  s.epoch = r.epoch;
  s.ok = r.ok;
  s.error = r.error;
  if (r.ok) {
    s.digest = frame_digest(r.frame);
    s.frame = std::make_shared<const DataFrame>(std::move(r.frame));
  }
  return s;
}

/// The CPU the client and the server worker share: the highest-numbered
/// one this process may run on, or -1 when the mask cannot be read.
int query_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  return -1;
}

/// Pins the calling thread to one CPU for its lifetime, and threads it
/// starts meanwhile inherit the pin; a no-op when the pin is refused.
///
/// The client and the server worker are pinned to one core, as benchmarks
/// pin threads for repeatable latency. Unpinned, each round trip woke a
/// thread on another, idle vCPU of this shared virtual machine, and for
/// minutes at a time those wake-ups were slow: between runs of the same
/// code, query_p99_ms spread by 0.28 (image_online) to 3.6
/// (xgboost_online) and query_qps by 0.21 to 0.36.
class PinnedThread {
 public:
  explicit PinnedThread(int cpu) {
    if (cpu < 0 ||
        pthread_getaffinity_np(pthread_self(), sizeof old_, &old_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  }
  ~PinnedThread() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof old_, &old_);
  }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  cpu_set_t old_{};
  bool pinned_ = false;
};

/// A QueryServer whose worker runs pinned to query_cpu().
std::unique_ptr<recup::query::QueryServer> pinned_server(
    StoreCatalog& catalog) {
  recup::query::ServerConfig c;
  c.workers = kServerWorkers;
  c.queue_capacity = 4 * kClients + 8;
  PinnedThread pin(query_cpu());
  return std::make_unique<recup::query::QueryServer>(catalog, c);
}

/// Throughput and latency of one closed-loop window.
struct QueryFigures {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Latencies, windows and failures of a set of closed-loop clients.
struct LoadFigures {
  std::vector<double> latencies_ms;
  std::vector<double> overhead_ms;  ///< round trip minus server handling
  std::vector<QueryFigures> windows;
  std::uint64_t failed = 0;
};

/// What one closed-loop client keeps: latencies, the first completion time
/// per epoch (freshness), and per distinct (text, epoch) the print of its
/// first answer plus an exact digest that every repeat must reproduce.
/// Memory stays bounded by the distinct answers, not by the query count.
struct ClientLog {
  struct First {
    std::uint64_t digest = 0;
    AnswerPrint print;
  };
  std::vector<double> latency_ms;
  std::vector<double> overhead_ms;  ///< round trip minus server handling
  std::map<std::string, std::vector<double>> part_ms;  ///< by mix part
  std::map<Epoch, Clock::time_point> first_done;
  std::map<std::pair<std::size_t, Epoch>, First> firsts;
  /// Figures of each window of `window_answers` consecutive answers; with
  /// `per_epoch`, of the first `window_answers` answers at each epoch (an
  /// epoch that ends sooner has none). A window runs from the answer
  /// before its first; an unfinished one is dropped.
  std::size_t window_answers = 0;
  bool per_epoch = false;
  bool in_window = true;
  Clock::time_point window_start;
  Clock::time_point last_done;
  std::optional<Epoch> window_epoch;
  std::vector<double> window_ms;
  std::vector<QueryFigures> windows;
  std::uint64_t failed = 0;
  std::uint64_t repeat_mismatches = 0;
  std::string first_error;
  double wall_s = 0.0;
  double roundtrip_s = 0.0;

  void close_window(Clock::time_point end) {
    windows.push_back({static_cast<double>(window_ms.size()) /
                           seconds_between(window_start, end),
                       median(window_ms), quantile(window_ms, 0.99)});
    window_ms.clear();
    window_start = end;
  }

  void record(const Sample& s, const std::string& part) {
    latency_ms.push_back(s.latency_ms);
    part_ms[part].push_back(s.latency_ms);
    if (per_epoch && s.ok && s.epoch != window_epoch) {
      window_ms.clear();
      if (window_epoch) window_start = last_done;
      window_epoch = s.epoch;
      in_window = true;
    }
    if (in_window) {
      window_ms.push_back(s.latency_ms);
      if (window_ms.size() == window_answers) {
        close_window(s.done);
        in_window = !per_epoch;
      }
    }
    last_done = s.done;
    overhead_ms.push_back(std::max(0.0, s.latency_ms - s.server_ms));
    roundtrip_s += s.latency_ms / 1e3;
    if (!s.ok) {
      if (failed++ == 0) first_error = s.error;
      return;
    }
    first_done.emplace(s.epoch, s.done);
    auto [it, inserted] = firsts.try_emplace({s.text, s.epoch});
    if (inserted) {
      it->second = {s.digest, answer_print(*s.frame)};
    } else if (it->second.digest != s.digest) {
      ++repeat_mismatches;
    }
  }
};


/// Closed loop: one client thread per list, each sending its next query
/// when the last one returns (wrapping around its list) until `done()`
/// holds; `completed` counts the answers of all clients. Each client also
/// keeps figures per window (see ClientLog::window_answers).
std::vector<ClientLog> closed_loop(
    recup::query::QueryServer& server,
    const std::vector<std::vector<QueryText>>& lists,
    const std::function<bool()>& done, std::atomic<std::size_t>& completed,
    std::size_t window_answers, bool per_epoch) {
  std::vector<ClientLog> logs(lists.size());
  std::vector<std::vector<std::string>> parts(lists.size());
  for (std::size_t c = 0; c < lists.size(); ++c) {
    for (const auto& q : lists[c]) parts[c].push_back(mix_part(q));
  }
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < lists.size(); ++c) {
    logs[c].window_answers = window_answers;
    logs[c].per_epoch = per_epoch;
    clients.emplace_back([&, c] {
      PinnedThread pin(query_cpu());
      const auto start = Clock::now();
      logs[c].window_start = start;
      try {
        recup::query::QueryClient client(server);
        for (std::size_t i = 0; !done(); ++i) {
          const std::size_t index = i % lists[c].size();
          logs[c].record(ask(client, lists[c][index].text, index),
                         parts[c][index]);
          completed.fetch_add(1);
        }
      } catch (const std::exception& e) {
        if (logs[c].failed++ == 0) logs[c].first_error = e.what();
      }
      logs[c].wall_s = seconds_since(start);
    });
  }
  for (auto& t : clients) t.join();
  return logs;
}

/// Adds the logs' latencies and failures to `load`, and their repeat
/// mismatches and first errors to `res`.
void collect_logs(const std::vector<ClientLog>& logs, LoadFigures& load,
                  Result& res) {
  for (const auto& log : logs) {
    load.latencies_ms.insert(load.latencies_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    load.overhead_ms.insert(load.overhead_ms.end(), log.overhead_ms.begin(),
                            log.overhead_ms.end());
    load.windows.insert(load.windows.end(), log.windows.begin(),
                        log.windows.end());
    load.failed += log.failed;
    if (log.failed > 0) res.fail("query failed: " + log.first_error);
    if (log.repeat_mismatches > 0) {
      res.fail(std::to_string(log.repeat_mismatches) +
               " repeated answers differ from the first at the same epoch");
    }
  }
}

// --- Per-layer table ----------------------------------------------------------

struct LayerRow {
  const char* name;
  const char* unit;
  const char* moves;  ///< the end-to-end metric it should move
};

constexpr LayerRow kLayerRows[] = {
    {"dtr.bare_run_s", "s", "workflow_s (image_online)"},
    {"dtr.tasks", "count", "workflow_s"},
    {"dtr.transitions", "count", "workflow_s"},
    {"capture.run_s", "s", "workflow_s"},
    {"capture.overhead_us_per_task", "us", "workflow_s"},
    {"mofka.events", "count", "workflow_s"},
    {"mofka.event_bytes", "bytes", "workflow_s"},
    {"wal.overhead_s", "s", "workflow_s (xgboost_online)"},
    {"wal.broker_bytes", "bytes", "wal_bytes"},
    {"wal.scheduler_bytes", "bytes", "wal_bytes"},
    {"datastore.oob_bytes", "bytes", "workflow_s (context)"},
    {"datastore.fetches", "count", "workflow_s (context)"},
    {"ingest.poll_s", "s", "freshness_s"},
    {"ingest.polls", "count", "freshness_s"},
    {"ingest.events", "count", "freshness_s"},
    {"ingest.events_per_s", "1/s", "freshness_s"},
    {"ingest.publish_s", "s", "freshness_s"},
    {"segstore.flush_s", "s", "freshness_s"},
    {"segstore.segments", "count", "store_bytes"},
    {"segstore.bytes", "bytes", "store_bytes"},
    {"segstore.cold_open_s", "s", "cold_open_s"},
    {"segstore.compact_s", "s", "query_p99_ms (query_mix)"},
    {"views.frame_ms.tasks", "ms", "query_p50_ms"},
    {"views.frame_ms.transitions", "ms", "query_p50_ms"},
    {"views.frame_ms.io_segments", "ms", "query_p50_ms"},
    {"views.frame_ms.comms", "ms", "query_p50_ms"},
    {"views.frame_ms.warnings", "ms", "query_p50_ms"},
    {"views.frame_ms.steals", "ms", "query_p50_ms"},
    {"views.frame_ms.task_io", "ms", "query_p50_ms"},
    {"query.plan_us", "us", "query_p50_ms"},
    {"query.exec_ms.fig6_prefix", "ms", "query_p50_ms"},
    {"query.exec_ms.worker_busy", "ms", "query_p50_ms"},
    {"query.exec_ms.state_keys", "ms", "query_p50_ms"},
    {"query.exec_ms.fig7_warnings", "ms", "query_p50_ms"},
    {"query.exec_ms.fig8_task_io", "ms", "query_p50_ms"},
    {"query.exec_ms.io_ops", "ms", "query_p50_ms"},
    {"query.exec_ms.comms_volume", "ms", "query_p50_ms"},
    {"query.exec_ms.run_totals", "ms", "query_p50_ms"},
    {"query.zone_pruned", "count", "query_p50_ms (query_mix)"},
    {"query.cache_hit_ratio", "ratio", "query_qps"},
    {"query.p50_ms.repeated", "ms", "query_p50_ms"},
    {"query.p50_ms.unique", "ms", "query_p50_ms"},
    {"query.p50_ms.selective", "ms", "query_p50_ms"},
    {"query.p50_ms.cross_run", "ms", "query_p50_ms"},
    {"server.overhead_ms", "ms", "query_p50_ms"},
    {"unattributed_s", "s", "(residual)"},
    {"unattributed_share", "ratio", "(residual)"},
};

/// Per-layer values gathered over a traced run, one sample per live run or
/// per measurement; reported as medians.
class Layers {
 public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  void emit(Result& res) const {
    std::cout << "\nper-layer table (traced run; medians per live run)\n";
    std::printf("%-32s %16s %-6s %s\n", "metric", "value", "unit", "moves");
    for (const auto& row : kLayerRows) {
      auto it = samples_.find(row.name);
      const double v = it == samples_.end() ? 0.0 : median(it->second);
      std::printf("%-32s %16.6g %-6s %s\n", row.name, v, row.unit, row.moves);
      res.add(row.name, v, row.unit);
    }
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// The median latency of each part of the query mix over `logs`, so that a
/// change to the mix's shares is not read as a change in speed.
void add_part_layers(Layers& layers, const std::vector<ClientLog>& logs) {
  for (const char* part : kMixParts) {
    std::vector<double> v;
    for (const auto& log : logs) {
      auto it = log.part_ms.find(part);
      if (it != log.part_ms.end()) {
        v.insert(v.end(), it->second.begin(), it->second.end());
      }
    }
    layers.add(std::string("query.p50_ms.") + part, median(v));
  }
}

/// Layer figures of one live run.
void add_live_layers(Layers& layers,
                     const LiveOutcome& out, double bare_s, double capture_s,
                     double poll_s, double polls, double publish_s) {
  const double tasks = static_cast<double>(out.run.tasks.size());
  layers.add("dtr.bare_run_s", bare_s);
  layers.add("dtr.tasks", tasks);
  layers.add("dtr.transitions", static_cast<double>(out.run.transitions.size()));
  layers.add("capture.run_s", capture_s);
  layers.add("capture.overhead_us_per_task",
             tasks > 0 ? 1e6 * (capture_s - bare_s) / tasks : 0.0);
  layers.add("mofka.events", static_cast<double>(out.events_produced));
  layers.add("mofka.event_bytes", static_cast<double>(out.event_bytes));
  layers.add("wal.overhead_s", out.workflow_s - capture_s);
  layers.add("wal.broker_bytes", static_cast<double>(out.broker_wal_bytes));
  layers.add("wal.scheduler_bytes",
             static_cast<double>(out.scheduler_wal_bytes));
  layers.add("datastore.oob_bytes", static_cast<double>(out.datastore.oob_bytes));
  layers.add("datastore.fetches", static_cast<double>(out.datastore.fetches));
  layers.add("ingest.poll_s", poll_s);
  layers.add("ingest.polls", polls);
  layers.add("ingest.events", static_cast<double>(out.events_ingested));
  layers.add("ingest.events_per_s",
             static_cast<double>(out.events_ingested) /
                 std::max(1e-9, poll_s + publish_s));
}

/// Runs `in` live, and in traced runs files its layer figures.
LiveOutcome traced_live_run(const LiveInput& in, StoreCatalog& catalog,
                            Tracer& tracer, Layers& layers) {
  const double bare0 = tracer.total("dtr.bare_run");
  const double capture0 = tracer.total("capture.run");
  const double poll0 = tracer.total("ingest.poll");
  const double polls0 = tracer.counter("ingest.polls");
  const double publish0 = tracer.total("ingest.publish");
  LiveOutcome out = live_run(in, catalog, tracer);
  if (tracer.enabled()) {
    const double publish_s = tracer.total("ingest.publish") - publish0;
    add_live_layers(layers, out, tracer.total("dtr.bare_run") - bare0,
                    tracer.total("capture.run") - capture0,
                    tracer.total("ingest.poll") - poll0,
                    tracer.counter("ingest.polls") - polls0, publish_s);
    layers.add("ingest.publish_s", publish_s);
  }
  return out;
}

/// Per-layer figures of the query tier over one store: first-touch frame
/// decode per view on a fresh cold open, planning, cache-free execution of
/// each paper shape, zone-map pruning of `selective` texts, and a flush of
/// `run` into a fresh segment catalog.
void query_layers(Layers& layers, const fs::path& store, const fs::path& scratch,
                  const recup::dtr::RunData& run,
                  const std::vector<std::string>& selective) {
  {
    const auto t0 = Clock::now();
    StoreCatalog cold(store_config(store, true));
    layers.add("segstore.cold_open_s", seconds_since(t0));
    const auto snap = cold.snapshot();
    const auto ids = snap.runs(std::nullopt, std::nullopt);
    for (std::size_t v = 0; v < recup::query::view_names().size(); ++v) {
      const auto t1 = Clock::now();
      for (const auto& id : ids) {
        (void)snap.frame(static_cast<recup::query::ViewId>(v), id);
      }
      layers.add("views.frame_ms." + recup::query::view_names()[v],
                 1e3 * seconds_since(t1));
    }
    for (const auto& q : paper_shapes()) {
      const auto parsed = recup::query::parse_query(q.text);
      const auto t2 = Clock::now();
      (void)recup::query::plan_query(parsed, snap);
      layers.add("query.plan_us", 1e6 * seconds_since(t2));
      const auto t3 = Clock::now();
      (void)recup::query::execute_query(parsed, cold, nullptr);
      layers.add("query.exec_ms." + q.shape, 1e3 * seconds_since(t3));
    }
    double pruned = 0.0;
    for (const auto& text : selective) {
      pruned += static_cast<double>(
          recup::query::plan_query(recup::query::parse_query(text), snap)
              .zone_pruned);
    }
    layers.add("query.zone_pruned", pruned);
  }
  {
    StoreCatalog fresh(store_config(scratch, false));
    const auto t0 = Clock::now();
    fresh.add_run(run);
    layers.add("segstore.flush_s", seconds_since(t0));
  }
  fs::remove_all(scratch);
}

// --- Pipeline workloads -------------------------------------------------------

/// Per-round samples of the measured rounds; each metric reports their
/// median, so a round that met a stall of the shared machine is outvoted.
struct PipelineFigures {
  std::vector<double> workflow_s, freshness_s, wal_bytes, store_bytes,
      cold_open_s, rss_mb, qps, p50_ms, p99_ms;
  std::uint64_t queries = 0;
  std::uint64_t failed_queries = 0;
};

/// One round: live run into a fresh segment store, freshness probe, closed
/// client loop, checks, cold open, memory-vs-segment comparison.
void pipeline_round(bool xgboost, std::uint64_t seed, std::uint32_t round,
                    const Sizes& z, const fs::path& work, Tracer& tracer,
                    Layers& layers, PipelineFigures& fig, Result& res) {
  const fs::path dir = work / ("round-" + std::to_string(round));
  const fs::path store = dir / "store";
  LiveInput in = live_input(xgboost, seed, round, z, dir);
  const RunFilter filter{in.workload.name, static_cast<std::int64_t>(round)};

  auto catalog = std::make_unique<StoreCatalog>(store_config(store, false));
  auto server = pinned_server(*catalog);
  LiveOutcome out = traced_live_run(in, *catalog, tracer, layers);
  fig.workflow_s.push_back(out.workflow_s);
  res.attempted += out.events_produced;
  if (out.events_ingested != out.events_produced) {
    res.failed += out.events_ingested > out.events_produced
                      ? out.events_ingested - out.events_produced
                      : out.events_produced - out.events_ingested;
    res.fail("round " + std::to_string(round) + ": ingested " +
             std::to_string(out.events_ingested) + " of " +
             std::to_string(out.events_produced) + " events");
  }

  // Freshness: the first query answered at an epoch holding the run.
  {
    auto span = tracer.span("query.freshness_probe");
    recup::query::QueryClient client(*server);
    const Sample s = ask(client, paper_shape("fig6_prefix").text, 0);
    fig.queries += 1;
    fig.failed_queries += s.ok ? 0 : 1;
    if (!s.ok || s.epoch < out.epoch) {
      res.fail("freshness probe failed or saw a stale epoch: " + s.error);
    }
    fig.freshness_s.push_back(seconds_between(out.run_end, s.done));
  }

  // Closed loop on the new epoch: a fixed number of answers.
  std::vector<std::vector<QueryText>> lists(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    lists[c] = make_mix(mix_seed(seed, round * 64 + c + 1), kMixLength, round,
                        max_task_duration(out.run));
  }
  std::vector<ClientLog> logs;
  {
    auto span = tracer.span("query.closed_loop");
    std::atomic<std::size_t> completed{0};
    logs = closed_loop(
        *server, lists,
        [&] { return completed.load() >= z.window_answers; }, completed,
        z.window_answers, false);
  }
  LoadFigures load;
  collect_logs(logs, load, res);
  fig.queries += load.latencies_ms.size();
  fig.failed_queries += load.failed;
  for (const auto& w : load.windows) {
    fig.qps.push_back(w.qps);
    fig.p50_ms.push_back(w.p50_ms);
    fig.p99_ms.push_back(w.p99_ms);
  }
  fig.rss_mb.push_back(rss_mb());  // the round's high point: store served
  if (tracer.enabled()) {
    const auto stats = server->stats();
    const double lookups =
        static_cast<double>(stats.cache.hits + stats.cache.misses);
    layers.add("query.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups
                           : 0.0);
    for (double v : load.overhead_ms) layers.add("server.overhead_ms", v);
    add_part_layers(layers, logs);
  }

  std::vector<std::string> selective;
  {
    auto span = tracer.span("bench.checks");
    const QueryFn on_writer = [&](const std::string& text) {
      return execute_cold(*catalog, text);
    };
    res.fail_all(check_run(out.run, filter, on_writer));
    // Every distinct answer the server gave must match a cache-free
    // recomputation on the same store.
    std::map<std::size_t, AnswerPrint> expected;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto& [key, first] : logs[c].firsts) {
        const QueryText& q = lists[c][key.first];
        if (q.shape == "selective") selective.push_back(q.text);
        std::string why;
        if (!same_print(first.print,
                        answer_print(execute_cold(*catalog, q.text)), &why)) {
          res.fail("round " + std::to_string(round) + " " + q.shape +
                   ": server answer differs from recomputation: " + why);
        }
      }
    }
  }
  {
    auto span = tracer.span("server.shutdown");
    server->shutdown();
    server.reset();
    catalog.reset();
  }
  fig.wal_bytes.push_back(
      static_cast<double>(out.broker_wal_bytes + out.scheduler_wal_bytes));
  fig.store_bytes.push_back(static_cast<double>(dir_bytes(store)));
  if (tracer.enabled()) {
    layers.add("segstore.segments",
               static_cast<double>(count_files(store, ".rsg")));
    layers.add("segstore.bytes", fig.store_bytes.back());
  }

  {
    // Cold open of the committed store, then the recorder path (a memory
    // catalog fed the RunData Cluster::run returned) against the
    // Mofka -> ingest -> segment path on every paper shape.
    std::unique_ptr<StoreCatalog> cold;
    {
      auto span = tracer.span("segstore.cold_open");
      const auto t0 = Clock::now();
      cold = std::make_unique<StoreCatalog>(store_config(store, true));
      fig.cold_open_s.push_back(seconds_since(t0));
    }
    auto span = tracer.span("bench.checks");
    StoreCatalog memory;
    memory.add_run(out.run);
    for (const auto& q : paper_shapes()) {
      std::string why;
      if (!same_frame(execute_cold(*cold, q.text), execute_cold(memory, q.text),
                      &why)) {
        res.fail("round " + std::to_string(round) + " " + q.shape +
                 ": segment store differs from the recorder's run: " + why);
      }
    }
  }
  if (tracer.enabled()) {
    auto span = tracer.side("bench.layer_probes");
    query_layers(layers, store, dir / "flush", out.run, selective);
    layers.add("segstore.compact_s", 0.0);
  }
  auto span = tracer.span("bench.cleanup");
  fs::remove_all(dir);
}

constexpr std::uint32_t kWarmupRound = 100000;

void run_pipeline(bool xgboost, std::uint64_t seed, double seconds,
                  const Sizes& z, const fs::path& work, Tracer& tracer,
                  Result& res) {
  Layers layers;
  PipelineFigures fig;
  {
    // Set-up ends with one untimed round (its own seeds), so first-touch
    // costs (allocator growth, page faults, directory creation) stay out
    // of the measured rounds.
    Tracer quiet(false);
    Layers unused;
    PipelineFigures warm;
    pipeline_round(xgboost, seed, kWarmupRound, z, work, quiet, unused, warm,
                   res);
  }
  const double setup_s = seconds_since(kProcessStart);
  const auto t0 = Clock::now();
  std::uint32_t round = 0;
  while (round < z.min_rounds || seconds_since(t0) < seconds) {
    pipeline_round(xgboost, seed, round, z, work, tracer, layers, fig, res);
    ++round;
  }
  const double wall = seconds_since(t0);
  res.attempted += fig.queries;
  res.failed += fig.failed_queries;
  if (tracer.enabled()) {
    const double residual = wall - tracer.attributed_s() - tracer.side_s();
    layers.add("unattributed_s", residual);
    layers.add("unattributed_share", residual / wall);
    layers.emit(res);
    return;
  }
  res.add("setup_s", setup_s, "s");
  res.add("workflow_s", lowest(fig.workflow_s), "s");
  res.add("freshness_s", lowest(fig.freshness_s), "s");
  res.add("wal_bytes", median(fig.wal_bytes), "bytes");
  res.add("store_bytes", median(fig.store_bytes), "bytes");
  res.add("cold_open_s", lowest(fig.cold_open_s), "s");
  res.add("query_qps", highest(fig.qps), "1/s");
  res.add("query_p50_ms", lowest(fig.p50_ms), "ms");
  res.add("query_p99_ms", lowest(fig.p99_ms), "ms");
  // The heap grows over the first rounds and then settles: report the
  // later half.
  res.add("rss_mb",
          median(std::vector<double>(
              fig.rss_mb.begin() + static_cast<std::ptrdiff_t>(fig.rss_mb.size() / 2),
              fig.rss_mb.end())),
          "MB");
}

// --- query_mix ----------------------------------------------------------------

/// One query_mix episode: a cold open of a copy of the set-up store, and a
/// closed loop of reads while the writer publishes `z.writes` held-back
/// runs and compacts once.
struct Episode {
  std::vector<ClientLog> logs;
  std::vector<LiveOutcome> writes;
  std::vector<double> cold_open_s;
  recup::query::ServerStats stats;
  double compact_s = 0.0;
  double store_bytes = 0.0;  ///< at the fixed point, after the last write
  double segments = 0.0;
  double rss_mb = 0.0;
};

Episode query_mix_episode(const fs::path& setup_store, const fs::path& dir,
                          std::uint64_t seed, std::uint32_t first_held,
                          const std::vector<std::vector<QueryText>>& lists,
                          const Sizes& z, Tracer& tracer, Layers& layers,
                          std::unique_ptr<StoreCatalog>& catalog, Result& res) {
  Episode ep;
  const fs::path store = dir / "store";
  fs::create_directories(dir);
  fs::copy(setup_store, store, fs::copy_options::recursive);
  {
    const auto t = Clock::now();
    StoreCatalog replica(store_config(store, true));
    ep.cold_open_s.push_back(seconds_since(t));
  }
  {
    const auto t = Clock::now();
    catalog = std::make_unique<StoreCatalog>(store_config(store, false));
    ep.cold_open_s.push_back(seconds_since(t));
  }
  auto server = pinned_server(*catalog);

  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  std::string writer_error;
  std::thread writer([&] {
    try {
      auto wait_for = [&](std::size_t n) {
        while (completed.load() < n && !stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      for (std::size_t w = 0; w < z.writes; ++w) {
        wait_for(completed.load() + z.window_answers);
        LiveInput in = live_input(true, seed,
                                  first_held + static_cast<std::uint32_t>(w),
                                  z, dir / ("write-" + std::to_string(w)));
        ep.writes.push_back(traced_live_run(in, *catalog, tracer, layers));
        fs::remove_all(in.dir);
        if (w + 1 == z.compact_after) {
          const auto t = Clock::now();
          catalog->compact();
          ep.compact_s = seconds_since(t);
        }
      }
      wait_for(completed.load() + z.window_answers);
      ep.store_bytes = static_cast<double>(committed_bytes(*catalog, store));
      ep.segments = static_cast<double>(
          catalog->segment_store()->version()->files().size());
      ep.rss_mb = rss_mb();
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    writer_done = true;
  });
  try {
    ep.logs = closed_loop(
        *server, lists, [&] { return writer_done.load(); }, completed,
        z.window_answers, true);
  } catch (...) {
    stop = true;
    writer.join();
    throw;
  }
  stop = true;
  writer.join();
  ep.stats = server->stats();
  server->shutdown();
  server.reset();
  if (!writer_error.empty()) res.fail("writer: " + writer_error);
  if (ep.writes.size() < z.writes) res.fail("writer did not finish");

  // The held-back runs against plain loops, and per-run sums against the
  // whole-store aggregate, on the served store.
  auto span = tracer.span("bench.checks");
  const QueryFn on_served = [&](const std::string& text) {
    return execute_cold(*catalog, text);
  };
  for (std::size_t w = 0; w < ep.writes.size(); ++w) {
    res.fail_all(check_run(
        ep.writes[w].run,
        RunFilter{ep.writes[w].run.meta.workflow,
                  static_cast<std::int64_t>(first_held + w)},
        on_served));
  }
  res.fail_all(check_per_run_sums(
      catalog->snapshot().runs(std::nullopt, std::nullopt), on_served));
  return ep;
}

void run_query_mix(std::uint64_t seed, double seconds, const Sizes& z,
                   const fs::path& work, Tracer& tracer, Result& res) {
  Layers layers;
  const fs::path setup_store = work / "store";

  // Set-up: bare runs (no capture) into a segment store, via add_run.
  std::vector<recup::dtr::RunData> store_runs;
  {
    StoreCatalog writer(store_config(setup_store, false));
    Sizes big = z;
    big.ip_images = z.store_ip_images;
    big.xgb_partitions = z.store_xgb_partitions;
    big.xgb_rounds = z.store_xgb_rounds;
    for (std::uint32_t i = 0; i < z.store_runs; ++i) {
      LiveInput in = live_input(i % 2 == 1, seed, i / 2, big, work);
      recup::dtr::ClusterConfig config = in.workload.cluster;
      config.seed = in.cluster_seed;
      config.enable_mofka = false;
      recup::dtr::Cluster cluster(config);
      if (in.workload.prepare) in.workload.prepare(cluster.vfs());
      recup::RngStream rng(in.graph_seed);
      store_runs.push_back(cluster.run(in.workload.build_graphs(rng),
                                       in.workload.name, in.run_index));
      writer.add_run(store_runs.back());
    }
  }
  // Held-back run indices continue after the store's bare runs.
  const auto first_held = static_cast<std::uint32_t>((z.store_runs + 1) / 2);
  double max_duration = 0.0;
  for (const auto& r : store_runs) {
    max_duration = std::max(max_duration, max_task_duration(r));
  }
  // Every episode sends the same seeded stream (wrapping if it outlasts
  // it) and publishes the same held-back runs, so episodes repeat one unit.
  std::vector<std::vector<QueryText>> lists(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    lists[c] = make_mix(mix_seed(seed, 1000 + c), kMixLength,
                        first_held + static_cast<std::uint32_t>(z.writes),
                        max_duration);
  }
  const double setup_s = seconds_since(kProcessStart);

  // Measured: whole episodes until `seconds` passed.
  std::vector<Episode> episodes;
  std::unique_ptr<StoreCatalog> catalog;  // the last episode's, kept
  const auto t0 = Clock::now();
  for (std::uint32_t e = 0; e < z.min_episodes || seconds_since(t0) < seconds;
       ++e) {
    catalog.reset();
    fs::remove_all(work / "episode");
    episodes.push_back(query_mix_episode(setup_store, work / "episode", seed,
                                         first_held, lists, z, tracer, layers,
                                         catalog, res));
  }

  // Every distinct (text, stage) answer against a cache-free memory
  // catalog fed the same runs. Stage k = the store runs plus the first k
  // held-back runs: the runs visible at an epoch. Each is recomputed once,
  // on all cores, on one memory catalog that grows stage by stage.
  std::map<std::pair<std::string, std::size_t>, AnswerPrint> expected;
  std::vector<std::string> selective;
  auto stage_of = [](const Episode& ep, Epoch epoch) {
    std::size_t stage = 0;
    for (const auto& w : ep.writes) stage += epoch >= w.epoch ? 1 : 0;
    return stage;
  };
  for (const auto& ep : episodes) {
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto& [key, first] : ep.logs[c].firsts) {
        const QueryText& q = lists[c][key.first];
        if (expected.try_emplace({q.text, stage_of(ep, key.second)}).second &&
            q.shape == "selective") {
          selective.push_back(q.text);
        }
      }
    }
  }
  {
    auto span = tracer.span("bench.checks");
    const auto& writes = episodes.front().writes;
    StoreCatalog memory;
    for (const auto& r : store_runs) memory.add_run(r);
    for (std::size_t stage = 0; stage <= writes.size(); ++stage) {
      if (stage > 0) memory.add_run(writes[stage - 1].run);
      std::vector<std::pair<const std::pair<std::string, std::size_t>,
                            AnswerPrint>*>
          todo;
      for (auto& entry : expected) {
        if (entry.first.second == stage) todo.push_back(&entry);
      }
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      const unsigned threads =
          std::max(1u, std::thread::hardware_concurrency());
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          for (std::size_t i = next++; i < todo.size(); i = next++) {
            todo[i]->second =
                answer_print(execute_cold(memory, todo[i]->first.first));
          }
        });
      }
      for (auto& t : pool) t.join();
    }
  }
  for (const auto& ep : episodes) {
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto& [key, first] : ep.logs[c].firsts) {
        const QueryText& q = lists[c][key.first];
        std::string why;
        if (!same_print(first.print,
                        expected.at({q.text, stage_of(ep, key.second)}),
                        &why)) {
          res.fail(q.shape + " at epoch " + std::to_string(key.second) +
                   " differs from the memory catalog: " + why);
        }
      }
    }
  }

  // Figures: per write (workflow, freshness), per open (cold open), and
  // per write cycle, the answers at one epoch (query figures).
  LoadFigures load;
  std::vector<double> freshness_s;
  std::vector<double> workflow_s;
  std::vector<double> wal_bytes;
  std::vector<double> cold_open_s;
  for (const auto& ep : episodes) {
    collect_logs(ep.logs, load, res);
    cold_open_s.insert(cold_open_s.end(), ep.cold_open_s.begin(),
                       ep.cold_open_s.end());
    for (const auto& w : ep.writes) {
      // The first answer, on any client, at an epoch holding the run.
      double first = -1.0;
      for (const auto& log : ep.logs) {
        for (auto it = log.first_done.lower_bound(w.epoch);
             it != log.first_done.end(); ++it) {
          const double f = seconds_between(w.run_end, it->second);
          if (first < 0 || f < first) first = f;
        }
      }
      if (first < 0) res.fail("no query observed a held-back run");
      freshness_s.push_back(first);
      workflow_s.push_back(w.workflow_s);
      wal_bytes.push_back(
          static_cast<double>(w.broker_wal_bytes + w.scheduler_wal_bytes));
      res.attempted += w.events_produced;
      if (w.events_ingested != w.events_produced) {
        res.failed += w.events_ingested > w.events_produced
                          ? w.events_ingested - w.events_produced
                          : w.events_produced - w.events_ingested;
        res.fail("held-back run: ingested " +
                 std::to_string(w.events_ingested) + " of " +
                 std::to_string(w.events_produced) + " events");
      }
    }
  }
  res.attempted += load.latencies_ms.size();
  res.failed += load.failed;
  const Episode& first_ep = episodes.front();

  if (tracer.enabled()) {
    double hits = 0.0;
    double lookups = 0.0;
    double client_s = 0.0;
    double roundtrip_s = 0.0;
    for (const auto& ep : episodes) {
      hits += static_cast<double>(ep.stats.cache.hits);
      lookups += static_cast<double>(ep.stats.cache.hits +
                                     ep.stats.cache.misses);
      layers.add("segstore.compact_s", ep.compact_s);
      for (const auto& log : ep.logs) {
        client_s += log.wall_s;
        roundtrip_s += log.roundtrip_s;
      }
      add_part_layers(layers, ep.logs);
    }
    layers.add("query.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
    for (double v : load.overhead_ms) layers.add("server.overhead_ms", v);
    layers.add("segstore.segments", first_ep.segments);
    layers.add("segstore.bytes", first_ep.store_bytes);
    catalog.reset();
    query_layers(layers, work / "episode" / "store", work / "flush",
                 first_ep.writes.empty() ? store_runs.front()
                                         : first_ep.writes.front().run,
                 selective);
    // The clients are the path here: the residual is client time not
    // spent waiting on a round trip.
    layers.add("unattributed_s", client_s - roundtrip_s);
    layers.add("unattributed_share",
               client_s > 0 ? (client_s - roundtrip_s) / client_s : 0.0);
    layers.emit(res);
    return;
  }
  // One window per epoch: its first answers, from the cache misses after a
  // publish (or the cold open) on.
  std::vector<double> qps;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  for (const auto& w : load.windows) {
    qps.push_back(w.qps);
    p50_ms.push_back(w.p50_ms);
    p99_ms.push_back(w.p99_ms);
  }
  if (qps.size() < 3) res.fail("fewer than 3 query windows");
  res.add("setup_s", setup_s, "s");
  res.add("workflow_s", lowest(workflow_s), "s");
  res.add("freshness_s", lowest(freshness_s), "s");
  res.add("wal_bytes", median(wal_bytes), "bytes");
  res.add("store_bytes", first_ep.store_bytes, "bytes");
  res.add("cold_open_s", lowest(cold_open_s), "s");
  res.add("query_qps", highest(qps), "1/s");
  res.add("query_p50_ms", lowest(p50_ms), "ms");
  res.add("query_p99_ms", lowest(p99_ms), "ms");
  res.add("rss_mb", first_ep.rss_mb, "MB");
}

// --- Entry point -------------------------------------------------------------------

Result run_workload(const std::string& workload, std::uint64_t seed,
                    double seconds, bool trace, const Sizes& z,
                    const fs::path& work) {
  Tracer tracer(trace);
  Result res;
  fs::create_directories(work);
  if (workload == "image_online") {
    run_pipeline(false, seed, seconds, z, work, tracer, res);
  } else if (workload == "xgboost_online") {
    run_pipeline(true, seed, seconds, z, work, tracer, res);
  } else if (workload == "query_mix") {
    run_query_mix(seed, seconds, z, work, tracer, res);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return res;
}

std::string result_json(const Result& res) {
  std::ostringstream o;
  o << "{\"correct\": " << (res.errors.empty() ? "true" : "false")
    << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
      << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

/// The checks must reject altered results: one dropped task row, one
/// changed aggregate, one dropped group in a whole-store answer.
int self_test(const fs::path& work) {
  const Sizes z = smoke_sizes();
  LiveInput in = live_input(true, 7, 0, z, work);
  recup::dtr::ClusterConfig config = in.workload.cluster;
  config.seed = in.cluster_seed;
  config.enable_mofka = false;
  recup::dtr::Cluster cluster(config);
  if (in.workload.prepare) in.workload.prepare(cluster.vfs());
  recup::RngStream rng(in.graph_seed);
  const recup::dtr::RunData run =
      cluster.run(in.workload.build_graphs(rng), in.workload.name, 0);
  StoreCatalog memory;
  memory.add_run(run);
  const QueryFn query = [&](const std::string& text) {
    return execute_cold(memory, text);
  };
  const RunFilter filter{run.meta.workflow, 0};
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
    if (!ok) ++failures;
  };

  expect(check_run(run, filter, query).empty(),
         "unaltered run passes the loop checks");
  recup::dtr::RunData dropped = run;
  dropped.tasks.pop_back();
  expect(!check_run(dropped, filter, query).empty(),
         "a run with one task row dropped is rejected");

  const DataFrame answer = query(paper_shape("fig6_prefix").text);
  std::vector<recup::analysis::Column> columns;
  for (std::size_t c = 0; c < answer.width(); ++c) {
    const auto& src = answer.col(c);
    recup::analysis::Column copy(src.name(), src.type());
    for (std::size_t r = 0; r < answer.rows(); ++r) {
      if (src.name() == "busy_s" && r == 0) {
        copy.push_f64(src.f64(r) * 1.001);
      } else {
        copy.push(src.cell(r));
      }
    }
    columns.push_back(std::move(copy));
  }
  const DataFrame altered = DataFrame::from_columns(std::move(columns));
  std::string why;
  expect(same_frame(answer, query(paper_shape("fig6_prefix").text), &why),
         "an answer equals its recomputation");
  const bool altered_equal = same_frame(answer, altered, &why);
  expect(!altered_equal,
         "an answer with one changed aggregate is rejected (" + why + ")");
  const bool altered_print_equal = same_print(
      answer_print(answer), answer_print(altered.sort_by("n")), &why);
  expect(!altered_print_equal, "its print is rejected too (" + why + ")");
  expect(same_print(answer_print(answer),
                    answer_print(query(paper_shape("fig6_prefix").text)), &why),
         "the print of a recomputation matches");

  const auto ids = memory.snapshot().runs(std::nullopt, std::nullopt);
  expect(check_per_run_sums(ids, query).empty(),
         "per-run sums equal the whole-store aggregate");
  const QueryFn drops_a_group = [&](const std::string& text) {
    DataFrame f = query(text);
    if (text.find("\"run\":") == std::string::npos && f.rows() > 1) {
      std::vector<char> keep(f.rows(), 1);
      keep[0] = 0;
      f = f.filter_mask(keep);
    }
    return f;
  };
  expect(!check_per_run_sums(ids, drops_a_group).empty(),
         "a whole-store answer with one group dropped is rejected");
  return failures;
}

int smoke(const fs::path& work) {
  const Sizes z = smoke_sizes();
  int failures = 0;
  for (const char* workload : {"image_online", "xgboost_online", "query_mix"}) {
    for (bool trace : {false, true}) {
      const Result res =
          run_workload(workload, 7, 0.2, trace, z, work / workload);
      const bool ok = res.errors.empty() && res.failed == 0;
      std::cout << (ok ? "ok   " : "FAIL ") << workload << " trace=" << trace
                << " attempted=" << res.attempted << "\n";
      for (const auto& e : res.errors) std::cout << "    " << e << "\n";
      if (!ok) ++failures;
    }
  }
  std::cout << "checker self-test\n";
  failures += self_test(work / "self_test");
  fs::remove_all(work);
  std::cout << (failures == 0 ? "smoke ok" : "smoke FAILED") << std::endl;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke_mode = false;
  std::filesystem::path work = ".bench_work/pipebench";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::stoull(value());
    } else if (a == "--seconds") {
      seconds = std::stod(value());
    } else if (a == "--trace") {
      trace = value() == "1";
    } else if (a == "--workdir") {
      work = value();
    } else if (a == "--smoke") {
      smoke_mode = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return 2;
    }
  }
  try {
    if (smoke_mode) return smoke(work);
    if (workload.empty()) {
      std::cerr << "--workload is required\n";
      return 2;
    }
    const Result res =
        run_workload(workload, seed, seconds, trace, Sizes{}, work);
    std::filesystem::remove_all(work);
    for (const auto& e : res.errors) std::cerr << "check failed: " << e << "\n";
    std::cout << result_json(res) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::filesystem::remove_all(work);
    std::cerr << "pipebench: " << e.what() << "\n";
    return 1;
  }
}
