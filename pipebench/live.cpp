#include "live.hpp"

#include <condition_variable>
#include <mutex>
#include <thread>

#include "dtr/cluster.hpp"
#include "query/ingest.hpp"

namespace pipebench {
namespace {

constexpr const char* kWmsTopics[] = {"wms_transitions", "wms_tasks",
                                      "wms_comms", "wms_warnings",
                                      "wms_cluster"};

/// Times one run of the workflow under `config` (a traced side run). A run
/// with capture on is tailed like the live run, at the same cadence, into
/// a throwaway memory catalog, so that it differs from the live run only
/// in durability.
void side_run(const LiveInput& in, recup::dtr::ClusterConfig config,
              Tracer& tracer, const std::string& name) {
  recup::dtr::Cluster cluster(config);
  if (in.workload.prepare) in.workload.prepare(cluster.vfs());
  recup::RngStream rng(in.graph_seed);
  auto graphs = in.workload.build_graphs(rng);
  recup::query::StoreCatalog throwaway;
  std::unique_ptr<recup::query::LiveIngestor> tail;
  if (config.enable_mofka) {
    tail = std::make_unique<recup::query::LiveIngestor>(cluster.broker(),
                                                        throwaway);
    tail->start(std::chrono::milliseconds(5));
  }
  recup::dtr::RunData run;
  {
    auto span = tracer.side(name);
    run = cluster.run(std::move(graphs), in.workload.name, in.run_index);
  }
  if (tail) tail->stop();
  if (name == "dtr.bare_run") {
    tracer.count("dtr.tasks", static_cast<double>(run.tasks.size()));
    tracer.count("dtr.transitions",
                 static_cast<double>(run.transitions.size()));
  }
}

/// The traced tail: the same 5 ms polling cadence as LiveIngestor::start,
/// with every poll timed.
class TimedTail {
 public:
  TimedTail(recup::query::LiveIngestor& ingestor, Tracer& tracer)
      : thread_([this, &ingestor, &tracer] {
          std::unique_lock lock(mutex_);
          while (running_) {
            lock.unlock();
            {
              auto span = tracer.concurrent("ingest.poll");
              ingestor.poll();
            }
            tracer.count("ingest.polls", 1.0);
            lock.lock();
            cv_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return !running_; });
          }
        }) {}
  ~TimedTail() { stop(); }
  TimedTail(const TimedTail&) = delete;
  TimedTail& operator=(const TimedTail&) = delete;

  void stop() {
    {
      std::lock_guard lock(mutex_);
      running_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = true;
  std::thread thread_;
};

}  // namespace

LiveOutcome live_run(const LiveInput& in, recup::query::StoreCatalog& catalog,
                     Tracer& tracer) {
  recup::dtr::ClusterConfig config = in.workload.cluster;
  config.seed = in.cluster_seed;
  config.enable_mofka = true;
  config.enable_darshan_streaming = true;

  if (tracer.enabled()) {
    recup::dtr::ClusterConfig bare = config;
    bare.enable_mofka = false;
    bare.enable_darshan_streaming = false;
    side_run(in, bare, tracer, "dtr.bare_run");
    side_run(in, config, tracer, "capture.run");
  }

  config.durability.dir = (in.dir / "durable").string();
  LiveOutcome out;
  std::unique_ptr<recup::dtr::Cluster> cluster;
  std::vector<recup::dtr::TaskGraph> graphs;
  {
    auto span = tracer.span("dtr.setup");
    cluster = std::make_unique<recup::dtr::Cluster>(config);
    if (in.workload.prepare) in.workload.prepare(cluster->vfs());
    recup::RngStream rng(in.graph_seed);
    graphs = in.workload.build_graphs(rng);
  }
  auto ingestor =
      std::make_unique<recup::query::LiveIngestor>(cluster->broker(), catalog);
  std::unique_ptr<TimedTail> timed_tail;
  if (tracer.enabled()) {
    timed_tail = std::make_unique<TimedTail>(*ingestor, tracer);
  } else {
    ingestor->start(std::chrono::milliseconds(5));
  }
  {
    auto span = tracer.span("dtr.durable_run");
    const auto t0 = Clock::now();
    out.run = cluster->run(std::move(graphs), in.workload.name, in.run_index);
    out.run_end = Clock::now();
    out.workflow_s = seconds_between(t0, out.run_end);
  }
  if (timed_tail) {
    timed_tail->stop();
  } else {
    ingestor->stop();
  }
  {
    auto span = tracer.span("ingest.publish");
    out.epoch = ingestor->publish(out.run.meta);
  }

  out.events_ingested = ingestor->stats().events_consumed;
  timed_tail.reset();
  ingestor.reset();
  for (const char* topic : kWmsTopics) {
    out.events_produced += cluster->broker().topic_stats(topic).events;
  }
  for (const auto& topic : cluster->broker().topic_names()) {
    out.event_bytes += cluster->broker().topic_stats(topic).bytes_wire;
  }
  if (cluster->datastore() != nullptr) {
    out.datastore = cluster->datastore()->stats();
  }
  cluster.reset();  // closes the WALs before they are measured
  out.broker_wal_bytes = dir_bytes(in.dir / "durable" / "broker");
  out.scheduler_wal_bytes = dir_bytes(in.dir / "durable" / "scheduler");
  return out;
}

}  // namespace pipebench
