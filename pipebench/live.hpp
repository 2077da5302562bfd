// One live pipeline run: an instrumented, durable dtr::Cluster streams
// provenance through the Mofka plugins (and Darshan records through the
// bridge) into a WAL-backed broker and scheduler journal, while a
// query::LiveIngestor tails the broker; when the run returns, the ingestor
// publishes it into the given catalog.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "datastore/store.hpp"
#include "dtr/recorder.hpp"
#include "query/catalog.hpp"
#include "workloads/workload.hpp"

namespace pipebench {

/// splitmix64 finaliser over (a, b): independent seeds per round and role.
inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct LiveInput {
  recup::workloads::Workload workload;
  std::uint64_t cluster_seed = 0;
  std::uint64_t graph_seed = 0;
  std::uint32_t run_index = 0;
  /// Durability root of this run (broker WAL + scheduler journal).
  std::filesystem::path dir;
};

struct LiveOutcome {
  recup::dtr::RunData run;  ///< what Cluster::run returned (recorder path)
  double workflow_s = 0.0;  ///< wall time of the instrumented Cluster::run
  Clock::time_point run_end;
  recup::query::Epoch epoch = 0;  ///< catalog epoch after the publish
  std::uint64_t events_produced = 0;  ///< on the WMS topics
  std::uint64_t events_ingested = 0;
  std::uint64_t event_bytes = 0;  ///< wire bytes over every topic
  std::uint64_t broker_wal_bytes = 0;
  std::uint64_t scheduler_wal_bytes = 0;
  recup::datastore::DataStoreStats datastore;
};

/// Runs `in` through the pipeline into `catalog`. A traced run also times
/// the same workflow bare (enable_mofka = false) and with capture but no
/// durability, and tails the broker with its own timed poll loop instead
/// of LiveIngestor::start.
LiveOutcome live_run(const LiveInput& in, recup::query::StoreCatalog& catalog,
                     Tracer& tracer);

}  // namespace pipebench
