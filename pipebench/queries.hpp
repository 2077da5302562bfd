// The benchmark's query texts: the paper-shaped queries every workload
// answers, and the seeded query_mix stream (repeated shapes, unique
// predicates, zone-map-selective predicates, cross-run group-bys).
//
// Every query is a group-by with order-insensitive aggregates (count, sum,
// mean, min, max, count_distinct) and no limit, so two backends or two
// capture paths that hold the same rows must return the same set of rows,
// whatever their row order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pipebench {

struct QueryText {
  std::string shape;  ///< shape name (per-layer query.exec_ms.<shape>)
  std::string text;   ///< JSON query document
};

/// Optional pushdown to one run of one workflow.
struct RunFilter {
  std::string workflow;
  std::int64_t run = 0;
};

/// The paper shapes, in a fixed order: fig6_prefix (task count, busy time
/// and mean duration per prefix), worker_busy, state_keys (distinct keys
/// per transition target state), fig7_warnings, fig8_task_io (fused I/O
/// time per file and op), io_ops, comms_volume, run_totals (cross-run).
std::vector<QueryText> paper_shapes(
    const std::optional<RunFilter>& filter = std::nullopt);

/// One shape by name (throws on an unknown name).
QueryText paper_shape(const std::string& shape,
                      const std::optional<RunFilter>& filter = std::nullopt);

/// Row count of one view, grouped by run (one row per visible run).
std::string count_rows_query(const std::string& view,
                             const std::optional<RunFilter>& filter);

/// The parts of the query_mix stream, in the order of kMixParts.
/// "repeated": paper shapes over the whole store (cache hits after first
/// use); "unique": one run and a fresh duration threshold (cache misses);
/// "selective": run >= k and a high duration bar (zone maps prune runs);
/// "cross_run": group-bys by (workflow, run) over tasks, transitions and
/// comms.
inline constexpr const char* kMixParts[] = {"repeated", "unique",
                                            "selective", "cross_run"};

/// The part of the mix `q` belongs to: "repeated" for a paper shape, else
/// its shape name.
std::string mix_part(const QueryText& q);

/// The seeded query_mix stream of `count` queries: 50 % repeated, 20 %
/// unique, 15 % selective, 15 % cross_run. `max_run` is the largest run
/// index of the store; `max_duration` the longest task in seconds.
std::vector<QueryText> make_mix(std::uint64_t seed, std::size_t count,
                                std::int64_t max_run, double max_duration);

}  // namespace pipebench
