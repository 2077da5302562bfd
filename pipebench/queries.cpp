#include "queries.hpp"

#include <cstdio>
#include <random>
#include <stdexcept>

namespace pipebench {
namespace {

std::string pushdown(const std::optional<RunFilter>& filter) {
  if (!filter) return "";
  return "\"workflow\": \"" + filter->workflow +
         "\", \"run\": " + std::to_string(filter->run) + ", ";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct ShapeDef {
  const char* name;
  const char* view;
  const char* body;  ///< everything after "from"/pushdown
};

constexpr ShapeDef kShapes[] = {
    {"fig6_prefix", "tasks",
     R"("group_by": ["prefix"], "aggregates": [)"
     R"({"col": "key", "op": "count", "as": "n"}, )"
     R"({"col": "duration", "op": "sum", "as": "busy_s"}, )"
     R"({"col": "duration", "op": "mean", "as": "mean_s"}]})"},
    {"worker_busy", "tasks",
     R"("group_by": ["worker"], "aggregates": [)"
     R"({"col": "key", "op": "count", "as": "n"}, )"
     R"({"col": "duration", "op": "sum", "as": "busy_s"}]})"},
    {"state_keys", "transitions",
     R"("group_by": ["to"], "aggregates": [)"
     R"({"col": "key", "op": "count_distinct", "as": "keys"}]})"},
    {"fig7_warnings", "warnings",
     R"("group_by": ["kind"], "aggregates": [)"
     R"({"col": "kind", "op": "count", "as": "n"}, )"
     R"({"col": "blocked_for", "op": "sum", "as": "blocked_s"}]})"},
    {"fig8_task_io", "task_io",
     R"("group_by": ["file", "op"], "aggregates": [)"
     R"({"col": "duration", "op": "sum", "as": "io_s"}, )"
     R"({"col": "task_key", "op": "count_distinct", "as": "tasks"}]})"},
    {"io_ops", "io_segments",
     R"("group_by": ["op"], "aggregates": [)"
     R"({"col": "length", "op": "sum", "as": "bytes"}, )"
     R"({"col": "duration", "op": "max", "as": "longest_s"}]})"},
    {"comms_volume", "comms",
     R"("group_by": ["cross_node"], "aggregates": [)"
     R"({"col": "bytes", "op": "sum", "as": "bytes"}, )"
     R"({"col": "key", "op": "count", "as": "n"}]})"},
    {"run_totals", "tasks",
     R"("group_by": ["workflow", "run"], "aggregates": [)"
     R"({"col": "key", "op": "count", "as": "n"}, )"
     R"({"col": "duration", "op": "sum", "as": "busy_s"}, )"
     R"({"col": "worker", "op": "count_distinct", "as": "workers"}]})"},
};

QueryText build(const ShapeDef& def, const std::optional<RunFilter>& filter) {
  return {def.name, std::string("{\"from\": \"") + def.view + "\", " +
                        pushdown(filter) + def.body};
}

}  // namespace

std::vector<QueryText> paper_shapes(const std::optional<RunFilter>& filter) {
  std::vector<QueryText> out;
  for (const auto& def : kShapes) out.push_back(build(def, filter));
  return out;
}

QueryText paper_shape(const std::string& shape,
                      const std::optional<RunFilter>& filter) {
  for (const auto& def : kShapes) {
    if (shape == def.name) return build(def, filter);
  }
  throw std::invalid_argument("unknown query shape: " + shape);
}

std::string count_rows_query(const std::string& view,
                             const std::optional<RunFilter>& filter) {
  return "{\"from\": \"" + view + "\", " + pushdown(filter) +
         R"("group_by": ["run"], "aggregates": [{"op": "count", "as": "n"}]})";
}

std::string mix_part(const QueryText& q) {
  for (const auto& def : kShapes) {
    if (q.shape == def.name) return kMixParts[0];
  }
  return q.shape;
}

std::vector<QueryText> make_mix(std::uint64_t seed, std::size_t count,
                                std::int64_t max_run, double max_duration) {
  // Shares in percent. No recorded query log exists to take them from: they
  // are an assumption, and traced runs report latency per part.
  constexpr int kRepeated = 50;
  constexpr int kUnique = 20;
  constexpr int kSelective = 15;
  std::mt19937_64 rng(seed ^ 0x7175657279ULL);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<std::size_t> shape(0, std::size(kShapes) - 1);
  std::uniform_int_distribution<std::int64_t> run(0, max_run);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // The selective bars come from a small fixed set so those texts repeat
  // (they hit the cache after first use); the unique thresholds never do.
  const double bars[] = {0.5, 0.7, 0.85};
  const char* cross_views[] = {"tasks", "transitions", "comms"};
  std::vector<QueryText> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int p = pct(rng);
    if (p < kRepeated) {
      out.push_back(build(kShapes[shape(rng)], std::nullopt));
    } else if (p < kRepeated + kUnique) {
      // One run index (pushed down), and a threshold distinct from every
      // other one in the stream: the query index is in its low digits.
      const double thr = max_duration * 0.5 * unit(rng) +
                         1e-9 * static_cast<double>(i + 1);
      out.push_back(
          {"unique",
           R"({"from": "tasks", "run": )" + std::to_string(run(rng)) +
               R"(, "where": [{"col": "duration", "op": ">", "value": )" +
               number(thr) +
               R"(}], "group_by": ["prefix"], "aggregates": [)"
               R"({"col": "key", "op": "count", "as": "n"}, )"
               R"({"col": "duration", "op": "sum", "as": "busy_s"}]})"});
    } else if (p < kRepeated + kUnique + kSelective) {
      const double bar = max_duration * bars[i % std::size(bars)];
      out.push_back(
          {"selective",
           R"({"from": "tasks", "where": [{"col": "run", "op": ">=", "value": )" +
               std::to_string(run(rng)) +
               R"(}, {"col": "duration", "op": ">", "value": )" +
               number(bar) +
               R"(}], "group_by": ["workflow", "run", "prefix"], )"
               R"("aggregates": [{"col": "key", "op": "count", "as": "n"}]})"});
    } else {
      const char* view = cross_views[i % std::size(cross_views)];
      out.push_back({"cross_run",
                     std::string("{\"from\": \"") + view +
                         R"(", "group_by": ["workflow", "run"], )"
                         R"("aggregates": [{"col": "key", "op": "count", )"
                         R"("as": "n"}, {"col": "key", "op": )"
                         R"("count_distinct", "as": "keys"}]})"});
    }
  }
  return out;
}

}  // namespace pipebench
