#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "query/ir.hpp"
#include "query/plan.hpp"

namespace pipebench {

using recup::analysis::Column;
using recup::analysis::ColumnType;
using recup::analysis::DataFrame;

namespace {

double num(const Column& c, std::size_t row) {
  return c.type() == ColumnType::kInt64 ? static_cast<double>(c.i64(row))
                                        : c.f64(row);
}

bool close(double a, double b) {
  if (a == b) return true;
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Compares a grouped answer keyed by one column with expected values.
template <typename Key>
void expect_groups(const std::string& what, const DataFrame& frame,
                   const std::string& key_col, const std::string& value_col,
                   const std::map<Key, double>& expected,
                   std::vector<std::string>& errors) {
  if (frame.rows() != expected.size()) {
    errors.push_back(what + ": " + std::to_string(frame.rows()) +
                     " groups, loops give " + std::to_string(expected.size()));
    return;
  }
  const Column& keys = frame.col(key_col);
  const Column& values = frame.col(value_col);
  for (std::size_t r = 0; r < frame.rows(); ++r) {
    Key key;
    if constexpr (std::is_same_v<Key, std::string>) {
      key = keys.str(r);
    } else {
      key = keys.i64(r);
    }
    auto it = expected.find(key);
    if (it == expected.end()) {
      errors.push_back(what + ": unexpected group " + keys.display(r));
    } else if (!close(num(values, r), it->second)) {
      errors.push_back(what + " of " + keys.display(r) + ": store " +
                       fmt(num(values, r)) + ", loops " + fmt(it->second));
    }
  }
}

/// Sort key of one row for the order-insensitive comparison: exact text of
/// int and string cells, doubles rounded so summation-order noise cannot
/// reorder rows.
std::string row_key(const DataFrame& f, std::size_t r) {
  std::string key;
  for (std::size_t c = 0; c < f.width(); ++c) {
    const Column& col = f.col(c);
    if (col.type() == ColumnType::kDouble) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", col.f64(r));
      key += buf;
    } else {
      key += col.display(r);
    }
    key += '\x1f';
  }
  return key;
}

std::vector<std::size_t> sorted_rows(const DataFrame& f) {
  std::vector<std::string> keys(f.rows());
  for (std::size_t r = 0; r < f.rows(); ++r) keys[r] = row_key(f, r);
  std::vector<std::size_t> order(f.rows());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  return order;
}

}  // namespace

DataFrame execute_cold(const recup::query::StoreCatalog& catalog,
                       const std::string& text) {
  return *recup::query::execute_query(recup::query::parse_query(text), catalog,
                                      nullptr)
              .frame;
}

std::vector<std::string> check_run(const recup::dtr::RunData& run,
                                   const RunFilter& filter,
                                   const QueryFn& query) {
  std::vector<std::string> errors;
  const std::string id =
      filter.workflow + "/" + std::to_string(filter.run) + " ";

  const std::pair<const char*, std::size_t> views[] = {
      {"tasks", run.tasks.size()},
      {"transitions", run.transitions.size()},
      {"comms", run.comms.size()},
      {"warnings", run.warnings.size()}};
  for (const auto& [view, size] : views) {
    const DataFrame f = query(count_rows_query(view, filter));
    const double rows = f.rows() == 0 ? 0.0 : num(f.col("n"), 0);
    if (f.rows() > 1 || rows != static_cast<double>(size)) {
      errors.push_back(id + view + ": store holds " + fmt(rows) +
                       " rows, the run returned " + std::to_string(size));
    }
  }

  std::map<std::string, double> per_prefix_n;
  std::map<std::string, double> per_prefix_s;
  std::map<std::int64_t, double> per_worker_s;
  for (const auto& t : run.tasks) {
    per_prefix_n[t.prefix] += 1.0;
    per_prefix_s[t.prefix] += t.end_time - t.start_time;
    per_worker_s[static_cast<std::int64_t>(t.worker)] +=
        t.end_time - t.start_time;
  }
  const DataFrame prefixes = query(paper_shape("fig6_prefix", filter).text);
  expect_groups(id + "count per prefix", prefixes, "prefix", "n",
                per_prefix_n, errors);
  expect_groups(id + "duration sum per prefix", prefixes, "prefix", "busy_s",
                per_prefix_s, errors);
  expect_groups(id + "duration sum per worker",
                query(paper_shape("worker_busy", filter).text), "worker",
                "busy_s", per_worker_s, errors);

  std::map<std::string, std::set<std::string>> keys_by_state;
  for (const auto& t : run.transitions) {
    keys_by_state[t.to_state].insert(t.key.to_string());
  }
  std::map<std::string, double> distinct_by_state;
  for (const auto& [state, keys] : keys_by_state) {
    distinct_by_state[state] = static_cast<double>(keys.size());
  }
  expect_groups(id + "distinct keys per state",
                query(paper_shape("state_keys", filter).text), "to", "keys",
                distinct_by_state, errors);
  return errors;
}

bool same_frame(const DataFrame& a, const DataFrame& b, std::string* why) {
  auto fail = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (a.width() != b.width()) return fail("column counts differ");
  for (std::size_t c = 0; c < a.width(); ++c) {
    if (a.col(c).name() != b.col(c).name() ||
        a.col(c).type() != b.col(c).type()) {
      return fail("column " + std::to_string(c) + " differs: " +
                  a.col(c).name() + " vs " + b.col(c).name());
    }
  }
  if (a.rows() != b.rows()) {
    return fail("row counts differ: " + std::to_string(a.rows()) + " vs " +
                std::to_string(b.rows()));
  }
  const auto ra = sorted_rows(a);
  const auto rb = sorted_rows(b);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    for (std::size_t c = 0; c < a.width(); ++c) {
      const Column& ca = a.col(c);
      const Column& cb = b.col(c);
      const bool equal = ca.type() == ColumnType::kDouble
                             ? close(ca.f64(ra[i]), cb.f64(rb[i]))
                             : ca.display(ra[i]) == cb.display(rb[i]);
      if (!equal) {
        return fail("column " + ca.name() + ": " + ca.display(ra[i]) +
                    " vs " + cb.display(rb[i]));
      }
    }
  }
  return true;
}

AnswerPrint answer_print(const DataFrame& f) {
  std::vector<std::string> keys(f.rows());
  for (std::size_t r = 0; r < f.rows(); ++r) {
    for (std::size_t c = 0; c < f.width(); ++c) {
      if (f.col(c).type() != ColumnType::kDouble) {
        keys[r] += f.col(c).display(r);
        keys[r] += '\x1f';
      }
    }
  }
  std::vector<std::size_t> order(f.rows());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  AnswerPrint p;
  p.rows = f.rows();
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& text) {
    for (unsigned char ch : text) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (std::size_t c = 0; c < f.width(); ++c) {
    mix(f.col(c).name());
    mix(std::to_string(static_cast<int>(f.col(c).type())));
  }
  for (std::size_t r : order) mix(keys[r]);
  p.exact = h;
  for (std::size_t c = 0; c < f.width(); ++c) {
    const Column& col = f.col(c);
    if (col.type() != ColumnType::kDouble) continue;
    double sum = 0.0, weighted = 0.0, abs_sum = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const double v = col.f64(order[i]);
      sum += v;
      weighted += static_cast<double>(i + 1) * v;
      abs_sum += std::fabs(v) * static_cast<double>(i + 1);
    }
    p.sums.insert(p.sums.end(), {sum, weighted, abs_sum});
  }
  return p;
}

bool same_print(const AnswerPrint& a, const AnswerPrint& b, std::string* why) {
  auto fail = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (a.rows != b.rows) {
    return fail("row counts differ: " + std::to_string(a.rows) + " vs " +
                std::to_string(b.rows));
  }
  if (a.exact != b.exact || a.sums.size() != b.sums.size()) {
    return fail("keys, counts or schema differ");
  }
  for (std::size_t i = 0; i < a.sums.size(); i += 3) {
    const double scale = std::max({1e-300, a.sums[i + 2], b.sums[i + 2]});
    for (std::size_t k = 0; k < 2; ++k) {
      if (std::fabs(a.sums[i + k] - b.sums[i + k]) > 1e-9 * scale) {
        return fail("double column sums differ: " + fmt(a.sums[i + k]) +
                    " vs " + fmt(b.sums[i + k]));
      }
    }
  }
  return true;
}

std::vector<std::string> check_per_run_sums(
    const std::vector<recup::prov::RunId>& runs, const QueryFn& query) {
  std::map<std::string, double> n;
  std::map<std::string, double> busy;
  for (const auto& id : runs) {
    const DataFrame f = query(paper_shape("fig6_prefix",
                                          RunFilter{id.workflow, id.run_index})
                                  .text);
    for (std::size_t r = 0; r < f.rows(); ++r) {
      n[f.col("prefix").str(r)] += num(f.col("n"), r);
      busy[f.col("prefix").str(r)] += num(f.col("busy_s"), r);
    }
  }
  std::vector<std::string> errors;
  const DataFrame whole = query(paper_shape("fig6_prefix").text);
  expect_groups("per-run task counts summed", whole, "prefix", "n", n,
                errors);
  expect_groups("per-run busy time summed", whole, "prefix", "busy_s", busy,
                errors);
  return errors;
}

}  // namespace pipebench
