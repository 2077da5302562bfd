// Output checks of the pipeline benchmark. Each check compares what the
// query tier answered with a computation that does not go through it:
// plain loops over the RunData the runtime returned, a memory-backend
// catalog fed the same runs, or the sum of per-run answers. Each returns
// the list of mismatches it found (empty = pass); the self-test feeds them
// deliberately altered inputs and expects them to complain.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/dataframe.hpp"
#include "dtr/recorder.hpp"
#include "prov/store.hpp"
#include "query/catalog.hpp"
#include "queries.hpp"

namespace pipebench {

/// Answers one query text (throws on a failed query).
using QueryFn = std::function<recup::analysis::DataFrame(const std::string&)>;

/// Executes a query against the catalog's current snapshot with no cache.
recup::analysis::DataFrame execute_cold(const recup::query::StoreCatalog& c,
                                        const std::string& text);

/// The store's answers for the run `filter` names, against loops over
/// `run`: row counts of the tasks / transitions / comms / warnings views,
/// task count and duration sum per prefix, duration sum per worker, and
/// distinct keys per transition target state.
std::vector<std::string> check_run(const recup::dtr::RunData& run,
                                   const RunFilter& filter,
                                   const QueryFn& query);

/// Order-insensitive equality of two result frames: same columns (names
/// and types), same multiset of rows; doubles agree to a relative 1e-9
/// (summation order differs between capture paths). On mismatch, `why`
/// names the first difference.
bool same_frame(const recup::analysis::DataFrame& a,
                const recup::analysis::DataFrame& b, std::string* why);

/// A compact, order-insensitive summary of a result frame, for checking
/// many answers without keeping them: a digest of every non-double cell
/// with rows in the order of those cells, and per double column the sum,
/// the rank-weighted sum and the absolute sum of its values in that order.
/// Requires rows to be unique on their non-double cells (group-by answers).
struct AnswerPrint {
  std::uint64_t exact = 0;
  std::size_t rows = 0;
  std::vector<double> sums;
};
AnswerPrint answer_print(const recup::analysis::DataFrame& f);
/// Prints agree when the exact parts are equal and every sum agrees to a
/// relative 1e-9 of the column's absolute sum.
bool same_print(const AnswerPrint& a, const AnswerPrint& b, std::string* why);

/// Per-run answers of fig6_prefix summed over `runs` must equal the
/// whole-store answer (counts exactly, busy time to 1e-9).
std::vector<std::string> check_per_run_sums(
    const std::vector<recup::prov::RunId>& runs, const QueryFn& query);

}  // namespace pipebench
