// Shared pieces of the pipeline benchmark: clocks, sample summaries, the
// per-layer span recorder of traced runs, and file-system helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample (0 for an empty one).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile q in [0, 1] of a sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// A run's figure from its per-round (or per-window) samples of a timing
/// or a rate: the best one, the lowest time or the highest rate. The shared
/// machine only ever adds delay, in bursts from 0.1 s to minutes on each
/// vCPU, so the best of many samples reads the program and a median reads
/// the machine (the minimum estimator of Chen and Revels, "Robust
/// benchmarking in noisy environments", 2016).
inline double lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
inline double highest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Bytes of every regular file under `dir` (0 when it does not exist).
inline std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Regular files under `dir` whose name ends with `suffix`.
inline std::size_t count_files(const std::filesystem::path& dir,
                               const std::string& suffix) {
  std::size_t n = 0;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

/// Per-layer accounting of a traced run: wall time spent inside calls to
/// each layer's public functions (timed from outside, around the call),
/// plus counters. Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// kPath: a call on the measured path, counted against the traced wall
  /// time when the unattributed residual is formed. kSide: extra work made
  /// only in traced runs (bare / capture-only reruns, cold re-executions);
  /// reported, and kept out of the residual. kConcurrent: a call on another
  /// thread that overlaps the path (the ingest tail); reported only.
  enum class Kind { kPath, kSide, kConcurrent };

  class Span {
   public:
    Span(Tracer& tracer, std::string name, Kind kind)
        : tracer_(tracer), name_(std::move(name)), kind_(kind) {
      if (tracer_.enabled_) start_ = Clock::now();
    }
    ~Span() {
      if (tracer_.enabled_) {
        tracer_.add_time(name_, seconds_since(start_), kind_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::string name_;
    Kind kind_;
    Clock::time_point start_;
  };

  Span span(std::string name) {
    return Span(*this, std::move(name), Kind::kPath);
  }
  Span side(std::string name) {
    return Span(*this, std::move(name), Kind::kSide);
  }
  Span concurrent(std::string name) {
    return Span(*this, std::move(name), Kind::kConcurrent);
  }

  void add_time(const std::string& name, double seconds, Kind kind) {
    if (!enabled_) return;
    std::lock_guard lock(mutex_);
    times_[name] += seconds;
    if (kind == Kind::kPath) attributed_s_ += seconds;
    if (kind == Kind::kSide) side_s_ += seconds;
  }

  void count(const std::string& name, double delta) {
    if (!enabled_) return;
    std::lock_guard lock(mutex_);
    counters_[name] += delta;
  }

  [[nodiscard]] double total(const std::string& name) const {
    std::lock_guard lock(mutex_);
    auto it = times_.find(name);
    return it == times_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    std::lock_guard lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double attributed_s() const {
    std::lock_guard lock(mutex_);
    return attributed_s_;
  }
  [[nodiscard]] double side_s() const {
    std::lock_guard lock(mutex_);
    return side_s_;
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::map<std::string, double> times_;
  std::map<std::string, double> counters_;
  double attributed_s_ = 0.0;
  double side_s_ = 0.0;
};

}  // namespace pipebench
