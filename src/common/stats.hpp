// Streaming statistics primitives used by monitoring, introspection and the
// benchmark harness: Welford running moments, fixed-bin histograms with
// quantile queries, and sliding-window rate counters.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bs {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Histogram over [lo, hi) with uniform bins plus under/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const { return stats_.mean(); }
  [[nodiscard]] double min() const { return stats_.min(); }
  [[nodiscard]] double max() const { return stats_.max(); }
  [[nodiscard]] const std::vector<std::uint64_t>& bins() const { return bins_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;

  /// One-line summary "count=… mean=… p50=… p99=… max=…".
  [[nodiscard]] std::string summary() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t count_{0};
  RunningStats stats_;
};

/// Counts events in a trailing time window; used for rate(kind, window)
/// queries in security policies and in the introspection layer.
class SlidingWindowCounter {
 public:
  explicit SlidingWindowCounter(SimDuration window) : window_(window) {}

  void add(SimTime now, double amount = 1.0);

  /// Total amount observed within (now - window, now].
  [[nodiscard]] double total(SimTime now) const;

  /// Events per second over the window.
  [[nodiscard]] double rate_per_sec(SimTime now) const;

  [[nodiscard]] SimDuration window() const { return window_; }

 private:
  void evict(SimTime now) const;

  SimDuration window_;
  mutable std::deque<std::pair<SimTime, double>> samples_;
  mutable double sum_{0.0};
};

}  // namespace bs
