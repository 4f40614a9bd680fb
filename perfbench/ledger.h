/// \file ledger.h
/// The benchmark's own statistics and span ledger.
///
/// Everything here is benchmark-side bookkeeping: order statistics for
/// the end-to-end latencies, flattened deltas of the program's metrics
/// registry, and an in-memory span recorder for the traced run. No code
/// in the program under test depends on it. perfbench_selftest
/// (ledger_test.cpp) checks each function on hand-computed cases.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/metrics.h"

namespace perfbench {

/// Median of \p samples (mean of the two middle values for an even
/// count). Empty input gives 0.
double median(std::vector<double> samples);

/// The highest percentile that has at least \p beyond samples above it,
/// as the guide for tail latency asks. With n samples sorted ascending
/// this is the value at index n - beyond - 1, whose percentile rank is
/// 100 * (n - beyond) / n. With n <= 2 * beyond that index lies below
/// the median (or no such percentile exists), so it would not be a
/// tail; the result is then the maximum, at rank 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< rank, in percent
  std::size_t samples = 0;  ///< n
};
Tail tail_percentile(std::vector<double> samples, std::size_t beyond = 10);

/// Flattened per-interval view of the metrics registry: every counter and
/// gauge of after - before under its registry name, plus each histogram's
/// sample count under "<name>.count". Names absent from both snapshots do
/// not appear.
std::map<std::string, double> registry_delta(
    const opckit::trace::MetricsSnapshot& before,
    const opckit::trace::MetricsSnapshot& after);

/// Value of \p name in a registry_delta() map, 0 when absent.
double delta_of(const std::map<std::string, double>& delta,
                const std::string& name);

/// One recorded span. Times are milliseconds on the ledger's clock
/// (steady_clock, zero at Ledger construction).
struct SpanRecord {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;         ///< index of the enclosing span, -1 at top level
  std::uint64_t job = 0;   ///< job the span belongs to (0 = none)
  std::uint64_t thread = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// Result is aligned with \p spans.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// In-memory span recorder. begin()/end() nest per thread: a span begun
/// while another is open on the same thread becomes its child. Spans can
/// also be added whole (add()), which is how externally timed intervals
/// (flow phases from progress events, the program's own per-tile spans)
/// join the ledger. Thread-safe; one mutex guards the record list.
class Ledger {
 public:
  using Clock = std::chrono::steady_clock;

  Ledger();

  double now_ms() const;
  /// Ledger time of a steady_clock time point.
  double to_ms(Clock::time_point t) const;

  int begin(const std::string& name, std::uint64_t job = 0);
  void end(int id);
  /// Record a finished span; returns its index.
  int add(SpanRecord span);

  std::vector<SpanRecord> spans() const;
  /// Durations (ms) of every span called \p name, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// Write all spans, with self times, as one JSON document.
  void write_json(const std::string& path) const;

 private:
  Clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::vector<int>> open_;  ///< per-thread stack
};

/// RAII helper: one ledger span around a scope; a null ledger records
/// nothing, so timed code paths can share the call sites with the traced
/// run.
class Scoped {
 public:
  Scoped(Ledger* ledger, const std::string& name, std::uint64_t job = 0)
      : ledger_(ledger), id_(ledger ? ledger->begin(name, job) : -1) {}
  ~Scoped() {
    if (ledger_) ledger_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Ledger* ledger_;
  int id_;
};

/// Spans named \p name from a Chrome trace_event JSON string as written
/// by opckit::trace::Tracer::to_json (B/E pairs per tid, ts in µs),
/// shifted by \p offset_ms onto the ledger clock.
std::vector<SpanRecord> parse_tracer_spans(const std::string& json,
                                           const std::string& name,
                                           double offset_ms);

}  // namespace perfbench
