#pragma once
// Measurement plumbing shared by the workloads and the layer replays:
// sample statistics, /proc readers, registry deltas, the result line,
// and the benchmark's own spans (kept apart from the program's trace
// ring, then merged with it into one Chrome trace).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace graphbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample; 0 for an empty one.
double median(std::vector<double> v);

/// The highest percentile of a sample that still has at least `beyond`
/// samples above it: the guide's rule for a tail a sample can support.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in [0, 100]
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Peak resident set (VmHWM) of `pid` in MiB; pid 0 = this process.
/// 0 when the file cannot be read.
double peak_rss_mb(int pid = 0);

/// Current totals of the named registry families (each summed over its
/// labelled series; 0 if absent), from one snapshot.
std::vector<double> registry_totals(const std::vector<std::string>& families);

/// One entry of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the metrics as an aligned table (human-readable part of the
/// output; the JSON result line stays the last line).
void print_metrics(const std::string& title, const std::vector<Metric>& m);

/// The result line, printed as the last stdout line.
std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& m);

/// A span recorded by the benchmark around one call into a layer.
/// Spans of one kernel call or one replay share `call_id`.
struct BenchSpan {
  std::string name;
  std::string layer;
  std::uint64_t call_id = 0;
  double start_us = 0.0;  ///< since the log's epoch
  double dur_us = 0.0;
};

/// A program ring event moved onto the log's time base.
struct RingEvent {
  const char* name = "";
  std::uint64_t tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// The benchmark's span log. Disabled (every Scope a no-op, the
/// program's ring untouched) unless enable() is called, which is what
/// the traced run does; end-to-end runs never enable it.
class SpanLog {
 public:
  /// Turns recording on, with up to `ring_capacity` program events
  /// captured per capture() window.
  void enable(std::size_t ring_capacity);
  bool enabled() const noexcept { return enabled_; }

  /// RAII span around one layer call.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, const char* layer,
          std::uint64_t call_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    const char* layer_;
    std::uint64_t call_id_;
    Clock::time_point start_;
  };

  /// RAII capture window: switches the program's trace ring on (which
  /// clears it and restarts its epoch), and on exit moves the ring's
  /// events onto this log's time base and switches the ring off again.
  class Capture {
   public:
    explicit Capture(SpanLog& log);
    ~Capture();
    Capture(const Capture&) = delete;
    Capture& operator=(const Capture&) = delete;

   private:
    SpanLog* log_;
    double ring_epoch_us_ = 0.0;  ///< ring epoch on the log's time base
  };

  const std::vector<BenchSpan>& spans() const noexcept { return spans_; }
  const std::vector<RingEvent>& ring() const noexcept { return ring_; }

  /// One Chrome-trace JSON document: the program's ring events (pid 1,
  /// one track per program thread) and the benchmark's spans (pid 2,
  /// with call_id and layer in args).
  std::string chrome_trace() const;

 private:
  double now_us() const;

  bool enabled_ = false;
  std::size_t ring_capacity_ = 0;
  Clock::time_point epoch_{};
  std::vector<BenchSpan> spans_;
  std::vector<RingEvent> ring_;
};

/// The module a program span name belongs to ("tablemult.partition" ->
/// "core.tablemult").
std::string layer_of_ring_span(const std::string& name);

/// Per-(layer, span) self time inside the benchmark spans named
/// `root_name`: a span's self time is its duration minus what its
/// direct children on the same thread cover. Benchmark spans live on
/// `caller_tid`'s track. Values are per root span (per kernel call).
struct SelfTimeRow {
  std::string layer;
  std::string span;
  double calls_per_op = 0.0;
  double self_s_per_op = 0.0;
};
std::vector<SelfTimeRow> self_times(const SpanLog& log,
                                    const std::string& root_name,
                                    std::uint64_t caller_tid);

}  // namespace graphbench
