#pragma once
// The closed loop shared by both run kinds, and the traced run: kernel
// calls with the benchmark's spans and the program's trace ring on,
// then a replay of each layer's public functions on the inputs the
// kernel sees. Together they attribute a call's time layer by layer,
// next to the la::spgemm floor.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace graphbench {

/// Calls attempted and failed over a run (warm-up included).
struct CallCounts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One closed-loop step: a timed kernel call (inside a root span "op"
/// when `log` is enabled), then the oracle check outside the timed
/// region. A call that throws or disagrees is counted as failed and the
/// workload continues into a fresh result table. `after_call` (may be
/// empty) runs between the call and the check. Returns the call's
/// seconds, or a negative value for a failed call.
double closed_loop_call(Workload& w, SpanLog& log, std::uint64_t call_id,
                        CallCounts& counts,
                        const std::function<void()>& after_call = {});

/// The traced run: returns every per-layer metric, prints the self-time
/// table, and writes the merged Chrome trace to `trace_path`.
std::vector<Metric> run_traced(Workload& w, double seconds,
                               const std::string& trace_path,
                               CallCounts& counts);

}  // namespace graphbench
