// graphbench: the repository's benchmark. One workload per run,
// one client in a closed loop (the next kernel call starts when the
// previous one has returned and been checked).
//
//   graphbench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR [--trace-dir DIR] [--tiny] [--wrong-oracle]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// kernel phase and the layer replays and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. See README.md in this directory for every metric.

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace graphbench;

namespace {

/// setup_s is the median of several from-nothing setups per run: at
/// least kMinSetupRounds, more while they fit in kSetupBudgetS, so a
/// set-up of a few milliseconds is still a steady median.
constexpr int kMinSetupRounds = 5;
constexpr int kMaxSetupRounds = 25;
constexpr double kSetupBudgetS = 2.0;
/// The tail needs ten calls beyond it and should sit above the median;
/// run at least this many.
constexpr std::size_t kMinCalls = 21;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool wrong_oracle = false;
  std::string work_dir;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--trace") {
      args.trace = std::stoi(value()) != 0;
    } else if (arg == "--work-dir") {
      args.work_dir = value();
    } else if (arg == "--trace-dir") {
      args.trace_dir = value();
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--wrong-oracle") {
      args.wrong_oracle = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::vector<Metric> run_end_to_end(Workload& w, double seconds,
                                   double setup_s, CallCounts& counts) {
  SpanLog off;  // never enabled: no benchmark spans, no trace ring
  std::uint64_t id = 1;
  closed_loop_call(w, off, id++, counts);  // warm-up, checked, not timed
  std::vector<double> op_s;
  const auto start = Clock::now();
  while (true) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= seconds && op_s.size() >= kMinCalls) break;
    if (elapsed >= 4 * seconds) break;  // calls keep failing
    const double s = closed_loop_call(w, off, id++, counts);
    if (s >= 0) op_s.push_back(s);
  }
  double rss = peak_rss_mb();
  for (const auto& d : w.fleet()) rss += peak_rss_mb(d->pid());

  const Input& in = w.input();
  const double p50 = median(op_s);
  const Tail t = tail(op_s);
  const double nnz = static_cast<double>(in.a.nnz());
  std::printf("\n%s seed %llu: %zu timed calls (op_count), tail = p%.1f, "
              "failed_frac = %.6f (%zu of %zu calls)\n",
              kind_name(w.kind()),
              static_cast<unsigned long long>(w.config().seed), op_s.size(),
              t.percentile,
              static_cast<double>(counts.failed) /
                  static_cast<double>(counts.attempted),
              counts.failed, counts.attempted);
  std::printf("input: scale %d, n %lld, nnz %.0f, partial products per call "
              "%.0f\n",
              w.scale(), static_cast<long long>(in.a.rows()), nnz,
              in.partials);
  return {
      {"partials_per_s", p50 > 0 ? in.partials / p50 : 0.0, "1/s"},
      {"edges_per_s", p50 > 0 ? nnz / p50 : 0.0, "1/s"},
      {"op_s.p50", p50, "s"},
      {"op_s.tail", t.value, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss, "MB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graphbench: %s\n", e.what());
    return 2;
  }
  install_signal_cleanup();
  try {
    Config config;
    config.kind = parse_kind(args.workload);
    config.seed = args.seed;
    config.tiny = args.tiny;
    config.wrong_oracle = args.wrong_oracle;
    config.work_dir = args.work_dir;
    std::filesystem::create_directories(config.work_dir);

    Workload w(config);
    std::vector<double> setup_s;
    const auto setup_start = Clock::now();
    for (int round = 0; round < kMaxSetupRounds; ++round) {
      if (round >= kMinSetupRounds &&
          seconds_between(setup_start, Clock::now()) >= kSetupBudgetS) {
        break;
      }
      w.teardown();
      const auto t0 = Clock::now();
      w.setup(round);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    w.prepare_oracle();

    CallCounts counts;
    std::vector<Metric> metrics;
    if (args.trace) {
      const std::string trace_path =
          args.trace_dir.empty()
              ? ""
              : args.trace_dir + "/" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".trace.json";
      metrics = run_traced(w, args.seconds, trace_path, counts);
      print_metrics("per-layer metrics (" + args.workload + ")", metrics);
    } else {
      metrics = run_end_to_end(w, args.seconds, median(setup_s), counts);
      print_metrics("end-to-end metrics (" + args.workload + ")", metrics);
    }
    w.teardown();
    std::error_code ec;
    std::filesystem::remove_all(config.work_dir, ec);
    std::fflush(stderr);
    std::printf("%s\n", result_line(counts.failed == 0, counts.attempted,
                                    counts.failed, metrics)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graphbench: %s\n", e.what());
    return 1;
  }
}
