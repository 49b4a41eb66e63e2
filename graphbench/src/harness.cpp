#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace graphbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Index n-1-beyond has exactly `beyond` samples above it; with fewer
  // samples than that the maximum is the best the sample supports.
  const std::size_t idx = n > beyond ? n - 1 - beyond : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/// Value of a "Key:   123 ..." line of a /proc file (0 when absent).
std::uint64_t proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      std::uint64_t v = 0;
      fields >> v;
      return v;
    }
  }
  return 0;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double registry_total(const graphulo::obs::MetricsSnapshot& snapshot,
                      const std::string& family) {
  for (const auto& f : snapshot.families) {
    if (f.name != family) continue;
    double total = 0.0;
    for (const auto& s : f.series) total += s.value;
    return total;
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(int pid) {
  return static_cast<double>(proc_field(proc_path(pid, "status"), "VmHWM:")) /
         1024.0;
}

std::vector<double> registry_totals(const std::vector<std::string>& families) {
  const auto snapshot = graphulo::obs::MetricsRegistry::global().snapshot();
  std::vector<double> out;
  out.reserve(families.size());
  for (const auto& f : families) out.push_back(registry_total(snapshot, f));
  return out;
}

void print_metrics(const std::string& title, const std::vector<Metric>& m) {
  std::printf("\n%s\n", title.c_str());
  for (const auto& x : m) {
    std::printf("  %-32s %16.6g  %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + format_number(m[i].value) +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---- SpanLog ---------------------------------------------------------------

void SpanLog::enable(std::size_t ring_capacity) {
  enabled_ = true;
  ring_capacity_ = ring_capacity;
  epoch_ = Clock::now();
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, const char* layer,
                      std::uint64_t call_id)
    : log_(log.enabled() ? &log : nullptr),
      name_(name),
      layer_(layer),
      call_id_(call_id) {
  if (log_) start_ = Clock::now();
}

SpanLog::Scope::~Scope() {
  if (!log_) return;
  const auto end = Clock::now();
  BenchSpan s;
  s.name = name_;
  s.layer = layer_;
  s.call_id = call_id_;
  s.start_us =
      std::chrono::duration<double, std::micro>(start_ - log_->epoch_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  log_->spans_.push_back(std::move(s));
}

SpanLog::Capture::Capture(SpanLog& log)
    : log_(log.enabled() ? &log : nullptr) {
  if (!log_) return;
  graphulo::obs::set_trace_capacity(log_->ring_capacity_);
  // The ring's epoch is the start of the first event it records. Record
  // an anchor first, so the epoch is a known instant on our clock.
  const double before = log_->now_us();
  { TRACE_SPAN("graphbench.anchor"); }
  ring_epoch_us_ = before;
}

SpanLog::Capture::~Capture() {
  if (!log_) return;
  const auto events = graphulo::obs::trace_events();
  graphulo::obs::set_trace_capacity(0);
  double anchor_offset = 0.0;
  for (const auto& e : events) {
    if (std::string(e.name) == "graphbench.anchor") {
      anchor_offset = e.start_us;
      break;
    }
  }
  for (const auto& e : events) {
    if (std::string(e.name) == "graphbench.anchor") continue;
    log_->ring_.push_back({e.name, e.tid,
                           ring_epoch_us_ + e.start_us - anchor_offset,
                           e.duration_us});
  }
}

std::string SpanLog::chrome_trace() const {
  std::string out =
      "[{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": "
      "{\"name\": \"graphulo (program span ring)\"}},\n"
      " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"args\": "
      "{\"name\": \"graphbench (benchmark spans)\"}}";
  char buf[96];
  for (const auto& e : ring_) {
    std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f", e.start_us,
                  e.dur_us);
    out += ",\n {\"name\": \"" + std::string(e.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
           ", \"ts\": " + buf + ", \"args\": {\"layer\": \"" +
           layer_of_ring_span(e.name) + "\"}}";
  }
  for (const auto& s : spans_) {
    std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f", s.start_us,
                  s.dur_us);
    out += ",\n {\"name\": \"" + s.name +
           "\", \"ph\": \"X\", \"pid\": 2, \"tid\": 0, \"ts\": " + buf +
           ", \"args\": {\"call_id\": " + std::to_string(s.call_id) +
           ", \"layer\": \"" + s.layer + "\"}}";
  }
  out += "]\n";
  return out;
}

std::string layer_of_ring_span(const std::string& name) {
  static const std::map<std::string, std::string> kLayers = {
      {"tablemult.partition", "core.tablemult"},
      {"rfile.block_decode", "nosql.rfile"},
      {"rfile.encode", "nosql.rfile"},
      {"scan.range", "nosql.scanner"},
      {"batch_writer.flush", "nosql.batch_writer"},
      {"wal.append", "nosql.wal"},
      {"wal.commit", "nosql.wal"},
      {"tablet.flush", "nosql.tablet"},
      {"tablet.compact", "nosql.tablet"},
      {"compaction.task", "nosql.tablet"},
  };
  const auto it = kLayers.find(name);
  return it == kLayers.end() ? "other" : it->second;
}

std::vector<SelfTimeRow> self_times(const SpanLog& log,
                                    const std::string& root_name,
                                    std::uint64_t caller_tid) {
  struct Ev {
    std::string layer, name;
    std::uint64_t tid;
    double start, end, child = 0.0;
  };
  constexpr double kSlackUs = 1.0;
  std::map<std::pair<std::string, std::string>, std::pair<double, double>>
      acc;  // (layer, name) -> (self seconds, count)
  std::size_t roots = 0;
  for (const auto& root : log.spans()) {
    if (root.name != root_name) continue;
    ++roots;
    const double lo = root.start_us - kSlackUs;
    const double hi = root.start_us + root.dur_us + kSlackUs;
    std::vector<Ev> evs;
    for (const auto& s : log.spans()) {
      if (s.call_id != root.call_id || s.start_us < lo ||
          s.start_us + s.dur_us > hi) {
        continue;
      }
      evs.push_back({s.layer, s.name, caller_tid, s.start_us,
                     s.start_us + s.dur_us});
    }
    for (const auto& e : log.ring()) {
      if (e.start_us < lo || e.start_us + e.dur_us > hi) continue;
      evs.push_back({layer_of_ring_span(e.name), e.name, e.tid, e.start_us,
                     e.start_us + e.dur_us});
    }
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;  // the enclosing span first
    });
    std::vector<std::size_t> stack;
    std::uint64_t tid = ~std::uint64_t{0};
    for (std::size_t i = 0; i < evs.size(); ++i) {
      if (evs[i].tid != tid) {
        stack.clear();
        tid = evs[i].tid;
      }
      while (!stack.empty() && evs[stack.back()].end <= evs[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) evs[stack.back()].child += evs[i].end - evs[i].start;
      stack.push_back(i);
    }
    for (const auto& e : evs) {
      auto& slot = acc[{e.layer, e.name}];
      slot.first += (e.end - e.start - e.child) / 1e6;
      slot.second += 1.0;
    }
  }
  std::vector<SelfTimeRow> rows;
  if (roots == 0) return rows;
  for (const auto& [key, v] : acc) {
    rows.push_back({key.first, key.second,
                    v.second / static_cast<double>(roots),
                    v.first / static_cast<double>(roots)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.self_s_per_op > b.self_s_per_op;
            });
  return rows;
}

}  // namespace graphbench
