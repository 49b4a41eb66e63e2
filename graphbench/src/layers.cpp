#include "layers.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <thread>

#include "assoc/table_io.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "distributed/cluster.hpp"
#include "distributed/proto.hpp"
#include "la/la.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/rfile.hpp"
#include "obs/metrics.hpp"

namespace graphbench {

namespace la = graphulo::la;
namespace nosql = graphulo::nosql;
namespace core = graphulo::core;
namespace distributed = graphulo::distributed;
namespace assoc = graphulo::assoc;

namespace {

constexpr std::size_t kRingCapacity = 1u << 18;
constexpr int kReplayReps = 3;
constexpr int kSnapshotReps = 50;
constexpr int kPingReps = 200;
constexpr int kFloorReps = 5;
constexpr int kLocalKernelReps = 5;
/// Each side (untraced, traced) of the kernel phase gets at least this
/// many calls, whatever the time budget.
constexpr std::size_t kMinPhaseCalls = 6;

// Registry families read around every kernel call of the traced run.
enum Family : std::size_t {
  kDecodeBlocks,
  kCacheHits,
  kCacheMisses,
  kScanCells,
  kWriterMutations,
  kWriterFlushes,
  kPartials,
  kWalRecords,
  kWalBytes,
  kTabletFlushes,
  kTabletCompactions,
  kCompactionTasks,
  kRpcRequests,
  kRpcBytesSent,
  kRpcBytesRecv,
  kFamilyCount,
};
const std::vector<std::string>& families() {
  static const std::vector<std::string> names = {
      "rfile.decode.blocks.total",    "cache.hits.total",
      "cache.misses.total",           "scan.cells.total",
      "batch_writer.mutations.total", "batch_writer.flushes.total",
      "tablemult.partial_products.total",
      "wal.commit.records.total",     "wal.commit.bytes.total",
      "tablet.flush.total",           "tablet.compaction.total",
      "compaction.tasks.total",       "rpc.client.requests.total",
      "rpc.client.bytes.sent",        "rpc.client.bytes.recv",
  };
  return names;
}

/// What the kernel phase of the traced run measured.
struct Phase {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<core::TableMultStats> stats;  ///< successful calls
  std::vector<double> sync_s;
  std::size_t calls = 0;
  std::vector<double> registry = std::vector<double>(kFamilyCount, 0.0);
  double writes_applied = 0.0;
  double writes_deduped = 0.0;

  double per_op(Family f) const {
    return calls == 0 ? 0.0 : registry[f] / static_cast<double>(calls);
  }
};

/// Mutations the daemons applied and deduped so far (kStatus).
struct ClusterWrites {
  double applied = 0.0;
  double deduped = 0.0;
};

ClusterWrites cluster_writes(Workload& w) {
  ClusterWrites out;
  auto* cluster = w.cluster();
  if (!cluster) return out;
  for (std::size_t s = 0; s < cluster->num_servers(); ++s) {
    const auto status = cluster->status(s);
    out.applied += static_cast<double>(status.writes_applied);
    out.deduped += static_cast<double>(status.writes_skipped);
  }
  return out;
}

Phase run_kernel_phase(Workload& w, SpanLog& log, double budget_s,
                       CallCounts& counts, std::uint64_t& next_id) {
  Phase phase;
  SpanLog off;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough = phase.untraced_s.size() >= kMinPhaseCalls &&
                        phase.traced_s.size() >= kMinPhaseCalls;
    if (elapsed >= budget_s && enough) break;
    if (elapsed >= 4 * budget_s + 30) break;  // calls keep failing
    // Alternate, so drift over the run lands on both sides equally.
    const bool traced = i % 2 == 1;
    const ClusterWrites writes0 = cluster_writes(w);
    const auto reg0 = registry_totals(families());
    std::optional<SpanLog::Capture> capture;
    if (traced) capture.emplace(log);
    const double s = closed_loop_call(
        w, traced ? log : off, next_id++, counts, [&] {
          capture.reset();
          const auto reg1 = registry_totals(families());
          for (std::size_t f = 0; f < kFamilyCount; ++f) {
            phase.registry[f] += reg1[f] - reg0[f];
          }
          const ClusterWrites writes1 = cluster_writes(w);
          phase.writes_applied += writes1.applied - writes0.applied;
          phase.writes_deduped += writes1.deduped - writes0.deduped;
          ++phase.calls;
        });
    if (s < 0) continue;
    (traced ? phase.traced_s : phase.untraced_s).push_back(s);
    phase.stats.push_back(w.last_stats());
    phase.sync_s.push_back(w.last_sync_seconds());
  }
  return phase;
}

/// Median seconds of `reps` runs of `rep`, each inside a capture window
/// and a benchmark span named `name` of `layer` with its own call id.
double replay(SpanLog& log, std::uint64_t& next_id, const char* name,
              const char* layer, int reps,
              const std::function<double(int)>& rep) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    SpanLog::Capture capture(log);
    const std::uint64_t id = next_id++;
    SpanLog::Scope span(log, name, layer, id);
    s.push_back(rep(r));
  }
  return median(s);
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// The kernel's mutation stream for C += A'A, one vector per partition
/// in the order the partition worker emits it: for each shared row k,
/// one mutation per A(k, i) holding A(k, i) * A(k, j) for every j.
using Stream = std::vector<std::vector<nosql::Mutation>>;

std::vector<la::Index> partition_cuts(const la::SpMat<double>& a,
                                      const std::vector<std::string>& splits) {
  std::vector<la::Index> cuts = {0};
  for (const auto& s : splits) cuts.push_back(assoc::parse_vertex_key(s));
  cuts.push_back(a.rows());
  return cuts;
}

Stream build_stream(const la::SpMat<double>& a,
                    const std::vector<std::string>& keys,
                    const std::vector<la::Index>& cuts) {
  Stream stream(cuts.size() - 1);
  for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
    for (la::Index k = cuts[p]; k < cuts[p + 1]; ++k) {
      const auto cols = a.row_cols(k);
      const auto vals = a.row_vals(k);
      for (std::size_t x = 0; x < cols.size(); ++x) {
        nosql::Mutation m(keys[static_cast<std::size_t>(cols[x])]);
        for (std::size_t y = 0; y < cols.size(); ++y) {
          m.put(assoc::kValueFamily, keys[static_cast<std::size_t>(cols[y])],
                nosql::encode_double(vals[x] * vals[y]));
        }
        stream[p].push_back(std::move(m));
      }
    }
  }
  return stream;
}

std::size_t stream_size(const Stream& s) {
  std::size_t n = 0;
  for (const auto& part : s) n += part.size();
  return n;
}

/// A fresh instance shaped like the kernel's result side: 4 tablet
/// servers, a WAL in interval mode, and one sum table "R".
struct ReplayStore {
  explicit ReplayStore(const std::string& wal_path)
      : db(4), wal(std::make_shared<nosql::WriteAheadLog>(wal_path)) {
    db.attach_wal(wal);
    core::create_sum_table(db, "R");
  }
  nosql::Instance db;
  std::shared_ptr<nosql::WriteAheadLog> wal;
};

/// Runs `body(p)` for every partition on its own thread (inline for a
/// single partition) and returns the wall time.
double parallel_wall(std::size_t parts,
                     const std::function<void(std::size_t)>& body) {
  return timed([&] {
    if (parts == 1) {
      body(0);
      return;
    }
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < parts; ++p) threads.emplace_back(body, p);
    for (auto& t : threads) t.join();
  });
}

/// One replayed layer call for the attribution table.
struct ReplayRow {
  std::string call;
  double seconds = 0.0;
  std::string layer;
};

double per_s(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

void print_self_time_table(const SpanLog& log, std::uint64_t caller_tid,
                           double p50, std::size_t traced_calls,
                           const std::vector<ReplayRow>& replays) {
  std::printf(
      "\nPer-layer self time per kernel call (%zu traced calls; shares of "
      "untraced op_s.p50 = %.6f s; worker threads overlap, so shares can "
      "sum past 1)\n",
      traced_calls, p50);
  std::printf("  %-20s %-36s %10s %12s %8s\n", "layer", "span", "calls/op",
              "self_s/op", "share");
  for (const auto& row : self_times(log, "op", caller_tid)) {
    std::printf("  %-20s %-36s %10.1f %12.6f %8.3f\n", row.layer.c_str(),
                row.span.c_str(), row.calls_per_op, row.self_s_per_op,
                p50 > 0 ? row.self_s_per_op / p50 : 0.0);
  }
  std::printf(
      "\nReplayed layer calls on the kernel's inputs (seconds per kernel-call "
      "equivalent, next to the la::spgemm floor)\n");
  std::printf("  %-20s %-36s %12s %8s\n", "layer", "call", "seconds",
              "share");
  for (const auto& r : replays) {
    std::printf("  %-20s %-36s %12.6f %8.3f\n", r.layer.c_str(),
                r.call.c_str(), r.seconds, p50 > 0 ? r.seconds / p50 : 0.0);
  }
}

}  // namespace

double closed_loop_call(Workload& w, SpanLog& log, std::uint64_t call_id,
                        CallCounts& counts,
                        const std::function<void()>& after_call) {
  ++counts.attempted;
  double seconds = -1.0;
  std::string error;
  try {
    const auto t0 = Clock::now();
    {
      SpanLog::Scope op(log, "op", "graphbench", call_id);
      w.call(log, call_id);
    }
    seconds = seconds_between(t0, Clock::now());
  } catch (const std::exception& e) {
    error = std::string("threw: ") + e.what();
  }
  if (after_call) after_call();
  if (error.empty()) {
    try {
      if (w.check()) return seconds;
      error = "result disagrees with the oracle";
    } catch (const std::exception& e) {
      error = std::string("check threw: ") + e.what();
    }
  }
  std::fprintf(stderr, "graphbench: call %llu failed: %s\n",
               static_cast<unsigned long long>(call_id), error.c_str());
  ++counts.failed;
  w.restart_result();
  return -1.0;
}

std::vector<Metric> run_traced(Workload& w, double seconds,
                               const std::string& trace_path,
                               CallCounts& counts) {
  SpanLog log;
  log.enable(kRingCapacity);
  const std::uint64_t caller_tid = graphulo::obs::thread_stripe();
  std::uint64_t next_id = 1;
  const Kind kind = w.kind();
  const bool cluster = kind == Kind::kTableMultCluster;
  const bool triangle = kind == Kind::kTriangleRead;

  // ---- kernel calls: untraced and traced, alternating -------------------
  SpanLog off;
  closed_loop_call(w, off, next_id++, counts);  // warm-up
  const Phase phase =
      run_kernel_phase(w, log, 0.5 * seconds, counts, next_id);
  const double p50 = median(phase.untraced_s);
  const double traced_p50 = median(phase.traced_s);

  // The local store the local-layer replays run on: the workload's own,
  // or for the cluster workload a local copy of the same input.
  std::unique_ptr<Workload> mirror;
  if (cluster) {
    Config mc = w.config();
    mc.kind = Kind::kTableMultWrite;
    mirror = std::make_unique<Workload>(mc);
    mirror->setup(90);
    mirror->prepare_oracle();
  }
  Workload& lw = cluster ? *mirror : w;
  nosql::Instance& db = *lw.local();
  const std::string& input = lw.input().table;
  const std::string& remote_input = w.input().table;
  const auto kernel_options = w.kernel_options();
  const auto& a = w.input().a;
  const la::Index n = a.rows();
  std::vector<ReplayRow> replays;

  // ---- la: the floor ---------------------------------------------------
  double spgemm_s = 0.0;
  {
    const auto at = la::transpose(a);
    const auto l = la::tril(a);
    const auto u = la::triu(a);
    spgemm_s = replay(log, next_id, "la::spgemm", "la", kFloorReps, [&](int) {
      return timed([&] {
        if (triangle) {
          const auto c = la::spgemm_masked<la::PlusTimes<double>>(l, u, l);
          if (c.rows() != n) throw std::logic_error("spgemm_masked shape");
        } else {
          const auto c = la::spgemm<la::PlusTimes<double>>(at, a);
          if (c.rows() != n) throw std::logic_error("spgemm shape");
        }
      });
    });
    replays.push_back({"la::spgemm (floor)", spgemm_s, "la"});
  }

  // ---- nosql.rfile / scanner / snapshot / core.table_scan ----------------
  std::vector<nosql::Cell> cells;
  {
    auto it = core::open_table_scan(db, input);
    while (it->has_top()) {
      cells.push_back({it->top_key(), it->top_value()});
      it->next();
    }
  }
  const double input_cells = static_cast<double>(cells.size());
  const auto file = nosql::RFile::from_sorted(cells, db.table_config(input).rfile);
  const double decode_s =
      replay(log, next_id, "RFile::iterator drain", "nosql.rfile",
             kReplayReps, [&](int) {
               std::size_t count = 0;
               const double s = timed([&] {
                 auto it = file->iterator();
                 it->seek(nosql::Range::all());
                 for (; it->has_top(); it->next()) ++count;
               });
               if (count != cells.size()) throw std::logic_error("rfile drain");
               return s;
             });
  replays.push_back({"RFile::iterator drain", decode_s, "nosql.rfile"});

  const double scan_s = replay(
      log, next_id, "open_table_scan drain", "nosql.scanner", kReplayReps,
      [&](int) {
        std::size_t count = 0;
        const double s = timed([&] {
          auto it = core::open_table_scan(db, input);
          nosql::CellBlock block;
          while (true) {
            block.clear();
            const std::size_t got = it->next_block(block, 1024);
            if (got == 0) break;
            count += got;
          }
        });
        if (count != cells.size()) throw std::logic_error("scan drain");
        return s;
      });
  replays.push_back({"open_table_scan drain", scan_s, "nosql.scanner"});

  const double snapshot_s = replay(
      log, next_id, "Instance::open_snapshot", "nosql.snapshot", kSnapshotReps,
      [&](int) { return timed([&] { db.open_snapshot(input); }); });
  replays.push_back({"Instance::open_snapshot", snapshot_s, "nosql.snapshot"});

  std::size_t rows_kept = 0;
  std::size_t cells_kept = 0;
  const double rowreader_s = replay(
      log, next_id, "RowReader", "core.table_scan", kReplayReps, [&](int) {
        rows_kept = 0;
        cells_kept = 0;
        return timed([&] {
          core::RowReader reader(core::open_table_scan(db, input));
          reader.set_cell_filter(kernel_options.row_filter);
          while (reader.has_next()) {
            const auto row = reader.next_row();
            if (row.cells.empty()) continue;
            ++rows_kept;
            cells_kept += row.cells.size();
          }
        });
      });
  replays.push_back({"RowReader (workload filter)", rowreader_s,
                     "core.table_scan"});

  // ---- core.tablemult ----------------------------------------------------
  const double reduce_s = replay(
      log, next_id, "core::table_mult_reduce", "core.tablemult", kReplayReps,
      [&](int) {
        return timed([&] {
          if (cluster) {
            distributed::ClusterDataPlane plane(*w.cluster());
            core::table_mult_reduce(plane, remote_input, remote_input,
                                    kernel_options);
          } else {
            core::table_mult_reduce(db, input, input, kernel_options);
          }
        });
      });
  replays.push_back({"core::table_mult_reduce", reduce_s, "core.tablemult"});

  double useful = 0.0, probes = 0.0;
  std::vector<double> imbalance, scan_share, emit_share, flush_share;
  for (const auto& st : phase.stats) {
    useful += static_cast<double>(st.partial_products);
    probes += static_cast<double>(st.partial_products +
                                  st.partial_products_pruned);
    double max_s = 0.0, sum_s = 0.0, scan = 0.0, emit = 0.0, flush = 0.0;
    for (const auto& p : st.partitions) {
      max_s = std::max(max_s, p.seconds);
      sum_s += p.seconds;
      scan += p.scan_seconds;
      emit += p.emit_seconds;
      flush += p.flush_seconds;
    }
    if (sum_s <= 0.0) continue;
    const double mean_s = sum_s / static_cast<double>(st.partitions.size());
    imbalance.push_back(max_s / mean_s);
    scan_share.push_back(scan / sum_s);
    emit_share.push_back(emit / sum_s);
    flush_share.push_back(flush / sum_s);
  }
  const bool masked = !kernel_options.mask_table.empty();
  const double probes_per_call =
      phase.stats.empty() ? 0.0 : probes / static_cast<double>(phase.stats.size());

  // workers: 1 against the workload's count, alternating.
  std::size_t scratch_tables = 0;
  const auto kernel_with = [&](std::size_t workers) {
    auto options = kernel_options;
    options.num_workers = workers;
    const std::string name = "graphbench_w" + std::to_string(scratch_tables++);
    return timed([&] {
      switch (kind) {
        case Kind::kTableMultWrite:
          core::table_mult(db, input, input, name, options);
          db.sync_wal();
          break;
        case Kind::kTriangleRead:
          core::table_mult_reduce(db, input, input, options);
          break;
        case Kind::kTableMultCluster:
          distributed::table_mult(*w.cluster(), remote_input, remote_input,
                                  name, options);
          break;
      }
    });
  };
  const std::size_t many = w.workers();
  std::vector<double> one_s, many_s;
  for (int r = 0; r < kReplayReps; ++r) {
    one_s.push_back(replay(log, next_id, "kernel, 1 worker", "core.tablemult",
                           1, [&](int) { return kernel_with(1); }));
    many_s.push_back(replay(log, next_id, "kernel, N workers",
                            "core.tablemult", 1,
                            [&](int) { return kernel_with(many); }));
  }
  for (std::size_t t = 0; t < scratch_tables && !cluster; ++t) {
    const std::string name = "graphbench_w" + std::to_string(t);
    if (db.table_exists(name)) db.delete_table(name);
  }

  // ---- write side: mutation / batch_writer / instance / wal / tablet ---
  std::vector<std::string> keys;
  for (la::Index i = 0; i < n; ++i) keys.push_back(assoc::vertex_key(i));
  const auto local_cuts = partition_cuts(a, lw.splits());
  double build_s = 0.0, writer_rate = 0.0, apply_p50 = 0.0, apply_tail = 0.0,
         apply_scaling = 0.0, fold_ratio = 0.0, fold_compact_s = 0.0;
  double writer_s = 0.0, apply_1_s = 0.0;
  Stream stream;
  const std::string replay_wal = w.config().work_dir + "/replay-wal";
  if (!triangle) {
    build_s = replay(log, next_id, "Mutation::put stream", "nosql.mutation",
                     kReplayReps, [&](int) {
                       return timed([&] { stream = build_stream(a, keys, local_cuts); });
                     });
    replays.push_back({"Mutation::put stream", build_s, "nosql.mutation"});
    const double mutations = static_cast<double>(stream_size(stream));

    writer_s = replay(
        log, next_id, "BatchWriter x partitions", "nosql.batch_writer",
        kReplayReps, [&](int) {
          std::filesystem::remove(replay_wal);
          ReplayStore store(replay_wal);
          Stream copy = stream;
          const double s = parallel_wall(copy.size(), [&](std::size_t p) {
            nosql::BatchWriter writer(store.db, "R");
            for (auto& m : copy[p]) writer.add_mutation(std::move(m));
            writer.close();
          });
          store.db.sync_wal();
          return s;
        });
    writer_rate = per_s(mutations, writer_s);
    replays.push_back({"BatchWriter x partitions", writer_s,
                       "nosql.batch_writer"});

    {
      SpanLog::Capture capture(log);
      SpanLog::Scope span(log, "Instance::apply, timed each", "nosql.instance",
                          next_id++);
      std::filesystem::remove(replay_wal);
      ReplayStore store(replay_wal);
      std::vector<double> us;
      us.reserve(stream_size(stream));
      for (const auto& part : stream) {
        for (const auto& m : part) {
          us.push_back(1e6 * timed([&] { store.db.apply("R", m); }));
        }
      }
      apply_p50 = median(us);
      apply_tail = tail(us).value;
    }
    const auto apply_wall = [&](std::size_t threads) {
      std::filesystem::remove(replay_wal);
      ReplayStore store(replay_wal);
      if (threads == 1) {
        return timed([&] {
          for (const auto& part : stream) {
            for (const auto& m : part) store.db.apply("R", m);
          }
        });
      }
      return parallel_wall(stream.size(), [&](std::size_t p) {
        for (const auto& m : stream[p]) store.db.apply("R", m);
      });
    };
    std::vector<double> a1, a4;
    for (int r = 0; r < kReplayReps; ++r) {
      a1.push_back(replay(log, next_id, "Instance::apply, 1 thread",
                          "nosql.instance", 1,
                          [&](int) { return apply_wall(1); }));
      a4.push_back(replay(log, next_id, "Instance::apply, thread per partition",
                          "nosql.instance", 1,
                          [&](int) { return apply_wall(stream.size()); }));
    }
    apply_1_s = median(a1);
    apply_scaling = median(a4) > 0 ? apply_1_s / median(a4) : 0.0;
    replays.push_back({"Instance::apply, 1 thread", apply_1_s,
                       "nosql.instance"});
    std::filesystem::remove(replay_wal);

    // Combiner fold: the product left uncompacted, then compacted alone.
    auto fold_options = lw.kernel_options();
    fold_options.compact_result = false;
    std::vector<double> ratios;
    fold_compact_s = replay(
        log, next_id, "Instance::compact(C)", "nosql.tablet", kReplayReps,
        [&](int) {
          const std::string name = "graphbench_fold";
          core::table_mult(db, input, input, name, fold_options);
          ratios.push_back(static_cast<double>(db.entry_estimate(name)) /
                           static_cast<double>(lw.input().product.nnz()));
          const double s = timed([&] { db.compact(name); });
          db.delete_table(name);
          return s;
        });
    fold_ratio = median(ratios);
    replays.push_back({"Instance::compact(C)", fold_compact_s, "nosql.tablet"});
  }
  const double wal_sync_s = kind == Kind::kTableMultWrite ? median(phase.sync_s)
                                                          : 0.0;
  if (kind == Kind::kTableMultWrite) {
    replays.push_back({"Instance::sync_wal", wal_sync_s, "nosql.wal"});
  }

  // ---- rpc / distributed -------------------------------------------------
  double ping_us = 0.0, codec_rate = 0.0, cluster_scan_rate = 0.0,
         cluster_write_rate = 0.0, remote_over_local = 0.0;
  if (cluster) {
    auto& cl = *w.cluster();
    std::vector<double> pings;
    {
      SpanLog::Capture capture(log);
      SpanLog::Scope span(log, "Cluster::ping_all", "rpc", next_id++);
      for (int r = 0; r < kPingReps; ++r) {
        pings.push_back(1e6 * timed([&] { cl.ping_all(); }));
      }
    }
    ping_us = median(pings);

    // The kernel's write batches: its stream cut at the server
    // boundaries, batched per owning server the way the cluster writer
    // buffers them.
    const auto server_cuts = partition_cuts(a, w.splits());
    const Stream remote_stream = build_stream(a, keys, server_cuts);
    std::vector<distributed::proto::WriteBatchRequest> batches;
    {
      std::vector<distributed::proto::WriteBatchRequest> open(cl.num_servers());
      std::vector<std::uint64_t> seq(cl.num_servers(), 0);
      std::size_t buffered = 0;
      const auto flush_all = [&] {
        for (std::size_t s = 0; s < open.size(); ++s) {
          if (open[s].mutations.empty()) continue;
          open[s].table = "C";
          open[s].writer_id = "tm/0/" + std::to_string(s);
          open[s].first_seq = seq[s];
          seq[s] += open[s].mutations.size();
          batches.push_back(std::move(open[s]));
          open[s] = {};
        }
        buffered = 0;
      };
      for (const auto& part : remote_stream) {
        for (const auto& m : part) {
          buffered += m.estimated_bytes();
          open[cl.owner_of_row(m.row())].mutations.push_back(m);
          if (buffered > cl.options().writer_buffer_bytes) flush_all();
        }
      }
      flush_all();
    }
    double codec_bytes = 0.0;
    const double codec_s = replay(
        log, next_id, "proto encode+decode", "rpc", kReplayReps, [&](int) {
          std::vector<std::string> wire;
          wire.reserve(batches.size());
          double s = timed([&] {
            for (const auto& b : batches) {
              wire.push_back(distributed::proto::encode(b));
            }
          });
          codec_bytes = 0.0;
          for (const auto& bytes : wire) codec_bytes += static_cast<double>(bytes.size());
          s += timed([&] {
            for (const auto& bytes : wire) {
              const auto back =
                  distributed::proto::decode_write_batch_request(bytes);
              if (back.mutations.empty()) throw std::logic_error("codec");
            }
          });
          return s;
        });
    codec_rate = per_s(codec_bytes / 1e6, codec_s);
    replays.push_back({"proto encode+decode of write batches", codec_s, "rpc"});

    const double cluster_scan_s = replay(
        log, next_id, "Cluster::scan drain", "distributed", kReplayReps,
        [&](int) {
          std::size_t count = 0;
          const double s = timed([&] {
            auto it = cl.scan(remote_input, nosql::Range::all());
            for (; it->has_top(); it->next()) ++count;
          });
          if (count != cells.size()) throw std::logic_error("cluster scan");
          return s;
        });
    cluster_scan_rate = per_s(input_cells, cluster_scan_s);
    replays.push_back({"Cluster::scan drain", cluster_scan_s, "distributed"});

    const double cluster_write_s = replay(
        log, next_id, "Cluster::writer x partitions", "distributed",
        kReplayReps, [&](int r) {
          const std::string table = "graphbench_cw" + std::to_string(r);
          cl.ensure_table(table, true);
          Stream copy = remote_stream;
          return parallel_wall(copy.size(), [&](std::size_t p) {
            auto writer = cl.writer(table, "graphbench/" + std::to_string(r) +
                                               "/" + std::to_string(p));
            for (auto& m : copy[p]) writer->add_mutation(std::move(m));
            writer->close();
          });
        });
    cluster_write_rate =
        per_s(static_cast<double>(stream_size(remote_stream)), cluster_write_s);
    replays.push_back({"Cluster::writer x partitions", cluster_write_s,
                       "distributed"});

    const double local_s = replay(
        log, next_id, "core::table_mult (local copy)", "core.tablemult",
        kLocalKernelReps, [&](int) {
          return timed([&] {
            core::table_mult(db, input, input, "graphbench_local",
                             lw.kernel_options());
            db.sync_wal();
          });
        });
    remote_over_local = local_s > 0 ? p50 / local_s : 0.0;
    replays.push_back({"core::table_mult (local copy)", local_s,
                       "core.tablemult"});
  }

  const double hits = phase.registry[kCacheHits];
  const double lookups = hits + phase.registry[kCacheMisses];
  const double calls = static_cast<double>(std::max<std::size_t>(phase.calls, 1));

  std::vector<Metric> m = {
      {"la.spgemm_s", spgemm_s, "s"},
      {"la.floor_ratio", spgemm_s > 0 ? p50 / spgemm_s : 0.0, "x"},
      {"rfile.decode_cells_per_s", per_s(input_cells, decode_s), "1/s"},
      {"rfile.decode_blocks_per_op", phase.per_op(kDecodeBlocks), "count"},
      {"cache.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio"},
      {"scan.cells_per_s", per_s(input_cells, scan_s), "1/s"},
      {"scan.cells_per_op", phase.per_op(kScanCells), "count"},
      {"snapshot.open_s", snapshot_s, "s"},
      {"rowreader.rows_per_s", per_s(static_cast<double>(rows_kept), rowreader_s),
       "1/s"},
      {"rowreader.kept_frac",
       input_cells > 0 ? static_cast<double>(cells_kept) / input_cells : 0.0,
       "ratio"},
      {"join.reduce_s", reduce_s, "s"},
      {"join.write_share", p50 > 0 ? 1.0 - reduce_s / p50 : 0.0, "ratio"},
      {"mask.useful_frac", probes > 0 ? useful / probes : 0.0, "ratio"},
      {"mask.probes_per_s", masked ? per_s(probes_per_call, reduce_s) : 0.0,
       "1/s"},
      {"partition.imbalance", median(imbalance), "x"},
      {"partition.scan_share", median(scan_share), "ratio"},
      {"partition.emit_share", median(emit_share), "ratio"},
      {"partition.flush_share", median(flush_share), "ratio"},
      {"workers.speedup_4v1",
       median(many_s) > 0 ? median(one_s) / median(many_s) : 0.0, "x"},
      {"mutation.build_s", build_s, "s"},
      {"mutation.count",
       cluster ? phase.writes_applied / calls : phase.per_op(kWriterMutations),
       "count"},
      {"mutation.cells", triangle ? 0.0 : phase.per_op(kPartials), "count"},
      {"writer.mutations_per_s", writer_rate, "1/s"},
      {"apply.p50_us", apply_p50, "us"},
      {"apply.tail_us", apply_tail, "us"},
      {"apply.scaling_4v1", apply_scaling, "x"},
      {"writer.flushes_per_op", phase.per_op(kWriterFlushes), "count"},
      {"wal.records_per_op", phase.per_op(kWalRecords), "count"},
      {"wal.bytes_per_op", phase.per_op(kWalBytes), "bytes"},
      {"wal.sync_s", wal_sync_s, "s"},
      {"fold.cells_in_per_out", fold_ratio, "x"},
      {"fold.compact_s", fold_compact_s, "s"},
      {"flush.count_per_op", phase.per_op(kTabletFlushes), "count"},
      {"compaction.tasks_per_op",
       phase.per_op(kTabletCompactions) + phase.per_op(kCompactionTasks),
       "count"},
      {"rpc.requests_per_op", phase.per_op(kRpcRequests), "count"},
      {"rpc.wire_bytes_per_op",
       phase.per_op(kRpcBytesSent) + phase.per_op(kRpcBytesRecv), "bytes"},
      {"rpc.ping_us.p50", ping_us, "us"},
      {"rpc.codec_mb_per_s", codec_rate, "MB/s"},
      {"cluster.scan_cells_per_s", cluster_scan_rate, "1/s"},
      {"cluster.write_mutations_per_s", cluster_write_rate, "1/s"},
      {"cluster.writes_applied_per_op", phase.writes_applied / calls, "count"},
      {"cluster.writes_deduped_per_op", phase.writes_deduped / calls, "count"},
      {"cluster.remote_over_local", remote_over_local, "x"},
      {"trace.overhead_frac", p50 > 0 ? traced_p50 / p50 - 1.0 : 0.0, "ratio"},
  };

  std::printf("\nkernel phase: %zu untraced calls (op_s.p50 %.6f s), %zu "
              "traced calls (op_s.p50 %.6f s)\n",
              phase.untraced_s.size(), p50, phase.traced_s.size(), traced_p50);
  print_self_time_table(log, caller_tid, p50, phase.traced_s.size(), replays);

  if (!trace_path.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(trace_path).parent_path());
    std::ofstream(trace_path) << log.chrome_trace();
    std::printf("\nwrote merged Chrome trace (%zu program events, %zu "
                "benchmark spans) to %s\n",
                log.ring().size(), log.spans().size(), trace_path.c_str());
  }
  return m;
}

}  // namespace graphbench
