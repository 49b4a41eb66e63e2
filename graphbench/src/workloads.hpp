#pragma once
// The three workloads: each builds its store from seeded RMAT inputs,
// runs one kernel call at a time (closed loop, one client), and checks
// every call against the la/ or algo/ oracle outside the timed region.
//
//   tablemult_write    core::table_mult C += A'A into one sum table,
//                      4 tablets, 4 workers, WAL (interval mode) synced
//                      at the end of each call.
//   triangle_read      core::table_triangle_count_masked over an
//                      adjacency held in prefix-encoded files whose
//                      block cache is smaller than the files.
//   tablemult_cluster  distributed::table_mult C += A'A against three
//                      graphulo_tsd daemons.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tablemult.hpp"
#include "distributed/cluster.hpp"
#include "fleet.hpp"
#include "harness.hpp"
#include "la/spmat.hpp"
#include "nosql/instance.hpp"
#include "nosql/wal.hpp"

namespace graphbench {

enum class Kind { kTableMultWrite, kTriangleRead, kTableMultCluster };

/// Throws std::invalid_argument for an unknown name.
Kind parse_kind(const std::string& name);
const char* kind_name(Kind kind);

struct Config {
  Kind kind = Kind::kTableMultWrite;
  std::uint64_t seed = 1;
  /// Self-test scale: a few hundred vertices, so a run takes seconds.
  bool tiny = false;
  /// Self-test of the checker: every expected value is off by one, so
  /// every call must be counted as failed.
  bool wrong_oracle = false;
  /// Scratch directory for WALs and daemon data; removed at exit.
  std::string work_dir;
};

/// The generated input graph, its tables and its oracle.
struct Input {
  graphulo::la::SpMat<double> a;
  /// Partial products one call computes, counted from the matrix:
  /// sum_k |A(k,:)|^2 for A'A; sum_k |U(k,:)|^2 for the masked L.U.
  double partials = 0.0;
  std::string table;   ///< the table the kernel reads
  std::string result;  ///< the sum table it writes ("" when none)
  std::size_t result_generation = 0;
  std::size_t calls_into_result = 0;  ///< result holds this many A'A
  graphulo::la::SpMat<double> product;  ///< A'A (tablemult workloads)
  std::uint64_t triangles = 0;          ///< algo::triangle_count_masked
};

class Workload {
 public:
  explicit Workload(Config config);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the input and builds the store from nothing: what
  /// setup_s times. `round` selects a fresh data directory.
  void setup(int round);
  /// Drops the store (daemons killed, data directory removed).
  void teardown();
  /// Computes the oracle for the current input (not part of setup_s).
  void prepare_oracle();

  /// One kernel call: the timed region of the closed loop.
  void call(SpanLog& log, std::uint64_t call_id);
  /// Checks the latest call against the oracle, cell for cell.
  bool check();
  /// After a failed call: continue into a fresh result table.
  void restart_result();

  Kind kind() const noexcept { return config_.kind; }
  const Config& config() const noexcept { return config_; }
  int scale() const noexcept;
  const Input& input() const noexcept { return input_; }
  /// The workers the kernel runs with.
  std::size_t workers() const noexcept;
  /// The options the kernel call passes (triangle: those
  /// table_triangle_count_masked builds).
  graphulo::core::TableMultOptions kernel_options() const;
  /// Interior row keys of the input's tablets / servers.
  const std::vector<std::string>& splits() const noexcept { return splits_; }

  graphulo::nosql::Instance* local() noexcept { return db_.get(); }
  graphulo::distributed::Cluster* cluster() noexcept { return cluster_.get(); }
  const std::vector<std::unique_ptr<Daemon>>& fleet() const noexcept {
    return fleet_;
  }
  /// Stats of the latest call.
  const graphulo::core::TableMultStats& last_stats() const noexcept {
    return last_stats_;
  }
  /// Seconds the latest call spent in Instance::sync_wal (local write).
  double last_sync_seconds() const noexcept { return last_sync_s_; }

 private:
  void setup_local();
  void setup_cluster();
  std::size_t input_block_bytes() const;
  graphulo::la::SpMat<double> read_result() const;

  Config config_;
  std::string dir_;
  Input input_;
  std::vector<std::string> splits_;
  std::shared_ptr<graphulo::nosql::WriteAheadLog> wal_;
  std::unique_ptr<graphulo::nosql::Instance> db_;
  std::vector<std::unique_ptr<Daemon>> fleet_;
  std::unique_ptr<graphulo::distributed::Cluster> cluster_;

  std::uint64_t last_count_ = 0;
  double last_sync_s_ = 0.0;
  graphulo::core::TableMultStats last_stats_;
};

}  // namespace graphbench
