// Multi-process distributed mode: these tests fork/exec real
// graphulo_tsd daemons (binary path baked in via GRAPHULO_TSD_PATH),
// parse the "GRAPHULO_TSD LISTENING port=" handshake to learn each
// ephemeral port, and drive the fleet through distributed::Cluster.
//
//   * a 3-process RMAT TableMult checked cell-for-cell against the
//     client-side spgemm reference (the ISSUE acceptance equivalence),
//   * kill -9 one server mid-fleet and restart it on the same data dir:
//     WAL replay must reproduce byte-identical scans (keys, values,
//     timestamps),
//   * SIGTERM (graceful): the shutdown checkpoint alone must carry the
//     data, and the presets sidecar must restore the sum-combiner
//     config so the result table keeps folding after recovery,
//   * a batch acked before either kind of restart and resent after it
//     is skipped whole: writer stream marks survive the restart.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "assoc/table_io.hpp"
#include "distributed/cluster.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "nosql/codec.hpp"
#include "util/fault.hpp"

namespace graphulo {
namespace {

using namespace distributed;

/// One forked graphulo_tsd process. The destructor hard-kills it (tests
/// that want a graceful stop call terminate() themselves) and removes
/// nothing — the fixture owns the data dirs so restarts can reuse them.
class Daemon {
 public:
  Daemon(std::string data_dir, std::uint32_t server_index,
         const std::vector<std::string>& boundaries) {
    spawn(std::move(data_dir), server_index, boundaries);
  }

  ~Daemon() { kill_hard(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  bool running() const { return pid_ > 0; }

  /// SIGKILL — no drain, no checkpoint; recovery must come from the
  /// WAL tail.
  void kill_hard() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap();
  }

  /// SIGTERM and wait: the daemon drains, checkpoints, and exits 0.
  void terminate() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    reap();
  }

 private:
  // ASSERT macros cannot live in a constructor (they return), so the
  // fallible spawn is a void member the constructor delegates to.
  void spawn(std::string data_dir, std::uint32_t server_index,
             const std::vector<std::string>& boundaries) {
    std::string joined;
    for (const auto& b : boundaries) {
      if (!joined.empty()) joined += ',';
      joined += b;
    }
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0) << "fork failed";
    if (pid_ == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      const std::string index = std::to_string(server_index);
      std::vector<const char*> argv = {GRAPHULO_TSD_PATH,
                                       "--port",         "0",
                                       "--server-index", index.c_str(),
                                       "--data-dir",     data_dir.c_str(),
                                       "--lease-ttl-ms", "30000"};
      if (!joined.empty()) {
        argv.push_back("--boundaries");
        argv.push_back(joined.c_str());
      }
      argv.push_back(nullptr);
      ::execv(GRAPHULO_TSD_PATH, const_cast<char* const*>(argv.data()));
      ::perror("execv graphulo_tsd");
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    parse_handshake();
  }

  void parse_handshake() {
    // Read stdout until the LISTENING line; the daemon prints it as
    // soon as the listener is bound (recovery happens before that).
    std::string out;
    char buf[256];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
      const auto at = out.find("GRAPHULO_TSD LISTENING port=");
      if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(out.substr(at + 28, out.find('\n', at) - (at + 28))));
        return;
      }
    }
    FAIL() << "daemon handshake not seen; stdout so far: " << out;
  }

  void reap() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A 3-server fleet on fresh temp data dirs, restartable per server.
class Fleet {
 public:
  explicit Fleet(const std::string& tag, std::vector<std::string> boundaries)
      : boundaries_(std::move(boundaries)) {
    const auto base = ::testing::TempDir() + "/graphulo_tsd_" + tag + "_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(base);
    for (std::size_t i = 0; i <= boundaries_.size(); ++i) {
      dirs_.push_back(base + "/s" + std::to_string(i));
      daemons_.push_back(std::make_unique<Daemon>(
          dirs_.back(), static_cast<std::uint32_t>(i), boundaries_));
      if (::testing::Test::HasFatalFailure()) return;
    }
    base_ = base;
  }

  ~Fleet() {
    daemons_.clear();  // kill before removing the dirs under them
    if (!base_.empty()) std::filesystem::remove_all(base_);
  }

  Daemon& daemon(std::size_t i) { return *daemons_[i]; }

  /// Restarts server `i` on its existing data dir (new ephemeral port).
  void restart(std::size_t i) {
    daemons_[i] = std::make_unique<Daemon>(
        dirs_[i], static_cast<std::uint32_t>(i), boundaries_);
  }

  /// A fresh Cluster view over the CURRENT endpoints (ports move when a
  /// server restarts, so tests re-make this after a restart).
  Cluster cluster(ClusterOptions options = fast_options()) {
    std::vector<Endpoint> endpoints;
    for (const auto& d : daemons_) endpoints.push_back(d->endpoint());
    return Cluster(std::move(endpoints), boundaries_, options);
  }

  static ClusterOptions fast_options() {
    ClusterOptions options;
    options.retry.max_attempts = 4;
    options.retry.initial_backoff = std::chrono::microseconds(500);
    options.client.connect_timeout = std::chrono::milliseconds(2000);
    return options;
  }

 private:
  std::vector<std::string> boundaries_;
  std::vector<std::string> dirs_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  std::string base_;
};

std::vector<nosql::Cell> drain_scan(Cluster& cluster, const std::string& table) {
  auto it = cluster.scan(table, nosql::Range::all());
  std::vector<nosql::Cell> out;
  while (it->has_top()) {
    out.push_back({it->top_key(), it->top_value()});
    it->next();
  }
  return out;
}

void write_matrix_to_cluster(Cluster& cluster, const std::string& table,
                             const la::SpMat<double>& m,
                             const std::string& writer_id) {
  cluster.ensure_table(table, /*sum_combiner=*/false);
  auto writer = cluster.writer(table, writer_id);
  for (const auto& t : m.to_triples()) {
    nosql::Mutation mut(assoc::vertex_key(t.row));
    mut.put(assoc::kValueFamily, assoc::vertex_key(t.col),
            nosql::encode_double(t.val));
    writer->add_mutation(std::move(mut));
  }
  writer->close();
}

la::SpMat<double> read_matrix_from_cluster(Cluster& cluster,
                                           const std::string& table,
                                           la::Index rows, la::Index cols) {
  std::vector<la::Triple<double>> triples;
  for (const auto& cell : drain_scan(cluster, table)) {
    const auto value = nosql::decode_double(cell.value);
    EXPECT_TRUE(value.has_value()) << cell.key.to_string();
    triples.push_back({assoc::parse_vertex_key(cell.key.row),
                       assoc::parse_vertex_key(cell.key.qualifier),
                       value.value_or(0.0)});
  }
  return la::SpMat<double>::from_triples(rows, cols, std::move(triples));
}

/// The ISSUE acceptance bar: C += A^T*A of an RMAT graph across three
/// real server processes agrees cell-for-cell with the client-side
/// spgemm reference. 0/1 adjacency keeps every sum a small integer, so
/// distributed addition order cannot perturb the comparison.
TEST(DistributedTableMult, ThreeProcessRmatMatchesClientSide) {
  gen::RmatParams p;
  p.scale = 6;
  p.edge_factor = 6;
  const auto a = gen::rmat_simple_adjacency(p);
  const la::Index n = a.rows();
  const std::vector<std::string> boundaries = {
      assoc::vertex_key(n / 3), assoc::vertex_key(2 * n / 3)};

  Fleet fleet("rmat", boundaries);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  auto cluster = fleet.cluster();
  cluster.ping_all();

  write_matrix_to_cluster(cluster, "A", a, "loader");
  // The static tablet map spreads the rows: every server applied some.
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(cluster.status(s).writes_applied, 0u) << "server " << s;
  }

  const auto stats =
      distributed::table_mult(cluster, "A", "A", "C", {.compact_result = true});
  EXPECT_GT(stats.rows_joined, 0u);
  EXPECT_EQ(stats.partitions.size(), 3u);  // one partition per server

  const auto expected = la::spgemm<la::PlusTimes<double>>(la::transpose(a), a);
  EXPECT_EQ(read_matrix_from_cluster(cluster, "C", n, n), expected);
}

/// kill -9 one server, restart it on the same data dir: WAL-replay
/// recovery must serve byte-identical cells (timestamps included — the
/// WAL records the assigned stamps and replay reuses them).
TEST(DistributedFault, KilledServerRecoversByteIdentical) {
  const std::vector<std::string> boundaries = {assoc::vertex_key(40),
                                               assoc::vertex_key(80)};
  Fleet fleet("kill", boundaries);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  std::vector<nosql::Cell> before;
  {
    auto cluster = fleet.cluster();
    cluster.ensure_table("T", false);
    auto writer = cluster.writer("T", "loader");
    for (int i = 0; i < 120; ++i) {
      nosql::Mutation m(assoc::vertex_key(i));
      m.put("f", "q", nosql::encode_double(i * 1.5));
      m.put("f", "r", std::string(1 + i % 7, 'x'));
      writer->add_mutation(std::move(m));
    }
    writer->close();  // acks are WAL-synced: data is durable from here
    before = drain_scan(cluster, "T");
    ASSERT_EQ(before.size(), 240u);
  }

  // No drain, no checkpoint — the middle server dies mid-fleet.
  fleet.daemon(1).kill_hard();

  {
    // A scan routed at the dead server's rows fails transiently (the
    // connection refuses), not fatally.
    auto cluster = fleet.cluster();
    EXPECT_THROW(
        cluster.scan("T", nosql::Range::exact_row(assoc::vertex_key(50))),
        util::TransientError);
  }

  fleet.restart(1);
  auto cluster = fleet.cluster();
  EXPECT_TRUE(cluster.table_exists("T"));
  const auto after = drain_scan(cluster, "T");
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "cell " << i << " diverged after "
                                   << before[i].key.to_string();
  }
}

/// SIGTERM path: the shutdown checkpoint alone carries the data (the
/// graceful exit may truncate the WAL), and the presets sidecar brings
/// the sum-combiner table back with its combiner attached — new writes
/// keep folding into recovered cells.
TEST(DistributedFault, GracefulRestartKeepsDataAndTableConfig) {
  Fleet fleet("term", {});  // single server: restart affects everything
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  {
    auto cluster = fleet.cluster();
    cluster.ensure_table("sums", /*sum_combiner=*/true);
    auto writer = cluster.writer("sums", "w1");
    nosql::Mutation m(assoc::vertex_key(1));
    m.put(assoc::kValueFamily, "c", nosql::encode_double(2.0));
    writer->add_mutation(std::move(m));
    writer->close();
  }

  fleet.daemon(0).terminate();  // drain + checkpoint + exit
  fleet.restart(0);

  auto cluster = fleet.cluster();
  EXPECT_TRUE(cluster.table_exists("sums"));
  {
    // The combiner must still fold: +3 onto the recovered 2 reads as 5.
    auto writer = cluster.writer("sums", "w2");
    nosql::Mutation m(assoc::vertex_key(1));
    m.put(assoc::kValueFamily, "c", nosql::encode_double(3.0));
    writer->add_mutation(std::move(m));
    writer->close();
  }
  const auto cells = drain_scan(cluster, "sums");
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(nosql::decode_double(cells[0].value), 5.0);
}

/// Exactly-once across a restart: a batch acked before the daemon went
/// down and resent after it came back (a client that never saw the ack)
/// is skipped whole. `graceful` stops the daemon with SIGTERM, whose
/// shutdown checkpoint truncates the WAL and so must carry the stream
/// marks itself; otherwise kill -9 leaves them to WAL replay.
void expect_resend_after_restart_is_skipped(const std::string& tag,
                                            bool graceful) {
  Fleet fleet(tag, {});
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  proto::WriteBatchRequest req;
  req.table = "sums";
  req.writer_id = "tm/42/0";
  req.first_seq = 0;
  for (int i = 0; i < 60; ++i) {
    nosql::Mutation m(assoc::vertex_key(i % 12));
    m.put(assoc::kValueFamily, "c", nosql::encode_double(i % 5 + 1.0));
    req.mutations.push_back(std::move(m));
  }
  const std::string body = proto::encode(req);

  std::vector<nosql::Cell> once;  // the table after one clean application
  {
    auto cluster = fleet.cluster();
    cluster.ensure_table("sums", /*sum_combiner=*/true);
    const auto first = proto::decode_write_batch_response(
        cluster.call(0, rpc::Verb::kWriteBatch, body));
    ASSERT_EQ(first.applied, 60u);  // acked: WAL-synced from here
    once = drain_scan(cluster, "sums");
    ASSERT_EQ(once.size(), 12u);
  }

  if (graceful) {
    fleet.daemon(0).terminate();
  } else {
    fleet.daemon(0).kill_hard();
  }
  fleet.restart(0);

  auto cluster = fleet.cluster();
  const auto resend = proto::decode_write_batch_response(
      cluster.call(0, rpc::Verb::kWriteBatch, body));
  EXPECT_EQ(resend.applied, 0u);
  EXPECT_EQ(resend.skipped, 60u);
  const auto after = drain_scan(cluster, "sums");
  ASSERT_EQ(after.size(), once.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(after[i], once[i]) << "cell " << i << " diverged after "
                                 << once[i].key.to_string();
  }
}

TEST(DistributedFault, ResendAfterKillNineAppliesExactlyOnce) {
  expect_resend_after_restart_is_skipped("resend_kill", /*graceful=*/false);
}

TEST(DistributedFault, ResendAfterGracefulRestartAppliesExactlyOnce) {
  expect_resend_after_restart_is_skipped("resend_term", /*graceful=*/true);
}

}  // namespace
}  // namespace graphulo
