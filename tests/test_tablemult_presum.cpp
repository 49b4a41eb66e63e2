// TableMult's write side pre-sums each partition's partial products
// (DESIGN.md §7): every result here is compared with the in-memory `la`
// oracle cell for cell, on the local plane and across in-process tablet
// servers. Also checked: the emitted-cell count against the per-
// partition product nnz, multi-drain streams replaying identically, a
// retry skipping an applied prefix of a pre-summed stream, and C being
// pre-split at the partition bounds.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assoc/table_io.hpp"
#include "core/data_plane.hpp"
#include "core/tablemult.hpp"
#include "distributed/cluster.hpp"
#include "distributed/tablet_service.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "nosql/nosql.hpp"
#include "rpc/server.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"

namespace graphulo {
namespace {

using core::TableMultOptions;
using core::TableMultStats;
using la::SpMat;

constexpr int kParts = 4;

/// The stored (row, column) cells of a matrix.
using CellSet = std::set<std::pair<la::Index, la::Index>>;

/// An RMAT graph: its hubs give the partial products of AᵀA heavy
/// duplication, the case pre-summing folds.
SpMat<double> rmat_graph(std::uint64_t seed, int scale = 7,
                         int edge_factor = 8) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return gen::rmat_simple_adjacency(p);
}

/// Interior row bounds cutting 0..n-1 into `parts` even id ranges.
std::vector<std::string> even_bounds(la::Index n, int parts) {
  std::vector<std::string> bounds;
  for (int s = 1; s < parts; ++s) {
    bounds.push_back(assoc::vertex_key(n * s / parts));
  }
  return bounds;
}

/// The rows of `a` whose keys fall in ["start", "end") (empty = open).
SpMat<double> row_slice(const SpMat<double>& a, const std::string& start,
                        const std::string& end) {
  std::vector<la::Triple<double>> triples;
  for (const auto& t : a.to_triples()) {
    const std::string key = assoc::vertex_key(t.row);
    if (key >= start && (end.empty() || key < end)) triples.push_back(t);
  }
  return SpMat<double>::from_triples(a.rows(), a.cols(), std::move(triples));
}

/// nnz(A_pᵀA_p) over the cells `mask` keeps (all when null).
std::size_t product_nnz(const SpMat<double>& a_p, const CellSet* mask) {
  const auto c = la::spgemm<la::PlusTimes<double>>(la::transpose(a_p), a_p);
  std::size_t nnz = 0;
  for (const auto& t : c.to_triples()) {
    if (!mask || mask->count({t.row, t.col}) != 0) ++nnz;
  }
  return nnz;
}

/// The counts one multiply must report: every emitted cell is one cell
/// of its partition's (masked) product, and duplicates folded away.
void expect_presummed_counts(const TableMultStats& stats,
                             const SpMat<double>& a, const CellSet* mask,
                             const std::string& what) {
  std::size_t expected = 0;
  for (const auto& p : stats.partitions) {
    const std::size_t nnz =
        product_nnz(row_slice(a, p.start_row, p.end_row), mask);
    EXPECT_EQ(p.cells_emitted, nnz) << what << " [" << p.start_row << ", "
                                    << p.end_row << ")";
    EXPECT_LE(p.cells_emitted, p.partial_products) << what;
    expected += nnz;
  }
  EXPECT_EQ(stats.cells_emitted, expected) << what;
  EXPECT_LT(stats.cells_emitted, stats.partial_products)
      << what << ": RMAT hubs must leave duplicates to fold";
}

CellSet cell_set(const SpMat<double>& m) {
  CellSet cells;
  for (const auto& t : m.to_triples()) cells.insert({t.row, t.col});
  return cells;
}

/// The oracle for C = AᵀA, gated by `mask` when given.
SpMat<double> oracle(const SpMat<double>& a, const SpMat<double>* mask) {
  const auto at = la::transpose(a);
  return mask ? la::spgemm_masked<la::PlusTimes<double>>(at, a, *mask)
              : la::spgemm<la::PlusTimes<double>>(at, a);
}

TEST(TableMultPreSum, RmatHubsMatchOracleOnLocalPlane) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const auto a = rmat_graph(seed);
    const la::Index n = a.rows();
    const auto mask = la::tril(a);
    const auto mask_cells = cell_set(mask);

    nosql::Instance db(kParts);
    assoc::write_matrix(db, "A", a);
    assoc::write_matrix(db, "M", mask);
    db.add_splits("A", even_bounds(n, kParts));

    int run = 0;
    for (const std::size_t workers : {1u, 4u}) {
      for (const bool masked : {false, true}) {
        const std::string c = "C" + std::to_string(run++);
        const std::string what = "seed " + std::to_string(seed) + " workers " +
                                 std::to_string(workers) +
                                 (masked ? " masked" : " unmasked");
        TableMultOptions options;
        options.num_workers = workers;
        if (masked) options.mask_table = "M";
        const auto stats = core::table_mult(db, "A", "A", c, options);

        EXPECT_EQ(assoc::read_matrix(db, c, n, n),
                  oracle(a, masked ? &mask : nullptr))
            << what;
        expect_presummed_counts(stats, a, masked ? &mask_cells : nullptr, what);
        // A C created by the call is pre-split at the partition bounds.
        std::vector<std::string> bounds;
        for (const auto& p : stats.partitions) {
          if (!p.start_row.empty()) bounds.push_back(p.start_row);
        }
        EXPECT_EQ(db.list_splits(c), bounds) << what;
        EXPECT_EQ(stats.partitions.size(), workers == 1 ? 1u : 4u) << what;
      }
    }
  }
}

/// One in-process tablet server: Instance + TabletService + RpcServer.
struct TestServer {
  nosql::Instance db;
  distributed::TabletService service;
  rpc::RpcServer server;

  TestServer(std::vector<std::string> boundaries, std::uint32_t index)
      : service(db, std::move(boundaries), index),
        server(0, [this](rpc::Verb verb, const std::string& body,
                         std::optional<std::chrono::steady_clock::time_point>
                             deadline) {
          return service.handle(verb, body, deadline);
        }) {}

  distributed::Endpoint endpoint() const {
    return {"127.0.0.1", server.port()};
  }
};

void write_to_cluster(distributed::Cluster& cluster, const std::string& table,
                      const SpMat<double>& m) {
  cluster.ensure_table(table, /*sum_combiner=*/false);
  auto writer = cluster.writer(table, "loader/" + table);
  for (const auto& t : m.to_triples()) {
    nosql::Mutation mut(assoc::vertex_key(t.row));
    mut.put(assoc::kValueFamily, assoc::vertex_key(t.col),
            nosql::encode_double(t.val));
    writer->add_mutation(std::move(mut));
  }
  writer->close();
}

SpMat<double> read_from_cluster(distributed::Cluster& cluster,
                                const std::string& table, la::Index n) {
  std::vector<la::Triple<double>> triples;
  auto it = cluster.scan(table, nosql::Range::all());
  for (; it->has_top(); it->next()) {
    const auto value = nosql::decode_double(it->top_value());
    EXPECT_TRUE(value.has_value());
    triples.push_back({assoc::parse_vertex_key(it->top_key().row),
                       assoc::parse_vertex_key(it->top_key().qualifier),
                       value.value_or(0.0)});
  }
  return SpMat<double>::from_triples(n, n, std::move(triples));
}

TEST(TableMultPreSum, RmatHubsMatchOracleOnClusterPlane) {
  const auto a = rmat_graph(5);
  const la::Index n = a.rows();
  const auto mask = la::tril(a);
  const auto mask_cells = cell_set(mask);
  const auto boundaries = even_bounds(n, 3);

  std::vector<std::unique_ptr<TestServer>> servers;
  std::vector<distributed::Endpoint> endpoints;
  for (std::uint32_t s = 0; s < 3; ++s) {
    servers.push_back(std::make_unique<TestServer>(boundaries, s));
    endpoints.push_back(servers.back()->endpoint());
  }
  distributed::ClusterOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::microseconds(200);
  distributed::Cluster cluster(endpoints, boundaries, options);
  write_to_cluster(cluster, "A", a);
  write_to_cluster(cluster, "M", mask);

  int run = 0;
  for (const std::size_t workers : {1u, 4u}) {
    for (const bool masked : {false, true}) {
      const std::string c = "C" + std::to_string(run++);
      const std::string what = std::string("workers ") +
                               std::to_string(workers) +
                               (masked ? " masked" : " unmasked");
      TableMultOptions kernel;
      kernel.num_workers = workers;
      if (masked) kernel.mask_table = "M";
      const auto stats = distributed::table_mult(cluster, "A", "A", c, kernel);

      EXPECT_EQ(read_from_cluster(cluster, c, n),
                oracle(a, masked ? &mask : nullptr))
          << what;
      expect_presummed_counts(stats, a, masked ? &mask_cells : nullptr, what);
      // More workers than servers still cut at the server boundaries.
      EXPECT_EQ(stats.partitions.size(), workers == 1 ? 1u : 3u) << what;
    }
  }
}

/// A local plane whose writers also record every mutation they are
/// given, as (row, cells), per writer stream with the multiply's nonce
/// stripped — the stream as its partition generates it.
class RecordingPlane : public core::LocalDataPlane {
 public:
  using Stream = std::vector<std::pair<std::string, std::string>>;

  explicit RecordingPlane(nosql::Instance& db) : LocalDataPlane(db) {}

  std::unique_ptr<nosql::MutationSink> open_writer(
      const std::string& table, const std::string& stream) override {
    std::lock_guard lock(mutex_);
    Stream& log = streams_[stream.substr(stream.rfind('/') + 1)];
    log.clear();  // a retry resends from sequence 0
    return std::make_unique<Recorder>(
        LocalDataPlane::open_writer(table, stream), log, mutex_);
  }

  std::map<std::string, Stream> streams() {
    std::lock_guard lock(mutex_);
    return streams_;
  }

 private:
  class Recorder : public nosql::MutationSink {
   public:
    Recorder(std::unique_ptr<nosql::MutationSink> inner, Stream& log,
             std::mutex& mutex)
        : inner_(std::move(inner)), log_(log), mutex_(mutex) {}

    void add_mutation(nosql::Mutation m) override {
      std::string cells;
      for (const auto& u : m.updates()) {
        cells += u.family + ":" + u.qualifier + "=" + u.value + ";";
      }
      {
        std::lock_guard lock(mutex_);
        log_.emplace_back(m.row(), std::move(cells));
      }
      inner_->add_mutation(std::move(m));
    }
    void flush() override { inner_->flush(); }
    void close() override { inner_->close(); }
    void abandon() noexcept override { inner_->abandon(); }
    const std::optional<std::string>& last_error() const noexcept override {
      return inner_->last_error();
    }
    ErrorKind last_error_kind() const noexcept override {
      return inner_->last_error_kind();
    }

   private:
    std::unique_ptr<nosql::MutationSink> inner_;
    Stream& log_;
    std::mutex& mutex_;
  };

  std::mutex mutex_;
  std::map<std::string, Stream> streams_;
};

TEST(TableMultPreSum, LargeInputDrainsMoreThanOnceAndReplaysTheSameStream) {
  // 16 shared rows of 512 columns at density 1/4: AᵀA has about 171K
  // distinct cells from 270K partial products, more than the
  // accumulator holds within its bound (the writer's 4 MiB buffer).
  const la::Index n = 512;
  const auto a = testing::random_sparse_int(16, n, 0.25, 2024);
  nosql::Instance db(1);
  assoc::write_matrix(db, "A", a);
  const auto expected = oracle(a, nullptr);

  TableMultOptions options;
  options.num_workers = 1;
  std::vector<RecordingPlane::Stream> runs;
  for (const char* c : {"C1", "C2"}) {
    RecordingPlane plane(db);
    const auto stats = core::table_mult(plane, "A", "A", c, options);
    EXPECT_EQ(assoc::read_matrix(db, c, n, n), expected) << c;
    const auto streams = plane.streams();
    ASSERT_EQ(streams.size(), 1u);
    const auto& stream = streams.begin()->second;

    // Each drain emits strictly increasing rows; every drop in row
    // order starts another drain.
    std::size_t drains = 1;
    for (std::size_t i = 1; i < stream.size(); ++i) {
      if (stream[i].first <= stream[i - 1].first) ++drains;
    }
    EXPECT_GE(drains, 2u) << c;
    // Cells summed into C by more than one drain are sent once each.
    EXPECT_GT(stats.cells_emitted, static_cast<std::size_t>(expected.nnz()))
        << c;
    EXPECT_LT(stats.cells_emitted, stats.partial_products) << c;
    runs.push_back(stream);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

class PreSumFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::reset(); }
};

TEST_F(PreSumFaultTest, RetrySkipsTheAppliedPrefixOfAPreSummedStream) {
  const auto a = testing::random_sparse_int(24, 16, 0.4, 77);
  const auto b = testing::random_sparse_int(24, 12, 0.4, 78);
  const auto expected = la::spgemm<la::PlusTimes<double>>(la::transpose(a), b);

  nosql::Instance db(1);
  assoc::write_matrix(db, "A", a);
  assoc::write_matrix(db, "B", b);
  // Instance::apply gets one try, so each of the writer's own retries
  // (5 by default) hits the fault site exactly once.
  util::RetryPolicy once;
  once.max_attempts = 1;
  db.set_retry_policy(once);

  // The pre-summed stream is one mutation per output row: mutations
  // 0-2 apply, then mutation 3 fails all five of the writer's tries,
  // which fails the partition attempt mid-flush.
  util::fault::FaultSpec spec;
  spec.fire_on_hits = {4, 5, 6, 7, 8};
  util::fault::arm(util::fault::sites::kInstanceApply, spec);

  TableMultOptions options;
  options.num_workers = 1;
  const auto stats = core::table_mult(db, "A", "B", "C", options);
  const auto apply = util::fault::stats(util::fault::sites::kInstanceApply);
  util::fault::reset();

  EXPECT_EQ(apply.fires, 5u);
  EXPECT_EQ(stats.retried_partitions, 1u);
  ASSERT_EQ(stats.partitions.size(), 1u);
  EXPECT_EQ(stats.partitions[0].attempts, 2u);
  // The retry resent the stream from sequence 0; the Instance skipped
  // the three applied mutations before reaching its site, so every
  // output row was applied exactly once.
  std::set<la::Index> rows;
  for (const auto& t : expected.to_triples()) rows.insert(t.row);
  ASSERT_GT(rows.size(), 3u);
  EXPECT_EQ(apply.hits - apply.fires, rows.size());
  const auto marks = db.stream_marks("C");
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks.begin()->second, rows.size());
  EXPECT_EQ(assoc::read_matrix(db, "C", 16, 12), expected);
  // ... which is also what the same multiply writes unfaulted.
  core::table_mult(db, "A", "B", "Cclean", options);
  EXPECT_EQ(assoc::read_matrix(db, "Cclean", 16, 12),
            assoc::read_matrix(db, "C", 16, 12));
}

}  // namespace
}  // namespace graphulo
