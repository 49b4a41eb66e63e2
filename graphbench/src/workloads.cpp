#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "algo/tricount.hpp"
#include "assoc/table_io.hpp"
#include "core/table_algos.hpp"
#include "core/table_scan.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"
#include "nosql/codec.hpp"

namespace graphbench {

namespace la = graphulo::la;
namespace nosql = graphulo::nosql;
namespace core = graphulo::core;
namespace distributed = graphulo::distributed;
namespace assoc = graphulo::assoc;

namespace {

// Input sizes: the ROADMAP's n=512 TableMult baseline, and a triangle
// input (~176K stored entries) big enough that decode dominates.
constexpr int kTableMultScale = 9;
constexpr int kTriangleScale = 14;
constexpr int kTinyTableMultScale = 6;
constexpr int kTinyTriangleScale = 8;
constexpr double kEdgeFactor = 6;

constexpr int kLocalTablets = 4;
constexpr std::size_t kLocalWorkers = 4;
constexpr std::size_t kClusterServers = 3;

// tablemult_write reads A through a cache that holds all of it;
// triangle_read's cache is a fraction of its encoded files, so every
// call decodes (checked in setup).
constexpr std::size_t kWriteInputCacheBytes = 16u << 20;
constexpr std::size_t kTriangleCacheBytes = 64u << 10;
constexpr std::size_t kTinyTriangleCacheBytes = 4u << 10;

std::vector<std::string> even_splits(la::Index n, std::size_t pieces) {
  std::vector<std::string> out;
  for (std::size_t s = 1; s < pieces; ++s) {
    out.push_back(assoc::vertex_key(n * static_cast<la::Index>(s) /
                                    static_cast<la::Index>(pieces)));
  }
  return out;
}

/// Split rows cutting `a` into `pieces` row ranges of about equal
/// total weight, a row of degree d weighing d^`power`: power 1 gives
/// ranges of equal stored entries, power 2 of equal partial products of
/// A'A (row k emits d_k^2 of them).
std::vector<std::string> balanced_splits(const la::SpMat<double>& a,
                                         std::size_t pieces, int power) {
  const auto weight = [&](la::Index k) {
    const double d = static_cast<double>(a.row_degree(k));
    return power == 1 ? d : d * d;
  };
  double total = 0.0;
  for (la::Index k = 0; k < a.rows(); ++k) total += weight(k);
  std::vector<std::string> out;
  double seen = 0.0;
  for (la::Index k = 0; k < a.rows() && out.size() + 1 < pieces; ++k) {
    const double target = total * static_cast<double>(out.size() + 1) /
                          static_cast<double>(pieces);
    if (seen >= target && k > 0) out.push_back(assoc::vertex_key(k));
    seen += weight(k);
  }
  return out;
}

/// Exact comparison of `got` with factor * `want`: same pattern, and
/// every value equal (A is 0/1, so every entry is a small integer and
/// the sums are exact in double).
bool equals_scaled(const la::SpMat<double>& got, const la::SpMat<double>& want,
                   double factor) {
  if (got.rows() != want.rows() || got.cols() != want.cols() ||
      got.nnz() != want.nnz()) {
    return false;
  }
  for (la::Index i = 0; i < want.rows(); ++i) {
    const auto gc = got.row_cols(i);
    const auto wc = want.row_cols(i);
    if (gc.size() != wc.size()) return false;
    const auto gv = got.row_vals(i);
    const auto wv = want.row_vals(i);
    for (std::size_t p = 0; p < wc.size(); ++p) {
      if (gc[p] != wc[p] || gv[p] != factor * wv[p]) return false;
    }
  }
  return true;
}

/// Relabels vertices by ascending degree (ties by id). Through the
/// strict-upper filter every wedge is then enumerated at its
/// lowest-degree vertex, the usual orientation for masked triangle
/// counting. Without it the per-call work depends on where the id
/// scramble happens to put the hubs, and varied 1.7x across seeds.
la::SpMat<double> degree_ordered(const la::SpMat<double>& a) {
  const la::Index n = a.rows();
  std::vector<la::Index> order(static_cast<std::size_t>(n));
  for (la::Index i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](la::Index x, la::Index y) {
    return a.row_degree(x) < a.row_degree(y);
  });
  std::vector<la::Index> label(static_cast<std::size_t>(n));
  for (la::Index r = 0; r < n; ++r) {
    label[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;
  }
  std::vector<la::Triple<double>> triples;
  triples.reserve(static_cast<std::size_t>(a.nnz()));
  for (const auto& t : a.to_triples()) {
    triples.push_back({label[static_cast<std::size_t>(t.row)],
                       label[static_cast<std::size_t>(t.col)], t.val});
  }
  return la::SpMat<double>::from_triples(n, n, std::move(triples));
}

/// Reads a cluster table written under the D4M convention into an
/// n x n matrix.
la::SpMat<double> read_cluster_matrix(distributed::Cluster& cluster,
                                      const std::string& table, la::Index n) {
  std::vector<la::Triple<double>> triples;
  auto it = cluster.scan(table, nosql::Range::all());
  while (it->has_top()) {
    const auto& k = it->top_key();
    triples.push_back({assoc::parse_vertex_key(k.row),
                       assoc::parse_vertex_key(k.qualifier),
                       nosql::decode_double(it->top_value()).value_or(0.0)});
    it->next();
  }
  return la::SpMat<double>::from_triples(n, n, std::move(triples));
}

}  // namespace

Kind parse_kind(const std::string& name) {
  if (name == "tablemult_write") return Kind::kTableMultWrite;
  if (name == "triangle_read") return Kind::kTriangleRead;
  if (name == "tablemult_cluster") return Kind::kTableMultCluster;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kTableMultWrite: return "tablemult_write";
    case Kind::kTriangleRead: return "triangle_read";
    case Kind::kTableMultCluster: return "tablemult_cluster";
  }
  return "?";
}

Workload::Workload(Config config) : config_(std::move(config)) {}

Workload::~Workload() { teardown(); }

int Workload::scale() const noexcept {
  if (config_.kind == Kind::kTriangleRead) {
    return config_.tiny ? kTinyTriangleScale : kTriangleScale;
  }
  return config_.tiny ? kTinyTableMultScale : kTableMultScale;
}

std::size_t Workload::workers() const noexcept {
  return config_.kind == Kind::kTableMultCluster ? kClusterServers
                                                 : kLocalWorkers;
}

core::TableMultOptions Workload::kernel_options() const {
  core::TableMultOptions options;
  options.num_workers = workers();
  if (config_.kind == Kind::kTriangleRead) {
    // What table_triangle_count_masked passes (its worker count is the
    // default, hardware concurrency).
    options.num_workers = 0;
    options.row_filter = core::strict_upper_filter();
    options.col_filter = core::strict_upper_filter();
    options.mask_table = input_.table;
    options.mask_filter = core::strict_lower_filter();
  } else {
    options.compact_result = true;
  }
  return options;
}

void Workload::setup(int round) {
  teardown();
  dir_ = config_.work_dir + "/" + kind_name(config_.kind) + "-r" +
         std::to_string(round);
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);

  const bool triangle = config_.kind == Kind::kTriangleRead;
  input_ = Input{};
  graphulo::gen::RmatParams params;
  params.scale = scale();
  params.edge_factor = kEdgeFactor;
  params.seed = config_.seed;
  input_.a = graphulo::gen::rmat_simple_adjacency(params);
  if (triangle) input_.a = degree_ordered(input_.a);
  for (la::Index k = 0; k < input_.a.rows(); ++k) {
    double d = 0.0;
    for (const la::Index j : input_.a.row_cols(k)) {
      if (!triangle || j > k) d += 1.0;
    }
    input_.partials += d * d;
  }
  input_.table = triangle ? "G" : "A";
  input_.result = triangle ? "" : "C";
  if (config_.kind == Kind::kTableMultCluster) {
    setup_cluster();
  } else {
    setup_local();
  }
}

void Workload::setup_local() {
  // Degree order piles the edges into the high ids, so the triangle
  // input is cut at equal stored entries rather than equal ids.
  splits_ = config_.kind == Kind::kTriangleRead
                ? balanced_splits(input_.a, kLocalTablets, 1)
                : even_splits(input_.a.rows(), kLocalTablets);
  db_ = std::make_unique<nosql::Instance>(kLocalTablets);
  nosql::TableConfig config;
  config.rfile.prefix_encode = true;
  if (config_.kind == Kind::kTableMultWrite) {
    // Default WalOptions: interval mode, durable at sync_wal().
    wal_ = std::make_shared<nosql::WriteAheadLog>(dir_ + "/wal");
    db_->attach_wal(wal_);
    config.rfile.cache_bytes = kWriteInputCacheBytes;
  } else {
    config.rfile.cache_bytes =
        config_.tiny ? kTinyTriangleCacheBytes : kTriangleCacheBytes;
  }
  db_->create_table(input_.table, config);
  db_->add_splits(input_.table, splits_);
  assoc::write_matrix(*db_, input_.table, input_.a);
  db_->flush(input_.table);
  db_->compact(input_.table);

  const std::size_t bytes = input_block_bytes();
  if (config_.kind == Kind::kTriangleRead &&
      bytes <= config.rfile.cache_bytes) {
    throw std::runtime_error("triangle_read: input (" + std::to_string(bytes) +
                             " B) fits its block cache; it must not");
  }
  if (config_.kind == Kind::kTableMultWrite &&
      bytes > config.rfile.cache_bytes) {
    throw std::runtime_error("tablemult_write: input (" +
                             std::to_string(bytes) +
                             " B) exceeds its block cache; it must fit");
  }
}

void Workload::setup_cluster() {
  // Each server's partition emits the partial products of its rows; cut
  // at equal shares of them, as a balanced pre-split would. At even ids
  // the share of the busiest server hung on where the scramble put the
  // hubs, and so did the call time (0.37 s to 0.49 s across seeds).
  splits_ = balanced_splits(input_.a, kClusterServers, 2);
  std::vector<distributed::Endpoint> endpoints;
  for (std::uint32_t i = 0; i < kClusterServers; ++i) {
    fleet_.push_back(std::make_unique<Daemon>(
        dir_ + "/s" + std::to_string(i), i, splits_));
    endpoints.push_back(fleet_.back()->endpoint());
  }
  cluster_ = std::make_unique<distributed::Cluster>(std::move(endpoints),
                                                    splits_);
  cluster_->ensure_table(input_.table, false);
  {
    auto writer = cluster_->writer(input_.table, "graphbench-loader");
    for (la::Index i = 0; i < input_.a.rows(); ++i) {
      const auto cols = input_.a.row_cols(i);
      if (cols.empty()) continue;
      const auto vals = input_.a.row_vals(i);
      nosql::Mutation m(assoc::vertex_key(i));
      for (std::size_t p = 0; p < cols.size(); ++p) {
        m.put(assoc::kValueFamily, assoc::vertex_key(cols[p]),
              nosql::encode_double(vals[p]));
      }
      writer->add_mutation(std::move(m));
    }
    writer->close();
  }
  cluster_->compact(input_.table);
}

void Workload::teardown() {
  cluster_.reset();
  fleet_.clear();
  db_.reset();
  wal_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }
}

void Workload::prepare_oracle() {
  if (config_.kind == Kind::kTriangleRead) {
    input_.triangles = graphulo::algo::triangle_count_masked(input_.a);
  } else {
    input_.product =
        la::spgemm<la::PlusTimes<double>>(la::transpose(input_.a), input_.a);
  }
}

std::size_t Workload::input_block_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [tablet, server] :
       db_->tablets_for_range(input_.table, nosql::Range::all())) {
    bytes += tablet->stats().file_block_bytes;
  }
  return bytes;
}

void Workload::call(SpanLog& log, std::uint64_t call_id) {
  const std::string& table = input_.table;
  switch (config_.kind) {
    case Kind::kTableMultWrite: {
      {
        SpanLog::Scope span(log, "core::table_mult", "core.tablemult",
                            call_id);
        last_stats_ = core::table_mult(*db_, table, table, input_.result,
                                       kernel_options());
      }
      const auto t0 = Clock::now();
      {
        SpanLog::Scope span(log, "Instance::sync_wal", "nosql.wal", call_id);
        db_->sync_wal();
      }
      last_sync_s_ = seconds_between(t0, Clock::now());
      break;
    }
    case Kind::kTriangleRead: {
      SpanLog::Scope span(log, "core::table_triangle_count_masked",
                          "core.tablemult", call_id);
      last_count_ = core::table_triangle_count_masked(*db_, table, &last_stats_);
      break;
    }
    case Kind::kTableMultCluster: {
      SpanLog::Scope span(log, "distributed::table_mult", "distributed",
                          call_id);
      last_stats_ = distributed::table_mult(*cluster_, table, table,
                                            input_.result, kernel_options());
      break;
    }
  }
  ++input_.calls_into_result;
}

la::SpMat<double> Workload::read_result() const {
  const la::Index n = input_.a.rows();
  if (config_.kind == Kind::kTableMultCluster) {
    return read_cluster_matrix(*cluster_, input_.result, n);
  }
  return assoc::read_matrix(*db_, input_.result, n, n);
}

bool Workload::check() {
  const double offset = config_.wrong_oracle ? 1.0 : 0.0;
  if (config_.kind == Kind::kTriangleRead) {
    return static_cast<double>(last_count_) ==
           static_cast<double>(input_.triangles) + offset;
  }
  return equals_scaled(read_result(), input_.product,
                       static_cast<double>(input_.calls_into_result) + offset);
}

void Workload::restart_result() {
  if (config_.kind == Kind::kTriangleRead) return;
  if (db_ && db_->table_exists(input_.result)) {
    db_->delete_table(input_.result);
  }
  input_.result = "C" + std::to_string(++input_.result_generation);
  input_.calls_into_result = 0;
}

}  // namespace graphbench
