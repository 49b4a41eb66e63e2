// The in-database graph algorithms (k-truss, Jaccard, PageRank on
// tables) checked cell for cell against the in-memory algorithms of
// algo/ on R-MAT graphs, plus the small cases that pin their edges.
// Every call must leave the instance holding only its input and output
// tables: the kernels run on TableMult without scratch result tables.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algo/centrality.hpp"
#include "algo/jaccard.hpp"
#include "algo/ktruss.hpp"
#include "assoc/table_io.hpp"
#include "core/table_algos.hpp"
#include "gen/rmat.hpp"
#include "la/la.hpp"

namespace graphulo::core {
namespace {

using assoc::read_matrix;
using assoc::write_matrix;
using la::Index;
using la::SpMat;

SpMat<double> rmat_graph(int scale, std::uint64_t seed) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return gen::rmat_simple_adjacency(p);
}

std::vector<std::string> sorted_tables(const nosql::Instance& db) {
  auto names = db.table_names();
  std::sort(names.begin(), names.end());
  return names;
}

class TableAlgosOracle
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TableAlgosOracle, KTrussMatchesAlgorithm1) {
  const auto [scale, seed] = GetParam();
  const auto a = rmat_graph(scale, seed);
  nosql::Instance db(2);
  write_matrix(db, "A", a);
  for (int k : {2, 3, 4, 5}) {
    const std::string out = std::string("T").append(std::to_string(k));
    const auto cells = table_ktruss(db, "A", k, out);
    const auto oracle = algo::ktruss_adjacency(a, k);
    EXPECT_EQ(cells, static_cast<std::size_t>(oracle.nnz())) << "k=" << k;
    EXPECT_EQ(read_matrix(db, out, a.rows(), a.cols()), oracle) << "k=" << k;
  }
  EXPECT_EQ(sorted_tables(db),
            (std::vector<std::string>{"A", "T2", "T3", "T4", "T5"}));
}

TEST_P(TableAlgosOracle, JaccardMatchesAlgorithm2UpperTriangle) {
  const auto [scale, seed] = GetParam();
  const auto a = rmat_graph(scale, seed);
  nosql::Instance db(2);
  write_matrix(db, "A", a);
  const auto written = table_jaccard(db, "A", "J");
  const auto oracle = la::triu(algo::jaccard_linalg(a)).to_triples();
  const auto got = read_matrix(db, "J", a.rows(), a.cols()).to_triples();
  EXPECT_EQ(written, oracle.size());
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].row, oracle[i].row);
    ASSERT_EQ(got[i].col, oracle[i].col);
    EXPECT_NEAR(got[i].val, oracle[i].val, 1e-12)
        << "(" << got[i].row << ", " << got[i].col << ")";
  }
  EXPECT_EQ(sorted_tables(db), (std::vector<std::string>{"A", "J"}));
}

INSTANTIATE_TEST_SUITE_P(
    Rmat, TableAlgosOracle,
    ::testing::Combine(::testing::Values(8, 10),
                       ::testing::Values(std::uint64_t{3}, std::uint64_t{7})),
    [](const auto& test_info) {
      return std::string("Scale")
          .append(std::to_string(std::get<0>(test_info.param)))
          .append("Seed")
          .append(std::to_string(std::get<1>(test_info.param)));
    });

TEST(TableAlgosEdgeCases, TwoTrussKeepsEdgesWithoutSupport) {
  // Path 0-1-2 plus the triangle 3-4-5: every graph is its own 2-truss,
  // so the path's edges (no triangle through them) must survive k = 2.
  std::vector<la::Triple<double>> triples;
  for (const auto& [u, v] : std::vector<std::pair<Index, Index>>{
           {0, 1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}}) {
    triples.push_back({u, v, 1.0});
    triples.push_back({v, u, 1.0});
  }
  const auto a = SpMat<double>::from_triples(6, 6, triples);
  nosql::Instance db;
  write_matrix(db, "A", a);
  EXPECT_EQ(table_ktruss(db, "A", 2, "T"), 10u);
  EXPECT_EQ(read_matrix(db, "T", 6, 6), algo::ktruss_adjacency(a, 2));
  EXPECT_EQ(table_ktruss(db, "A", 3, "T"), 6u);
  EXPECT_EQ(read_matrix(db, "T", 6, 6), algo::ktruss_adjacency(a, 3));
  EXPECT_EQ(sorted_tables(db), (std::vector<std::string>{"A", "T"}));
}

TEST(TableAlgosEdgeCases, PagerankMatchesMatrixPagerankOnRmat) {
  const auto a = rmat_graph(10, 3);
  nosql::Instance db(2);
  write_matrix(db, "A", a);
  const auto scores = table_pagerank(db, "A", 0.15, 30);

  // The table knows only vertices that appear in it: the oracle runs on
  // the subgraph without isolated vertices.
  std::vector<Index> present;
  const auto rows = la::row_sums(a);
  for (Index v = 0; v < a.rows(); ++v) {
    if (rows[static_cast<std::size_t>(v)] != 0.0) present.push_back(v);
  }
  const auto oracle = algo::pagerank(la::spref(a, present, present), 0.15,
                                     {.max_iterations = 30, .tolerance = 0.0});
  ASSERT_EQ(scores.size(), present.size());
  for (std::size_t i = 0; i < present.size(); ++i) {
    EXPECT_NEAR(scores.at(assoc::vertex_key(present[i])), oracle.scores[i],
                1e-9)
        << present[i];
  }
  EXPECT_EQ(sorted_tables(db), (std::vector<std::string>{"A"}));
}

}  // namespace
}  // namespace graphulo::core
