#pragma once
// Graph algorithms executed directly against database tables — the
// paper's end goal ("perform graph algorithms directly on NoSQL
// databases"). The trio implemented here (BFS from a seed set, Jaccard
// similarity, k-truss) matches the headline algorithms of the actual
// Graphulo server library. Jaccard, k-truss and PageRank each run as
// TableMult calls — masked where the algorithm has a mask, fused into a
// reduction where it needs no result table — with the client holding
// at most one value per vertex.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/tablemult.hpp"
#include "nosql/instance.hpp"

namespace graphulo::core {

/// Breadth-first search over an adjacency table (row -> qualifier =
/// out-neighbor). Returns vertex -> hop distance for every vertex within
/// `max_hops` of the seeds (seeds at distance 0). Each hop is one batch
/// scan over the frontier rows — Graphulo's AdjBFS pattern.
std::map<std::string, int> adj_bfs(nosql::Instance& db,
                                   const std::string& adj_table,
                                   const std::vector<std::string>& seeds,
                                   int max_hops);

/// Jaccard similarity on an undirected 0/1 adjacency table. One
/// TableMult computes the common-neighbor counts C = A^T A, whose
/// diagonal holds the degrees; one pass over C reads the degrees and
/// writes J(i,j) = |N(i) ^ N(j)| / |N(i) u N(j)| for i < j into
/// `out_table`. C is dropped before returning. Returns the number of
/// similarity cells written.
std::size_t table_jaccard(nosql::Instance& db, const std::string& adj_table,
                          const std::string& out_table);

/// k-truss of an undirected 0/1 adjacency table (Graphulo's kTrussAdj
/// iteration). Each round is one masked TableMult S<E> = E^T E under
/// the (+, and) semiring — E is its own mask, so only existing edges
/// get a support — written straight into the other of two alternating
/// edge tables, then one in-place table_filter that drops edges with
/// support < k-2; rounds repeat until a fixpoint. Self-loops are
/// dropped; for k <= 2 the loop-free copy is the answer. The surviving
/// subgraph is written to `out_table` (0/1 adjacency, created as a sum
/// table — see create_sum_table). Returns the number of surviving
/// directed edge cells.
std::size_t table_ktruss(nosql::Instance& db, const std::string& adj_table,
                         int k, const std::string& out_table);

/// Number of cells visible in a table (scan count).
std::size_t table_entry_count(nosql::Instance& db, const std::string& table);

/// Triangle count of an undirected 0/1 adjacency table, adjacency-based
/// masked form (the Graphulo "Distributed Triangle Counting" follow-up,
/// 1709.01054): sum(L .* (L·U)) computed as ONE fused table_mult_reduce
/// over the adjacency table itself — strict-upper scan filters read
/// both inputs as U in place (C = U^T·U = L·U), the adjacency doubles
/// as its own strict-lower mask L, and the final reduction folds in the
/// workers. Nothing is materialized: no L or U tables, no wedge table,
/// no result table. Each triangle is counted exactly once. `stats`
/// (optional) receives the kernel's TableMultStats — the
/// partial_products vs partial_products_pruned split is the headline
/// masking win the Weale benchmark reports.
std::uint64_t table_triangle_count_masked(nosql::Instance& db,
                                          const std::string& adj_table,
                                          TableMultStats* stats = nullptr);

/// Unmasked trace(A^3)/6 formulation — the ablation baseline: one full
/// TableMult materializes the wedge table W = A^T·A (every open wedge
/// becomes a partial product), an eWise intersection with A restricts
/// to closed wedges, and a table sum divides by 6. `stats` receives the
/// wedge multiply's TableMultStats (its partial_products is the
/// unmasked emission count the masked path avoids).
std::uint64_t table_triangle_count_trace(nosql::Instance& db,
                                         const std::string& adj_table,
                                         TableMultStats* stats = nullptr);

/// Incidence-based triangle count (the k-truss machinery of Algorithm 1
/// applied to counting): builds the transposed unoriented incidence
/// table E^T (row = vertex, qualifier = edge key, one edge per
/// undirected adjacency pair), computes R = E·A with one TableMult
/// (rows of R are edges, R(e, w) = how many endpoints of e are adjacent
/// to w), and counts entries equal to 2 — each triangle contributes one
/// such entry per edge, so the count divides by 3. Working tables are
/// dropped before returning.
std::uint64_t table_triangle_count_incidence(nosql::Instance& db,
                                             const std::string& adj_table);

/// PageRank executed against an adjacency table: out-degrees and the
/// vertex universe (sinks included) come from one pass over A; each
/// power sweep is one fused per-row table_mult_reduce
/// y(j) = sum_i A(i, j) * x(i)/d(i) with the frontier vector stored as
/// a one-column table, so no result table is written. The client only
/// applies the O(n) damping/dangling correction between sweeps
/// (Graphulo's orchestration pattern: bulk work in the database, scalar
/// glue in the client). Returns vertex key -> score (sums to 1).
std::map<std::string, double> table_pagerank(nosql::Instance& db,
                                             const std::string& adj_table,
                                             double alpha = 0.15,
                                             int iterations = 30);

}  // namespace graphulo::core
