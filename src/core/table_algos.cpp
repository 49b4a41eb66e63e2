#include "core/table_algos.hpp"

#include <cmath>
#include <mutex>
#include <set>

#include "core/table_ops.hpp"
#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/scanner.hpp"

namespace graphulo::core {

using nosql::decode_double;
using nosql::encode_double;

std::map<std::string, int> adj_bfs(nosql::Instance& db,
                                   const std::string& adj_table,
                                   const std::vector<std::string>& seeds,
                                   int max_hops) {
  std::map<std::string, int> level;
  std::set<std::string> frontier(seeds.begin(), seeds.end());
  for (const auto& s : frontier) level[s] = 0;

  for (int hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
    // One batched scan over all frontier rows.
    std::vector<nosql::Range> ranges;
    ranges.reserve(frontier.size());
    for (const auto& v : frontier) ranges.push_back(nosql::Range::exact_row(v));
    std::set<std::string> next;
    std::mutex next_mutex;
    nosql::BatchScanner scanner(db, adj_table);
    scanner.set_ranges(std::move(ranges));
    scanner.for_each([&](const nosql::Key& k, const nosql::Value&) {
      std::lock_guard lock(next_mutex);
      next.insert(k.qualifier);
    });
    frontier.clear();
    for (const auto& v : next) {
      if (level.emplace(v, hop).second) frontier.insert(v);
    }
  }
  return level;
}

std::size_t table_jaccard(nosql::Instance& db, const std::string& adj_table,
                          const std::string& out_table) {
  // Common-neighbor counts: C = A^T * A, C(i,j) = |N(i) ^ N(j)|. A is
  // 0/1, so the diagonal C(i,i) is deg(i).
  const std::string common = out_table + "__common";
  table_mult(db, adj_table, adj_table, common);

  // One pass over C in row order. Row i's diagonal gives deg(i); each
  // lower-triangle cell C(i,j), j < i, meets deg(j) already read (row j
  // came first) and writes J(j,i) = c / (d_j + d_i - c) into the strict
  // upper triangle of `out_table`.
  if (!db.table_exists(out_table)) db.create_table(out_table);
  nosql::BatchWriter writer(db, out_table);
  std::size_t written = 0;
  std::map<std::string, double> degree;
  RowReader reader(open_table_scan(db, common));
  while (reader.has_next()) {
    const auto block = reader.next_row();
    double di = 0.0;
    for (const auto& cell : block.cells) {
      if (cell.key.qualifier != block.row) continue;
      di = decode_double(cell.value).value_or(0.0);
    }
    degree[block.row] = di;
    for (const auto& cell : block.cells) {
      if (!(cell.key.qualifier < block.row)) continue;
      const auto c = decode_double(cell.value);
      if (!c || *c == 0.0) continue;
      const auto dj = degree.find(cell.key.qualifier);
      const double denom = (dj == degree.end() ? 0.0 : dj->second) + di - *c;
      if (denom <= 0.0) continue;
      nosql::Mutation m(cell.key.qualifier);
      m.put("", block.row, encode_double(*c / denom));
      writer.add_mutation(std::move(m));
      ++written;
    }
  }
  writer.flush();
  db.delete_table(common);
  return written;
}

std::size_t table_ktruss(nosql::Instance& db, const std::string& adj_table,
                         int k, const std::string& out_table) {
  // Working copy of the adjacency (0/1 values), a sum table like the
  // round results that may replace it.
  if (db.table_exists(out_table)) db.delete_table(out_table);
  create_sum_table(db, out_table);
  {
    nosql::BatchWriter writer(db, out_table);
    RowReader reader(open_table_scan(db, adj_table));
    while (reader.has_next()) {
      auto block = reader.next_row();
      nosql::Mutation m(block.row);
      for (const auto& cell : block.cells) {
        if (cell.key.row == cell.key.qualifier) continue;  // drop loops
        m.put(cell.key.family, cell.key.qualifier, encode_double(1.0));
      }
      if (!m.updates().empty()) writer.add_mutation(std::move(m));
    }
    writer.flush();
  }
  std::size_t edges = table_entry_count(db, out_table);
  // Every edge has support >= 0, so the 2-truss is the whole graph. The
  // masked product below emits nothing for an edge without support, so
  // the rounds must not run here.
  if (k <= 2) return edges;

  // Each round computes the support of every edge, S<E> = E^T E under
  // the (+, and) semiring with E as its own structural mask, straight
  // into the other edge table, then drops edges with support < k-2 in
  // place. The two tables alternate; at the fixpoint both hold the
  // same edge set, so `out_table` holds the answer whichever it is.
  const double min_support = static_cast<double>(k - 2);
  std::string cur = out_table;
  std::string next = out_table + "__kt";
  TableMultOptions options;
  options.multiply = [](double, double) { return 1.0; };
  for (;;) {
    if (db.table_exists(next)) db.delete_table(next);
    options.mask_table = cur;
    table_mult(db, cur, cur, next, options);
    table_filter(db, next, [min_support](const nosql::Key&, double support) {
      return support >= min_support;
    });
    const std::size_t kept = table_entry_count(db, next);
    std::swap(cur, next);
    if (kept == edges) break;  // fixpoint
    edges = kept;
  }
  db.delete_table(out_table + "__kt");
  // The surviving cells hold supports (or the copy's 1s): back to 0/1.
  table_apply(db, out_table, [](double) { return 1.0; });
  return edges;
}

std::map<std::string, double> table_pagerank(nosql::Instance& db,
                                             const std::string& adj_table,
                                             double alpha, int iterations) {
  // Vertex universe and out-degrees (row sums) from one pass over the
  // adjacency table; sinks appear only as qualifiers and get degree 0.
  std::map<std::string, double> degree;
  {
    RowReader reader(open_table_scan(db, adj_table));
    while (reader.has_next()) {
      const auto block = reader.next_row();
      double d = 0.0;
      for (const auto& cell : block.cells) {
        if (const auto v = decode_double(cell.value)) d += *v;
        degree.emplace(cell.key.qualifier, 0.0);
      }
      degree[block.row] = d;
    }
  }
  const auto n = degree.size();
  std::map<std::string, double> x;
  if (n == 0) return x;
  for (const auto& [key, d] : degree) {
    x[key] = 1.0 / static_cast<double>(n);
  }

  const std::string x_table = adj_table + "__prx";
  for (int it = 0; it < iterations; ++it) {
    // Write the scaled frontier x/d as a one-column table.
    if (db.table_exists(x_table)) db.delete_table(x_table);
    db.create_table(x_table);
    double dangling = 0.0;
    {
      nosql::BatchWriter writer(db, x_table);
      for (const auto& [key, value] : x) {
        const double d = degree[key];
        if (d == 0.0) {
          dangling += value;
          continue;
        }
        nosql::Mutation m(key);
        m.put("", "rank", encode_double(value / d));
        writer.add_mutation(std::move(m));
      }
    }
    // One fused server-side sweep: y(j) = sum_i A(i, j) * (x/d)(i),
    // folded per output row without a result table.
    const auto y =
        table_mult_reduce(db, adj_table, x_table, {}, /*per_row=*/true)
            .row_totals;
    // Client-side O(n) glue: damping + dangling redistribution.
    const double uniform =
        alpha / static_cast<double>(n) +
        (1.0 - alpha) * dangling / static_cast<double>(n);
    double total = 0.0;
    for (auto& [key, value] : x) {
      const auto yk = y.find(key);
      value = (1.0 - alpha) * (yk == y.end() ? 0.0 : yk->second) + uniform;
      total += value;
    }
    for (auto& [key, value] : x) value /= total;
  }
  if (db.table_exists(x_table)) db.delete_table(x_table);
  return x;
}

std::size_t table_entry_count(nosql::Instance& db, const std::string& table) {
  std::size_t count = 0;
  nosql::Scanner scan(db, table);
  scan.for_each([&count](const nosql::Key&, const nosql::Value&) { ++count; });
  return count;
}

std::uint64_t table_triangle_count_masked(nosql::Instance& db,
                                          const std::string& adj_table,
                                          TableMultStats* stats) {
  // One fused kernel: A read as U twice (scan filters), masked by A
  // read as L (mask filter), partial products folded in the workers.
  // sum(L .* (U^T·U)) = sum(L .* (L·U)) = triangles, each once.
  TableMultOptions options;
  options.row_filter = strict_upper_filter();
  options.col_filter = strict_upper_filter();
  options.mask_table = adj_table;
  options.mask_filter = strict_lower_filter();
  const auto reduced = table_mult_reduce(db, adj_table, adj_table, options);
  if (stats) *stats = reduced.stats;
  return static_cast<std::uint64_t>(std::llround(reduced.total));
}

std::uint64_t table_triangle_count_trace(nosql::Instance& db,
                                         const std::string& adj_table,
                                         TableMultStats* stats) {
  const std::string wedges = adj_table + "__tri_w";
  const std::string closed = adj_table + "__tri_c";
  if (db.table_exists(wedges)) db.delete_table(wedges);
  if (db.table_exists(closed)) db.delete_table(closed);
  // Every open wedge i-k-j becomes a partial product of W = A^T·A; the
  // unmasked emission count in `stats` is the cost the masked
  // formulation prunes.
  const auto s =
      table_mult(db, adj_table, adj_table, wedges, {.compact_result = true});
  if (stats) *stats = s;
  table_ewise_mult(db, wedges, adj_table, closed);
  const double trace = table_sum(db, closed);  // = trace(A^3)
  db.delete_table(wedges);
  db.delete_table(closed);
  return static_cast<std::uint64_t>(std::llround(trace / 6.0));
}

std::uint64_t table_triangle_count_incidence(nosql::Instance& db,
                                             const std::string& adj_table) {
  const std::string et_table = adj_table + "__tri_et";
  const std::string r_table = adj_table + "__tri_r";
  if (db.table_exists(et_table)) db.delete_table(et_table);
  if (db.table_exists(r_table)) db.delete_table(r_table);
  // Transposed unoriented incidence: row = vertex, qualifier = edge key
  // "u#v" (upper-triangle order gives one edge per undirected pair).
  // The transpose is what makes the next join cheap: TableMult joins on
  // the ROW dimension, which must be the shared vertex axis.
  db.create_table(et_table);
  {
    nosql::BatchWriter writer(db, et_table);
    RowReader reader(open_table_scan(db, adj_table));
    reader.set_cell_filter(strict_upper_filter());
    while (reader.has_next()) {
      const auto block = reader.next_row();
      for (const auto& cell : block.cells) {
        const std::string edge = block.row + "#" + cell.key.qualifier;
        nosql::Mutation mu(block.row);
        mu.put("", edge, encode_double(1.0));
        writer.add_mutation(std::move(mu));
        nosql::Mutation mv(cell.key.qualifier);
        mv.put("", edge, encode_double(1.0));
        writer.add_mutation(std::move(mv));
      }
    }
    writer.flush();
  }
  // R = E·A via TableMult's row join: R(e, w) counts endpoints of e
  // adjacent to w. An entry of exactly 2 closes a triangle over edge e
  // and apex w; each triangle produces one per edge, hence / 3. This is
  // precisely how Algorithm 1 reads k-truss edge support off E·A.
  table_mult(db, et_table, adj_table, r_table, {.compact_result = true});
  std::size_t twos = 0;
  nosql::Scanner scan(db, r_table);
  scan.for_each([&twos](const nosql::Key&, const nosql::Value& v) {
    const auto d = decode_double(v);
    if (d && *d == 2.0) ++twos;
  });
  db.delete_table(et_table);
  db.delete_table(r_table);
  return static_cast<std::uint64_t>(twos / 3);
}

}  // namespace graphulo::core
