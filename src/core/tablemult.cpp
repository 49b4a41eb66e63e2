#include "core/tablemult.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <future>
#include <optional>
#include <random>
#include <tuple>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "assoc/table_io.hpp"
#include "core/table_scan.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/combiner.hpp"
#include "la/spgemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace graphulo::core {

using nosql::CombinerIterator;
using nosql::encode_double;
using nosql::decode_double;

nosql::TableConfig sum_table_config() {
  nosql::TableConfig cfg;
  cfg.versioning = false;  // the combiner must see every partial product
  cfg.attach_iterator({10, "plus-combiner", nosql::kAllScopes,
                       [](nosql::IterPtr src) {
                         return std::make_unique<CombinerIterator>(
                             std::move(src), nosql::sum_double_reducer());
                       }});
  return cfg;
}

void create_sum_table(nosql::Instance& db, const std::string& table) {
  if (db.table_exists(table)) return;
  db.create_table(table, sum_table_config());
}

namespace {

obs::Counter& tm_partitions() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.partitions.total", "TableMult partition attempts completed");
  return c;
}
obs::Counter& tm_rows_joined() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.rows_joined.total",
      "Shared rows joined by the TableMult merge join");
  return c;
}
obs::Counter& tm_partial_products() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.partial_products.total",
      "Partial products emitted by TableMult");
  return c;
}
obs::Counter& tm_cells_emitted() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.cells_emitted.total",
      "Pre-summed cells TableMult sent to its result table");
  return c;
}
obs::Counter& tm_partial_products_pruned() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablemult.partial_products_pruned.total",
      "Partial products dropped by the TableMult structural mask before "
      "emission");
  return c;
}

/// The structural mask, loaded once per multiply from one consistent
/// cut of the mask table: output row key -> the set of output
/// qualifiers M stores there. Values are ignored (presence IS the
/// mask); mask_filter is applied at load. Read-only after construction,
/// so all partition workers share one instance without locking.
struct MaskIndex {
  std::unordered_map<std::string, std::unordered_set<std::string>> rows;
  std::size_t cells = 0;

  /// M's stored qualifiers in output row `i`; null when it has none.
  const std::unordered_set<std::string>* row(const std::string& i) const {
    const auto it = rows.find(i);
    return it == rows.end() ? nullptr : &it->second;
  }
};

MaskIndex load_mask(TableMultDataPlane::ReadView& view,
                    const std::string& mask_table,
                    const CellPredicate& filter) {
  MaskIndex index;
  RowReader reader(view.open_scan(mask_table, nosql::Range::all()));
  while (reader.has_next()) {
    auto block = reader.next_row();
    if (block.cells.empty()) continue;
    auto& qualifiers = index.rows[block.row];
    for (const auto& cell : block.cells) {
      if (filter && !filter(block.row, cell.key.qualifier)) continue;
      if (qualifiers.insert(cell.key.qualifier).second) ++index.cells;
    }
    if (qualifiers.empty()) index.rows.erase(block.row);
  }
  return index;
}

/// Partition-local sparse accumulator (Gustavson's SPA, over interned
/// ids instead of dense indices): sums one partition's surviving partial
/// products with ordinary + per output cell (row i, family, column j),
/// and drains them as mutations sorted by (row, family, qualifier), one
/// per output row. Rows and columns are interned once per partition, so
/// a product costs one integer-keyed hash update instead of a mutation
/// cell, a WAL record share and a combiner fold.
class PartialSums {
 public:
  /// Id of output row slot (row, family).
  std::uint32_t row_slot(const std::string& row, const std::string& family) {
    // Length-prefixed family, then row: unambiguous for any bytes.
    const auto n = static_cast<std::uint32_t>(family.size());
    key_.assign(reinterpret_cast<const char*>(&n), sizeof n);
    key_ += family;
    key_ += row;
    const auto [it, added] = slot_ids_.try_emplace(
        key_, static_cast<std::uint32_t>(slots_.size()));
    if (added) slots_.push_back({row, family});
    return it->second;
  }

  /// Id of output column (qualifier) `qualifier`.
  std::uint32_t column(const std::string& qualifier) {
    const auto [it, added] = column_ids_.try_emplace(
        qualifier, static_cast<std::uint32_t>(columns_.size()));
    if (added) columns_.push_back(qualifier);
    return it->second;
  }

  void add(std::uint32_t slot, std::uint32_t column, double value) {
    sums_[(std::uint64_t{slot} << 32) | column] += value;
  }

  /// Estimated bytes the sums hold: per cell its key, its value, a
  /// node link and a bucket slot.
  std::size_t estimated_bytes() const noexcept {
    return sums_.size() * (sizeof(std::uint64_t) + sizeof(double) +
                           2 * sizeof(void*));
  }

  /// Sends every sum to `writer`, sorted by (row, family, qualifier),
  /// one mutation per output row, and empties the accumulator (the
  /// interned ids stay). Returns the number of cells sent.
  std::size_t drain(nosql::MutationSink& writer) {
    if (sums_.empty()) return 0;
    // Rank the interned ids in key order once, then sort the cells by
    // (slot rank, column rank): integer compares, not string compares.
    const auto slot_order = sorted_ids(slots_.size(), [&](auto a, auto b) {
      return std::tie(slots_[a].row, slots_[a].family) <
             std::tie(slots_[b].row, slots_[b].family);
    });
    const auto column_order = sorted_ids(
        columns_.size(),
        [&](auto a, auto b) { return columns_[a] < columns_[b]; });
    std::vector<std::uint64_t> slot_rank(slots_.size());
    std::vector<std::uint64_t> column_rank(columns_.size());
    for (std::size_t r = 0; r < slot_order.size(); ++r) {
      slot_rank[slot_order[r]] = r;
    }
    for (std::size_t r = 0; r < column_order.size(); ++r) {
      column_rank[column_order[r]] = r;
    }
    std::vector<std::pair<std::uint64_t, double>> cells;
    cells.reserve(sums_.size());
    for (const auto& [key, sum] : sums_) {
      cells.emplace_back(
          (slot_rank[key >> 32] << 32) | column_rank[key & 0xffffffffu], sum);
    }
    std::sort(cells.begin(), cells.end());  // ranks are unique per cell

    std::optional<nosql::Mutation> m;
    for (const auto& [rank, sum] : cells) {
      const Slot& s = slots_[slot_order[rank >> 32]];
      if (!m || m->row() != s.row) {
        if (m) writer.add_mutation(std::move(*m));
        m.emplace(s.row);
      }
      m->put(s.family, columns_[column_order[rank & 0xffffffffu]],
             encode_double(sum));
    }
    writer.add_mutation(std::move(*m));
    sums_.clear();
    return cells.size();
  }

 private:
  struct Slot {
    std::string row;
    std::string family;
  };

  template <class Less>
  static std::vector<std::uint32_t> sorted_ids(std::size_t n, Less less) {
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    std::sort(ids.begin(), ids.end(), less);
    return ids;
  }

  std::string key_;  // row_slot's lookup buffer
  std::unordered_map<std::string, std::uint32_t> slot_ids_;
  std::vector<Slot> slots_;
  std::unordered_map<std::string, std::uint32_t> column_ids_;
  std::vector<std::string> columns_;
  std::unordered_map<std::uint64_t, double> sums_;
};

/// One decoded cell of a joined row B(k, :): decoded once per row, not
/// once per product.
struct JoinedCell {
  const std::string* qualifier;
  std::uint32_t column;  // interned id (write mode only)
  double value;
};

/// Per-partition fused-reduce accumulator (table_mult_reduce). Each
/// partition owns one; the join barrier folds them.
struct ReduceAcc {
  double total = 0.0;
  std::map<std::string, double> rows;  // filled only when per_row
};

/// One attempt at one partition of the row-aligned merge join: scans
/// [range) of A and B (through the scan-time row/col filters), and for
/// every shared row k forms the mask-surviving partial products of
/// A(k, :) and B(k, :), B(k, :) decoded once. Write mode pre-sums them
/// in a PartialSums and drains it through a private MutationSink into
/// C — whenever its estimated bytes reach the BatchWriter's buffer
/// size, and at partition end. Fused-reduce mode (`reduce` not null)
/// folds them into the partition's local accumulator instead. Runs on a
/// worker thread; touches no shared state beyond the (thread-safe)
/// data-plane scan/write entry points and the read-only MaskIndex.
///
/// Exactly-once across attempts (write mode): the mutation stream of a
/// partition is a deterministic function of the (stable) inputs, mask
/// and filters included — the accumulator drains at byte counts the
/// inputs fix and emits in key order — and `writer` numbers it on the
/// partition's writer stream. Every attempt emits the stream from its
/// beginning; the Instance that applies it skips the prefix earlier
/// attempts applied. On failure the buffered remainder is abandoned.
/// Reduce mode has no durable state: a retry starts over on a fresh
/// accumulator.
TableMultPartitionStats mult_partition(TableMultDataPlane::ReadView& view,
                                       const std::string& table_a,
                                       const std::string& table_b,
                                       const TableMultOptions& options,
                                       const MaskIndex* mask,
                                       ReduceAcc* reduce, bool per_row,
                                       const nosql::Range& range,
                                       nosql::MutationSink* writer) {
  // Per-partition wall time: same quantity TableMultPartitionStats
  // reports per call, accumulated here as a global latency histogram.
  TRACE_SPAN("tablemult.partition");
  util::Timer total;
  TableMultPartitionStats stats;
  if (range.has_start) stats.start_row = range.start.row;
  if (range.has_end) stats.end_row = range.end.row;

  try {
    // The view is one pinned cut: every worker and every retry sees
    // the same inputs (live scans when isolation was disabled).
    RowReader reader_a(view.open_scan(table_a, range), range);
    RowReader reader_b(view.open_scan(table_b, range), range);
    reader_a.set_cell_filter(options.row_filter);
    reader_b.set_cell_filter(options.col_filter);

    // With a filter installed a row can assemble empty; skip those so
    // the join only ever sees rows that still hold cells.
    const auto read_row = [](RowReader& reader, RowBlock& row) {
      while (reader.has_next()) {
        row = reader.next_row();
        if (!row.cells.empty()) return true;
      }
      return false;
    };

    std::optional<PartialSums> sums;
    if (!reduce) sums.emplace();
    const auto drain = [&] {
      util::Timer t;
      stats.cells_emitted += sums->drain(*writer);
      stats.flush_seconds += t.seconds();
    };

    util::Timer phase;
    RowBlock row_a, row_b;
    std::vector<JoinedCell> joined_b;  // B(k, :), decoded
    bool have_a = read_row(reader_a, row_a);
    bool have_b = read_row(reader_b, row_b);
    stats.scan_seconds += phase.seconds();
    while (have_a && have_b) {
      util::fault::point(util::fault::sites::kTableMultWorker);
      if (row_a.row < row_b.row) {
        phase.reset();
        reader_a.advance_to(row_b.row);
        have_a = read_row(reader_a, row_a);
        stats.scan_seconds += phase.seconds();
        continue;
      }
      if (row_b.row < row_a.row) {
        phase.reset();
        reader_b.advance_to(row_a.row);
        have_b = read_row(reader_b, row_b);
        stats.scan_seconds += phase.seconds();
        continue;
      }
      // Shared row k: the outer product of A(k, :) and B(k, :).
      ++stats.rows_joined;
      phase.reset();
      joined_b.clear();
      for (const auto& cb : row_b.cells) {
        const auto bv = decode_double(cb.value);
        if (!bv) continue;
        joined_b.push_back({&cb.key.qualifier,
                            sums ? sums->column(cb.key.qualifier) : 0u, *bv});
      }
      for (const auto& ca : row_a.cells) {
        const auto av = decode_double(ca.value);
        if (!av) continue;
        // Structural mask: a pruned product never reaches the
        // accumulator (or the reduction).
        const std::unordered_set<std::string>* mask_row =
            mask ? mask->row(ca.key.qualifier) : nullptr;
        const auto pruned = [&](const JoinedCell& cb) {
          return mask && (!mask_row || mask_row->count(*cb.qualifier) == 0);
        };
        if (reduce) {
          // Fused reduce: fold surviving products straight into the
          // partition-local accumulator; no mutation is ever built.
          double row_sum = 0.0;
          for (const auto& cb : joined_b) {
            if (pruned(cb)) {
              ++stats.partial_products_pruned;
              continue;
            }
            row_sum += options.multiply(*av, cb.value);
            ++stats.partial_products;
          }
          reduce->total += row_sum;
          if (per_row && row_sum != 0.0) {
            reduce->rows[ca.key.qualifier] += row_sum;
          }
          continue;
        }
        const std::uint32_t slot =
            sums->row_slot(ca.key.qualifier, ca.key.family);  // i = A's column
        for (const auto& cb : joined_b) {
          if (pruned(cb)) {
            ++stats.partial_products_pruned;
            continue;
          }
          sums->add(slot, cb.column, options.multiply(*av, cb.value));
          ++stats.partial_products;
        }
        if (sums->estimated_bytes() >=
            nosql::BatchWriter::kDefaultBufferBytes) {
          stats.emit_seconds += phase.seconds();
          drain();
          phase.reset();
        }
      }
      stats.emit_seconds += phase.seconds();
      phase.reset();
      have_a = read_row(reader_a, row_a);
      have_b = read_row(reader_b, row_b);
      stats.scan_seconds += phase.seconds();
    }
    if (writer) {
      drain();
      util::Timer close;
      writer->close();
      stats.flush_seconds += close.seconds();
    }
    stats.seeks = reader_a.seeks_performed() + reader_b.seeks_performed();
    stats.seconds = total.seconds();
    return stats;
  } catch (...) {
    // The buffered remainder must NOT flush from the destructor (a retry
    // regenerates it), so abandon the writer before propagating.
    if (writer) writer->abandon();
    throw;
  }
}

/// Runs one partition to completion: retries transient failures on
/// fresh scans + a fresh writer (see mult_partition for the
/// exactly-once argument; reduce attempts restart on a cleared
/// accumulator). Write mode (`reduce` null) writes into `table_c` on
/// writer stream `stream`, re-opened by every retry.
TableMultPartitionStats run_partition(
    TableMultDataPlane& plane, TableMultDataPlane::ReadView& view,
    const std::string& table_a, const std::string& table_b,
    const std::string& table_c, const TableMultOptions& options,
    const MaskIndex* mask, ReduceAcc* reduce, bool per_row,
    const nosql::Range& range, const std::string& stream) {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      if (reduce) *reduce = ReduceAcc{};
      std::unique_ptr<nosql::MutationSink> writer;
      if (!reduce) writer = plane.open_writer(table_c, stream);
      auto stats = mult_partition(view, table_a, table_b, options, mask,
                                  reduce, per_row, range, writer.get());
      stats.attempts = attempt;
      return stats;
    } catch (const util::TransientError& e) {
      if (attempt > options.max_partition_retries) throw;
      GRAPHULO_WARN << "TableMult: partition [" << range.start.row << ", "
                    << range.end.row << ") attempt " << attempt
                    << " failed (" << e.what() << "); retrying";
    }
  }
}

/// The contiguous half-open row ranges between `bounds` (all rows when
/// there are none).
std::vector<nosql::Range> ranges_between(
    const std::vector<std::string>& bounds) {
  if (bounds.empty()) return {nosql::Range::all()};
  std::vector<nosql::Range> ranges;
  std::string prev;
  for (const auto& b : bounds) {
    ranges.push_back(nosql::Range::half_open_row_range(prev, b));
    prev = b;
  }
  ranges.push_back(nosql::Range::half_open_row_range(prev, ""));
  return ranges;
}

/// Shared driver of table_mult and table_mult_reduce. In write mode
/// (`merged` null) the result lands in `table_c`; in fused-reduce mode
/// the per-partition accumulators are folded into `*merged` at the join
/// barrier and `table_c` is ignored.
TableMultStats run_mult(TableMultDataPlane& plane, const std::string& table_a,
                        const std::string& table_b,
                        const std::string& table_c,
                        const TableMultOptions& options, ReduceAcc* merged,
                        bool per_row) {
  util::Timer timer;
  const bool reduce_mode = merged != nullptr;
  const util::RetryPolicy retry = plane.retry_policy();
  if (!options.mask_table.empty() && !plane.table_exists(options.mask_table)) {
    throw std::invalid_argument("table_mult: mask table '" +
                                options.mask_table + "' does not exist");
  }
  std::size_t workers = options.num_workers != 0
                            ? options.num_workers
                            : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  // Pin the inputs BEFORE partitioning so the partition boundaries and
  // every worker's scans describe the same cut. The mask (when named)
  // is pinned alongside — the view dedupes aliased tables — so mask, A
  // and B are one consistent view. The view releases at the end of
  // this function (before the optional result compaction, so an
  // in-place product's markers are not retained on its account).
  std::vector<std::string> view_tables{table_a, table_b};
  if (!options.mask_table.empty()) view_tables.push_back(options.mask_table);
  std::unique_ptr<TableMultDataPlane::ReadView> view =
      util::with_retries("TableMult: snapshot open", retry, [&] {
        return plane.open_read_view(view_tables);
      });

  // The mask is loaded once, before the fan-out: one read of M serves
  // every partition (and every retry) as a shared read-only index.
  std::optional<MaskIndex> mask;
  if (!options.mask_table.empty()) {
    mask = util::with_retries("TableMult: mask load", retry, [&] {
      return load_mask(*view, options.mask_table, options.mask_filter);
    });
  }
  const MaskIndex* mask_ptr = mask ? &*mask : nullptr;

  // Cut A's row space at its tablet split points (sampled keys as
  // fallback) before C's setup, so a C created here is pre-split at the
  // same bounds. Setup is retry-safe: partitioning is a read-only pass
  // over A and ensure_table re-checks existence — both may hit
  // transient (injected) faults that a second attempt clears.
  std::vector<std::string> bounds;
  if (workers > 1) {
    bounds = util::with_retries("TableMult: partitioning", retry, [&] {
      return plane.partition_rows(table_a, workers);
    });
  }
  const auto ranges = ranges_between(bounds);
  if (!reduce_mode) {
    util::with_retries("TableMult: result table setup", retry,
                       [&] { plane.ensure_table(table_c, bounds); });
  }

  // Partition p writes writer stream "tm/<nonce>/<p>": a random nonce
  // per multiply keeps multiplies (and clients) off each other's streams.
  std::random_device entropy;
  const std::string stream_prefix =
      "tm/" + std::to_string((std::uint64_t{entropy()} << 32) ^ entropy()) +
      "/";

  TableMultStats stats;
  stats.partitions.reserve(ranges.size());
  std::vector<ReduceAcc> accs(reduce_mode ? ranges.size() : 0);
  if (ranges.size() == 1) {
    // Serial path: identical order of scans and writes to a single-table
    // run, no pool, no partition boundaries.
    stats.partitions.push_back(run_partition(
        plane, *view, table_a, table_b, table_c, options, mask_ptr,
        reduce_mode ? &accs[0] : nullptr, per_row, ranges[0],
        stream_prefix + "0"));
  } else {
    util::ThreadPool pool(std::min(workers, ranges.size()));
    std::vector<std::future<TableMultPartitionStats>> futures;
    futures.reserve(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      ReduceAcc* acc = reduce_mode ? &accs[i] : nullptr;
      const nosql::Range& range = ranges[i];
      futures.push_back(pool.submit([&plane, &view, &table_a, &table_b,
                                     &table_c, &options, mask_ptr, acc,
                                     per_row, &range,
                                     stream = stream_prefix + std::to_string(i)] {
        return run_partition(plane, *view, table_a, table_b, table_c, options,
                             mask_ptr, acc, per_row, range, stream);
      }));
    }
    // Flush barrier: join every worker (collecting its counters) before
    // the optional compaction; rethrow the first failure only after all
    // writers have drained.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        stats.partitions.push_back(f.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
  for (const auto& p : stats.partitions) {
    stats.rows_joined += p.rows_joined;
    stats.partial_products += p.partial_products;
    stats.partial_products_pruned += p.partial_products_pruned;
    stats.cells_emitted += p.cells_emitted;
    stats.seeks += p.seeks;
    if (p.attempts > 1) ++stats.retried_partitions;
  }
  if (reduce_mode) {
    // Distinct k-partitions contribute disjoint partial-product sets;
    // ordinary + folds them in any order, same as C's combiner would.
    for (auto& acc : accs) {
      merged->total += acc.total;
      for (auto& [row, v] : acc.rows) merged->rows[row] += v;
    }
  }
  tm_partitions().inc(stats.partitions.size());
  tm_rows_joined().inc(stats.rows_joined);
  tm_partial_products().inc(stats.partial_products);
  tm_partial_products_pruned().inc(stats.partial_products_pruned);
  tm_cells_emitted().inc(stats.cells_emitted);
  // Release the input pins before compacting C: when C aliases an input
  // (in-place kernels), a live snapshot would hold the compaction's
  // delete-marker/version GC hostage for no reason.
  view.reset();
  if (!reduce_mode && options.compact_result) plane.compact(table_c);
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace

TableMultStats table_mult(TableMultDataPlane& plane,
                          const std::string& table_a,
                          const std::string& table_b,
                          const std::string& table_c,
                          const TableMultOptions& options) {
  return run_mult(plane, table_a, table_b, table_c, options, nullptr, false);
}

TableMultStats table_mult(nosql::Instance& db, const std::string& table_a,
                          const std::string& table_b,
                          const std::string& table_c,
                          const TableMultOptions& options) {
  LocalDataPlane plane(db);
  return table_mult(plane, table_a, table_b, table_c, options);
}

TableMultReduceResult table_mult_reduce(TableMultDataPlane& plane,
                                        const std::string& table_a,
                                        const std::string& table_b,
                                        const TableMultOptions& options,
                                        bool per_row) {
  ReduceAcc merged;
  TableMultReduceResult result;
  result.stats =
      run_mult(plane, table_a, table_b, "", options, &merged, per_row);
  result.total = merged.total;
  result.row_totals = std::move(merged.rows);
  return result;
}

TableMultReduceResult table_mult_reduce(nosql::Instance& db,
                                        const std::string& table_a,
                                        const std::string& table_b,
                                        const TableMultOptions& options,
                                        bool per_row) {
  LocalDataPlane plane(db);
  return table_mult_reduce(plane, table_a, table_b, options, per_row);
}

TableMultStats client_side_mult(nosql::Instance& db, const std::string& table_a,
                                const std::string& table_b,
                                const std::string& table_c, la::Index rows,
                                la::Index cols_a, la::Index cols_b) {
  util::Timer timer;
  TableMultStats stats;
  // Full round trip: table -> client matrices -> SpGEMM -> table.
  const auto a = assoc::read_matrix(db, table_a, rows, cols_a);
  const auto b = assoc::read_matrix(db, table_b, rows, cols_b);
  const auto c =
      la::spgemm<la::PlusTimes<double>>(la::transpose(a), b);
  create_sum_table(db, table_c);
  stats.partial_products = static_cast<std::size_t>(c.nnz());
  assoc::write_matrix(db, table_c, c);
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace graphulo::core
