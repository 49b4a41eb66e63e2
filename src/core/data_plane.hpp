#pragma once
// TableMultDataPlane: where the TableMult pipeline reads and writes.
//
// The partitioned merge join of tablemult.cpp is agnostic to whether
// its scans and writers touch a local Instance or cross process
// boundaries — it needs exactly four capabilities: consistent read
// views it can open range scans through, per-partition mutation sinks,
// a way to cut the row space, and table setup/compaction. This
// interface names those capabilities; LocalDataPlane implements them
// over an Instance (the default path, used by table_mult(db, ...)),
// and distributed::ClusterDataPlane implements them over RPC so the
// same kernel runs against a fleet of tablet-server processes.
//
// Exactly-once across partition retries has one protocol on both
// planes: open_writer(table, stream) returns a sink whose mutations are
// numbered on writer stream `stream`, and the Instance that applies
// them (in process, or behind a tablet server) skips every sequence
// number below the stream's persisted high-water mark. A retried
// partition re-opens its stream and resends from sequence 0.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/mutation.hpp"
#include "util/fault.hpp"

namespace graphulo::nosql {
class Instance;
}

namespace graphulo::core {

class TableMultDataPlane {
 public:
  /// A pinned, consistent read view over a set of tables: every
  /// open_scan through one view (across all partitions and retries)
  /// sees the same cut of each table.
  class ReadView {
   public:
    virtual ~ReadView() = default;

    /// Seeked iterator over `range` of `table` (one of the tables the
    /// view was opened over).
    virtual nosql::IterPtr open_scan(const std::string& table,
                                     const nosql::Range& range) = 0;
  };

  virtual ~TableMultDataPlane() = default;

  virtual bool table_exists(const std::string& table) = 0;

  /// Creates `table` as a TableMult result sink (versioning off,
  /// summing combiner at every scope) if missing, split at `splits` —
  /// the partition bounds, so concurrent partition writers land on
  /// separate tablets. No-op when it exists.
  virtual void ensure_table(const std::string& table,
                            const std::vector<std::string>& splits) = 0;

  /// Opens one consistent cut of `tables`.
  virtual std::unique_ptr<ReadView> open_read_view(
      const std::vector<std::string>& tables) = 0;

  /// A writer into `table` whose mutations are numbered on writer
  /// stream `stream` (see the file comment). Re-opening the same stream
  /// and resending it applies only what no earlier writer applied.
  virtual std::unique_ptr<nosql::MutationSink> open_writer(
      const std::string& table, const std::string& stream) = 0;

  /// Up to `pieces - 1` interior row boundaries cutting `table`'s row
  /// space into contiguous chunks (tablet splits / sampled keys).
  virtual std::vector<std::string> partition_rows(const std::string& table,
                                                  std::size_t pieces) = 0;

  virtual void compact(const std::string& table) = 0;

  /// Retry budget for the plane's control-plane calls (setup,
  /// partitioning, snapshot open).
  virtual util::RetryPolicy retry_policy() const = 0;
};

/// The default plane: everything against one in-process Instance.
class LocalDataPlane : public TableMultDataPlane {
 public:
  explicit LocalDataPlane(nosql::Instance& db) : db_(db) {}

  bool table_exists(const std::string& table) override;
  void ensure_table(const std::string& table,
                    const std::vector<std::string>& splits) override;
  std::unique_ptr<ReadView> open_read_view(
      const std::vector<std::string>& tables) override;
  std::unique_ptr<nosql::MutationSink> open_writer(
      const std::string& table, const std::string& stream) override;
  std::vector<std::string> partition_rows(const std::string& table,
                                          std::size_t pieces) override;
  void compact(const std::string& table) override;
  util::RetryPolicy retry_policy() const override;

  nosql::Instance& instance() noexcept { return db_; }

 private:
  nosql::Instance& db_;
};

}  // namespace graphulo::core
