#pragma once
// Write-path types: a Mutation collects puts/deletes for one row, like
// Accumulo's Mutation. BatchWriter buffers mutations and routes them to
// tablets.

#include <optional>
#include <string>
#include <vector>

#include "nosql/key.hpp"

namespace graphulo::nosql {

/// One column update inside a mutation.
struct ColumnUpdate {
  std::string family;
  std::string qualifier;
  std::string visibility;
  Timestamp ts = 0;
  bool has_ts = false;  ///< false -> server assigns a logical timestamp
  bool deleted = false;
  Value value;
};

/// All updates to one row, applied atomically by the owning tablet.
class Mutation {
 public:
  explicit Mutation(std::string row) : row_(std::move(row)) {}

  /// Adds a put of `value` at (family, qualifier).
  Mutation& put(std::string family, std::string qualifier, Value value);

  /// Adds a put with an explicit visibility and/or timestamp.
  Mutation& put(std::string family, std::string qualifier,
                std::string visibility, Timestamp ts, Value value);

  /// Adds a delete marker for (family, qualifier).
  Mutation& put_delete(std::string family, std::string qualifier);

  /// Adds a fully-specified update verbatim (wire decode / replay
  /// paths, where has_ts/deleted combinations the sugar above cannot
  /// express must round-trip exactly).
  Mutation& add_update(ColumnUpdate update) {
    updates_.push_back(std::move(update));
    return *this;
  }

  const std::string& row() const noexcept { return row_; }
  const std::vector<ColumnUpdate>& updates() const noexcept { return updates_; }

  /// Approximate serialized size, for writer buffering decisions.
  std::size_t estimated_bytes() const noexcept;

 private:
  std::string row_;
  std::vector<ColumnUpdate> updates_;
};

/// Abstract destination for a stream of mutations — the writer surface
/// BatchWriter (local) and distributed::ClusterBatchWriter (remote)
/// both implement, so producers like the TableMult partition workers
/// are agnostic to where their output lands. Contract mirrors
/// BatchWriter: add_mutation may auto-flush and throw; close() is the
/// explicit way to observe the final flush; abandon() discards buffered
/// work for callers that re-generate it on retry.
class MutationSink {
 public:
  /// What kind of failure last_error() records — callers distinguish a
  /// shed write (back off and retry later) from corruption without
  /// string matching. Shared by every sink so the classification is
  /// identical whether the write failed locally or across the wire.
  enum class ErrorKind {
    kNone,        ///< no flush/close has failed
    kTransient,   ///< retryable (WAL/flush/transport fault); retries exhausted
    kOverloaded,  ///< admission shed the write (back-pressure) — transient
    kFatal,       ///< non-transient (logic error, corruption, fatal fault)
  };

  virtual ~MutationSink() = default;

  virtual void add_mutation(Mutation mutation) = 0;
  virtual void flush() = 0;
  virtual void close() = 0;
  virtual void abandon() noexcept = 0;
  virtual const std::optional<std::string>& last_error() const noexcept = 0;
  virtual ErrorKind last_error_kind() const noexcept = 0;
};

/// The one classification every sink uses for last_error_kind():
/// OverloadedError (checked first — it derives from TransientError) →
/// kOverloaded, any other TransientError → kTransient, everything else
/// → kFatal. Remote failures classify identically because the RPC
/// client re-throws wire statuses as these same types.
MutationSink::ErrorKind classify_write_error(
    const std::exception& error) noexcept;

}  // namespace graphulo::nosql
