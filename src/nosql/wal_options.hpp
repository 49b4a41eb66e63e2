#pragma once
// Durability knobs for the write-ahead log. Mirrors Accumulo's
// tserver.wal sync settings: the trade-off is per-append latency
// against the window of acknowledged-but-volatile records lost on a
// crash.

#include <chrono>
#include <cstddef>

namespace graphulo::nosql {

/// When an appended WAL record becomes durable relative to the append
/// call returning.
enum class WalSyncMode {
  /// Group commit: appends are batched by a committer thread into one
  /// buffered write + a single fsync; each append blocks until its own
  /// sequence number is durable. Concurrent writers share the sync
  /// cost; a lone writer pays one sync per record.
  kGroup,
  /// Appends return immediately; the committer flushes the batch every
  /// `max_batch_latency` (or when `max_batch_bytes` accumulate).
  /// Records are durable only after an explicit sync() — the legacy
  /// buffered-stream behaviour, and the default.
  kInterval,
};

struct WalOptions {
  WalSyncMode sync_mode = WalSyncMode::kInterval;
  /// Committer writes a batch as soon as this many encoded bytes are
  /// pending, even before the latency deadline.
  std::size_t max_batch_bytes = 1u << 20;
  /// Upper bound on how long a pending record waits for co-travellers
  /// before the committer writes the batch anyway.
  std::chrono::microseconds max_batch_latency{2000};
};

}  // namespace graphulo::nosql
